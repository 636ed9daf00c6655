//! Configuration for the dumbbell lab topology.

use dessim::{require, ConfigError, SimDuration};

/// Which congestion control algorithm a flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// TCP Reno (AIMD, NewReno loss recovery).
    Reno,
    /// TCP Cubic (the Linux default).
    Cubic,
    /// BBR v1 (model-based: bandwidth/RTT probing).
    Bbr,
}

/// One application: the experimental *unit* of the lab tests.
///
/// In the parallel-connections experiment an application owns one or two
/// connections; in the pacing and CC experiments it owns exactly one.
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    /// Number of parallel bulk-transfer connections.
    pub connections: usize,
    /// Congestion control algorithm for all its connections.
    pub cc: CcKind,
    /// Whether its connections pace outgoing packets (at Linux's
    /// `2·cwnd/sRTT` in slow start and `1.2·cwnd/sRTT` in congestion
    /// avoidance).
    pub paced: bool,
}

impl AppConfig {
    /// A plain single-connection unpaced application.
    pub fn plain(cc: CcKind) -> AppConfig {
        AppConfig {
            connections: 1,
            cc,
            paced: false,
        }
    }
}

/// Full description of a dumbbell experiment.
#[derive(Debug, Clone)]
pub struct DumbbellConfig {
    /// Bottleneck rate in bits per second.
    pub bottleneck_bps: f64,
    /// Two-way propagation delay excluding queueing.
    pub base_rtt: SimDuration,
    /// Bottleneck buffer size in bandwidth-delay products.
    pub buffer_bdp: f64,
    /// Segment size in bytes (the paper uses 9000-byte jumbo frames).
    pub mss_bytes: u32,
    /// The applications sharing the bottleneck.
    pub apps: Vec<AppConfig>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Receiver ACK aggregation: one ACK per this many in-order segments.
    /// 1 disables aggregation; 2 is classic delayed ACKs (the default);
    /// larger values model GRO coalescing at high rates, which makes
    /// unpaced senders bursty.
    pub ack_aggregation: u32,
    /// Root RNG seed.
    pub seed: u64,
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            bottleneck_bps: 1e9,
            base_rtt: SimDuration::from_millis(20),
            buffer_bdp: 1.0,
            mss_bytes: 1500,
            apps: Vec::new(),
            duration: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(10),
            ack_aggregation: 2,
            seed: 1,
        }
    }
}

impl DumbbellConfig {
    /// Bandwidth-delay product in bytes.
    pub(crate) fn bdp_bytes(&self) -> u64 {
        (self.bottleneck_bps * self.base_rtt.as_secs_f64() / 8.0) as u64
    }

    /// Bottleneck buffer in bytes (at least two segments, so a window can
    /// always make progress).
    pub(crate) fn buffer_bytes(&self) -> u64 {
        ((self.bdp_bytes() as f64 * self.buffer_bdp) as u64).max(2 * self.mss_bytes as u64)
    }

    /// Total number of flows across all applications.
    pub fn total_flows(&self) -> usize {
        self.apps.iter().map(|a| a.connections).sum()
    }

    /// Validate all fields. Every `f64` must be finite: NaN and
    /// infinity fail every range check below. `apps` must be non-empty
    /// with at least one connection per app.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        require(positive(self.bottleneck_bps), "bottleneck_bps")?;
        require(self.base_rtt != SimDuration::ZERO, "base_rtt")?;
        require(positive(self.buffer_bdp), "buffer_bdp")?;
        require(self.mss_bytes >= 64, "mss_bytes")?;
        require(
            !self.apps.is_empty() && self.apps.iter().all(|a| a.connections > 0),
            "apps",
        )?;
        require(self.duration > self.warmup, "duration")?;
        require(self.ack_aggregation > 0, "ack_aggregation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> DumbbellConfig {
        DumbbellConfig {
            apps: vec![AppConfig::plain(CcKind::Reno)],
            ..Default::default()
        }
    }

    #[test]
    fn default_with_apps_is_valid() {
        assert!(valid().validate().is_ok());
    }

    #[test]
    fn bdp_math() {
        let c = valid();
        // 1 Gb/s * 20 ms / 8 = 2.5 MB.
        assert_eq!(c.bdp_bytes(), 2_500_000);
        assert_eq!(c.buffer_bytes(), 2_500_000);
    }

    #[test]
    fn buffer_floor_is_two_segments() {
        let c = DumbbellConfig {
            bottleneck_bps: 1e6,
            base_rtt: SimDuration::from_micros(100),
            buffer_bdp: 0.01,
            ..valid()
        };
        assert_eq!(c.buffer_bytes(), 2 * 1500);
    }

    #[test]
    fn rejects_bad_fields() {
        let err = |field| Err(ConfigError { field });
        let mut c = valid();
        c.bottleneck_bps = 0.0;
        assert_eq!(c.validate(), err("bottleneck_bps"));

        let mut c = valid();
        c.apps.clear();
        assert_eq!(c.validate(), err("apps"));

        let mut c = valid();
        c.apps[0].connections = 0;
        assert_eq!(c.validate(), err("apps"));

        let mut c = valid();
        c.warmup = c.duration;
        assert_eq!(c.validate(), err("duration"));
    }

    #[test]
    fn rejects_non_finite_floats() {
        type Field = fn(&mut DumbbellConfig) -> &mut f64;
        let fields: [(&str, Field); 2] = [
            ("bottleneck_bps", |c| &mut c.bottleneck_bps),
            ("buffer_bdp", |c| &mut c.buffer_bdp),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut c = valid();
                *field(&mut c) = bad;
                assert_eq!(
                    c.validate(),
                    Err(ConfigError { field: name }),
                    "{name} = {bad}"
                );
            }
        }
    }

    #[test]
    fn total_flows_sums_connections() {
        let c = DumbbellConfig {
            apps: vec![
                AppConfig {
                    connections: 2,
                    cc: CcKind::Reno,
                    paced: false,
                },
                AppConfig {
                    connections: 3,
                    cc: CcKind::Cubic,
                    paced: true,
                },
            ],
            ..Default::default()
        };
        assert_eq!(c.total_flows(), 5);
    }
}
