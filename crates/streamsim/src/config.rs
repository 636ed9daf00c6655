//! Configuration for the streaming simulation.

use dessim::{require, ConfigError};

/// All tunables of one streaming-link world.
///
/// Defaults are scaled down from the paper's 100 Gb/s peering links to a
/// 1 Gb/s link with a few hundred concurrent sessions at peak — the same
/// congestion regime at laptop cost.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Link capacity in bits per second.
    pub capacity_bps: f64,
    /// Base (uncongested) round-trip time in seconds.
    pub base_rtt_s: f64,
    /// Bottleneck buffer, expressed in seconds of queueing at capacity
    /// (a full queue adds this much delay to every RTT).
    pub queue_capacity_s: f64,
    /// Simulation tick in seconds.
    pub dt_s: f64,
    /// Number of simulated days.
    pub days: usize,
    /// Mean session arrival rate at the *daily peak*, sessions/second.
    pub peak_arrivals_per_s: f64,
    /// Bitrate ladder in bits/second, ascending.
    pub ladder_bps: Vec<f64>,
    /// Cap applied to treated (bitrate-capped) sessions, bits/second.
    pub cap_bps: f64,
    /// Hard per-session transport ceiling (server/TCP limit).
    pub session_max_bps: f64,
    /// Median of the per-session access-line limit (last mile), bits/s.
    /// Offered load scales with video bitrate because sessions duty-cycle
    /// between filling at their access rate and idling on a full buffer.
    pub access_median_bps: f64,
    /// Log-scale sigma of the access-line limit distribution.
    pub access_sigma: f64,
    /// Client playback buffer target in seconds of video.
    pub max_buffer_s: f64,
    /// Seconds of video required to start playback.
    pub startup_buffer_s: f64,
    /// Seconds of video required to resume after a rebuffer.
    pub resume_buffer_s: f64,
    /// Mean video watch duration in seconds.
    pub mean_watch_s: f64,
    /// Mean user patience for startup in seconds (cancelled starts).
    pub mean_patience_s: f64,
    /// ABR safety factor: pick the highest rung ≤ factor × estimate.
    pub abr_safety: f64,
    /// Chunk length in seconds of video (ABR decision interval).
    pub chunk_s: f64,
    /// Log-scale sigma of per-chunk throughput noise (last-mile and
    /// cross-traffic variability; also drives rebuffer incidence).
    pub throughput_noise_sigma: f64,
    /// Baseline loss fraction on the rest of the path (volume-
    /// proportional retransmissions).
    pub loss_floor: f64,
    /// Fraction of shed (overload) demand that manifests as
    /// retransmissions: TCP backs off instead of blasting, so the
    /// realized loss rate is far below the shed fraction.
    pub loss_to_retx: f64,
    /// Volume-independent retransmitted bytes per active second
    /// (connection upkeep, tail losses): this is what makes the
    /// *percentage* of retransmitted bytes rise when capping shrinks the
    /// denominator off-peak (§4.3, Figure 9).
    pub fixed_retx_bytes_per_s: f64,
    /// Probability per chunk of a "difficulty dip" (a transient
    /// throughput collapse from content/CDN effects) — the driver of
    /// rebuffers that is unrelated to this link's congestion.
    pub dip_prob: f64,
    /// Multiplier (>1 worsens) on the dip probability, per link —
    /// models the link-1 content-mix quirk of §4.1 with negligible
    /// impact on mean throughput.
    pub rebuffer_bias: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            capacity_bps: 1e9,
            base_rtt_s: 0.020,
            queue_capacity_s: 0.025,
            dt_s: 1.0,
            days: 5,
            peak_arrivals_per_s: 0.24,
            ladder_bps: vec![
                235e3, 375e3, 560e3, 750e3, 1_050e3, 1_750e3, 2_350e3, 3_000e3, 4_300e3, 5_800e3,
            ],
            cap_bps: 1_750e3,
            session_max_bps: 25e6,
            access_median_bps: 5e6,
            access_sigma: 0.5,
            max_buffer_s: 120.0,
            startup_buffer_s: 4.0,
            resume_buffer_s: 4.0,
            mean_watch_s: 1500.0,
            mean_patience_s: 20.0,
            abr_safety: 0.8,
            chunk_s: 4.0,
            throughput_noise_sigma: 0.30,
            loss_floor: 0.002,
            loss_to_retx: 0.06,
            fixed_retx_bytes_per_s: 1500.0,
            dip_prob: 0.005,
            rebuffer_bias: 1.0,
        }
    }
}

impl StreamConfig {
    /// Validate all fields. Every `f64` must be finite: NaN fails every
    /// range check below, and so does infinity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        let non_negative = |v: f64| v >= 0.0 && v.is_finite();
        require(positive(self.capacity_bps), "capacity_bps")?;
        require(positive(self.base_rtt_s), "base_rtt_s")?;
        require(non_negative(self.queue_capacity_s), "queue_capacity_s")?;
        require(positive(self.dt_s), "dt_s")?;
        require(self.days > 0, "days")?;
        require(positive(self.peak_arrivals_per_s), "peak_arrivals_per_s")?;
        let ladder = &self.ladder_bps;
        require(
            ladder.first().is_some_and(|r| r.is_finite())
                && ladder.last().is_some_and(|r| r.is_finite())
                && ladder.windows(2).all(|w| w[0] < w[1]),
            "ladder_bps",
        )?;
        require(positive(self.cap_bps), "cap_bps")?;
        require(positive(self.session_max_bps), "session_max_bps")?;
        require(positive(self.access_median_bps), "access_median_bps")?;
        require(non_negative(self.access_sigma), "access_sigma")?;
        require(positive(self.max_buffer_s), "max_buffer_s")?;
        require(positive(self.startup_buffer_s), "startup_buffer_s")?;
        require(non_negative(self.resume_buffer_s), "resume_buffer_s")?;
        require(positive(self.mean_watch_s), "mean_watch_s")?;
        require(positive(self.mean_patience_s), "mean_patience_s")?;
        require(positive(self.abr_safety), "abr_safety")?;
        require(positive(self.chunk_s), "chunk_s")?;
        require(
            non_negative(self.throughput_noise_sigma),
            "throughput_noise_sigma",
        )?;
        require((0.0..0.5).contains(&self.loss_floor), "loss_floor")?;
        require((0.0..=1.0).contains(&self.loss_to_retx), "loss_to_retx")?;
        require(
            non_negative(self.fixed_retx_bytes_per_s),
            "fixed_retx_bytes_per_s",
        )?;
        require((0.0..1.0).contains(&self.dip_prob), "dip_prob")?;
        require(positive(self.rebuffer_bias), "rebuffer_bias")
    }

    /// Total simulated seconds.
    pub(crate) fn horizon_s(&self) -> f64 {
        self.days as f64 * 86_400.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_fields() {
        let c = StreamConfig {
            capacity_bps: 0.0,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError {
                field: "capacity_bps"
            })
        );

        let c = StreamConfig {
            days: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError { field: "days" }));

        // Ladder must be ascending.
        let c = StreamConfig {
            ladder_bps: vec![2e6, 1e6],
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError {
                field: "ladder_bps"
            })
        );

        let c = StreamConfig {
            loss_floor: 0.9,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError {
                field: "loss_floor"
            })
        );
    }

    #[test]
    fn rejects_non_finite_floats() {
        type Field = fn(&mut StreamConfig) -> &mut f64;
        let fields: [(&str, Field); 22] = [
            ("capacity_bps", |c| &mut c.capacity_bps),
            ("base_rtt_s", |c| &mut c.base_rtt_s),
            ("queue_capacity_s", |c| &mut c.queue_capacity_s),
            ("dt_s", |c| &mut c.dt_s),
            ("peak_arrivals_per_s", |c| &mut c.peak_arrivals_per_s),
            ("cap_bps", |c| &mut c.cap_bps),
            ("session_max_bps", |c| &mut c.session_max_bps),
            ("access_median_bps", |c| &mut c.access_median_bps),
            ("access_sigma", |c| &mut c.access_sigma),
            ("max_buffer_s", |c| &mut c.max_buffer_s),
            ("startup_buffer_s", |c| &mut c.startup_buffer_s),
            ("resume_buffer_s", |c| &mut c.resume_buffer_s),
            ("mean_watch_s", |c| &mut c.mean_watch_s),
            ("mean_patience_s", |c| &mut c.mean_patience_s),
            ("abr_safety", |c| &mut c.abr_safety),
            ("chunk_s", |c| &mut c.chunk_s),
            ("throughput_noise_sigma", |c| &mut c.throughput_noise_sigma),
            ("loss_floor", |c| &mut c.loss_floor),
            ("loss_to_retx", |c| &mut c.loss_to_retx),
            ("fixed_retx_bytes_per_s", |c| &mut c.fixed_retx_bytes_per_s),
            ("dip_prob", |c| &mut c.dip_prob),
            ("rebuffer_bias", |c| &mut c.rebuffer_bias),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut c = StreamConfig::default();
                *field(&mut c) = bad;
                assert_eq!(
                    c.validate(),
                    Err(ConfigError { field: name }),
                    "{name} = {bad}"
                );
            }
        }
        let mut c = StreamConfig::default();
        c.ladder_bps.push(f64::INFINITY);
        assert_eq!(
            c.validate(),
            Err(ConfigError {
                field: "ladder_bps"
            })
        );
    }

    #[test]
    fn horizon_math() {
        let c = StreamConfig {
            days: 5,
            ..Default::default()
        };
        assert_eq!(c.horizon_s(), 432_000.0);
    }
}
