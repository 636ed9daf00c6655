//! Configuration for the streaming simulation.

use dessim::{require, ConfigError};

/// Bitrate ladder in bits/second, ascending.
pub const LADDER_BPS: [f64; 10] = [
    235e3, 375e3, 560e3, 750e3, 1_050e3, 1_750e3, 2_350e3, 3_000e3, 4_300e3, 5_800e3,
];
/// Cap applied to treated (bitrate-capped) sessions, bits/second: they
/// pick from the ladder prefix at or below it (§4).
pub const CAP_BPS: f64 = 1_750e3;
/// Hard per-session transport ceiling (server/TCP limit), bits/second.
pub const SESSION_MAX_BPS: f64 = 25e6;
/// Client playback buffer target in seconds of video.
pub const MAX_BUFFER_S: f64 = 120.0;
/// Seconds of video required to start playback.
pub const STARTUP_BUFFER_S: f64 = 4.0;
/// Seconds of video required to resume after a rebuffer.
pub const RESUME_BUFFER_S: f64 = 4.0;
/// ABR safety factor: pick the highest rung ≤ factor × estimate.
pub const ABR_SAFETY: f64 = 0.8;
/// Chunk length in seconds of video (ABR decision interval).
pub const CHUNK_S: f64 = 4.0;
/// Log-scale sigma of per-chunk throughput noise (last-mile and
/// cross-traffic variability; also drives rebuffer incidence).
pub const THROUGHPUT_NOISE_SIGMA: f64 = 0.30;
/// Baseline loss fraction on the rest of the path (volume-proportional
/// retransmissions).
pub const LOSS_FLOOR: f64 = 0.002;
/// Fraction of shed (overload) demand that manifests as
/// retransmissions: TCP backs off instead of blasting, so the realized
/// loss rate is far below the shed fraction.
pub const LOSS_TO_RETX: f64 = 0.06;
/// Volume-independent retransmitted bytes per active second (connection
/// upkeep, tail losses): this is what makes the *percentage* of
/// retransmitted bytes rise when capping shrinks the denominator
/// off-peak (§4.3, Figure 9).
pub const FIXED_RETX_BYTES_PER_S: f64 = 1500.0;
/// Probability per chunk of a "difficulty dip" (a transient throughput
/// collapse from content/CDN effects) — the driver of rebuffers that is
/// unrelated to this link's congestion. Scaled per link by
/// [`StreamConfig::rebuffer_bias`] and capped at one half
/// (`StreamConfig::dip_prob`).
pub const DIP_PROB: f64 = 0.005;

// The model constants are checked here, at compile time, instead of by
// `validate` at run time.
const _: () = {
    let mut i = 1;
    while i < LADDER_BPS.len() {
        assert!(LADDER_BPS[i - 1] < LADDER_BPS[i], "ladder must ascend");
        i += 1;
    }
    // The access line is clamped to [1.5 × lowest rung, ceiling].
    assert!(LADDER_BPS[0] * 1.5 <= SESSION_MAX_BPS);
    assert!(CAP_BPS > 0.0 && ABR_SAFETY > 0.0 && CHUNK_S > 0.0);
    assert!(MAX_BUFFER_S > 0.0 && STARTUP_BUFFER_S > 0.0 && RESUME_BUFFER_S >= 0.0);
    assert!(THROUGHPUT_NOISE_SIGMA >= 0.0 && FIXED_RETX_BYTES_PER_S >= 0.0);
    assert!(LOSS_FLOOR >= 0.0 && LOSS_FLOOR < 0.5);
    assert!(LOSS_TO_RETX >= 0.0 && LOSS_TO_RETX <= 1.0);
    assert!(DIP_PROB >= 0.0 && DIP_PROB < 1.0);
};

/// The tunables of one streaming-link world: the link, the demand and
/// the user population. The client and path model (ladder, cap,
/// buffers, ABR, noise, loss) is fixed by the constants above.
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
    /// Median of the per-session access-line limit (last mile), bits/s.
    /// Offered load scales with video bitrate because sessions duty-cycle
    /// between filling at their access rate and idling on a full buffer.
    pub access_median_bps: f64,
    /// Log-scale sigma of the access-line limit distribution.
    pub access_sigma: f64,
    /// Mean video watch duration in seconds.
    pub mean_watch_s: f64,
    /// Mean user patience for startup in seconds (cancelled starts).
    pub mean_patience_s: f64,
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
            access_median_bps: 5e6,
            access_sigma: 0.5,
            mean_watch_s: 1500.0,
            mean_patience_s: 20.0,
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
        require(positive(self.access_median_bps), "access_median_bps")?;
        require(non_negative(self.access_sigma), "access_sigma")?;
        require(positive(self.mean_watch_s), "mean_watch_s")?;
        require(positive(self.mean_patience_s), "mean_patience_s")?;
        require(positive(self.rebuffer_bias), "rebuffer_bias")
    }

    /// Per-chunk dip probability on this link: [`DIP_PROB`] scaled by
    /// the link's rebuffer bias, at most one half.
    pub(crate) fn dip_prob(&self) -> f64 {
        (DIP_PROB * self.rebuffer_bias).min(0.5)
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

        let c = StreamConfig {
            rebuffer_bias: 0.0,
            ..Default::default()
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError {
                field: "rebuffer_bias"
            })
        );
    }

    #[test]
    fn rejects_non_finite_floats() {
        type Field = fn(&mut StreamConfig) -> &mut f64;
        let fields: [(&str, Field); 10] = [
            ("capacity_bps", |c| &mut c.capacity_bps),
            ("base_rtt_s", |c| &mut c.base_rtt_s),
            ("queue_capacity_s", |c| &mut c.queue_capacity_s),
            ("dt_s", |c| &mut c.dt_s),
            ("peak_arrivals_per_s", |c| &mut c.peak_arrivals_per_s),
            ("access_median_bps", |c| &mut c.access_median_bps),
            ("access_sigma", |c| &mut c.access_sigma),
            ("mean_watch_s", |c| &mut c.mean_watch_s),
            ("mean_patience_s", |c| &mut c.mean_patience_s),
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
    }

    #[test]
    fn dip_prob_scales_with_bias_up_to_one_half() {
        assert_eq!(StreamConfig::default().dip_prob(), DIP_PROB);
        let biased = StreamConfig {
            rebuffer_bias: 1.3,
            ..Default::default()
        };
        assert_eq!(biased.dip_prob(), DIP_PROB * 1.3);
        let extreme = StreamConfig {
            rebuffer_bias: 1e6,
            ..Default::default()
        };
        assert_eq!(extreme.dip_prob(), 0.5);
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
