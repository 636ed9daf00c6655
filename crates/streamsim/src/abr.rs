//! Adaptive-bitrate selection and perceptual quality.

/// The bitrate ladder plus the capping treatment.
#[derive(Debug, Clone)]
pub struct Ladder {
    rates: Vec<f64>,
}

impl Ladder {
    /// Build from ascending rates in bits/second.
    pub fn new(rates: Vec<f64>) -> Ladder {
        debug_assert!(rates.windows(2).all(|w| w[0] < w[1]), "ladder must ascend");
        Ladder { rates }
    }

    /// Lowest rung.
    pub(crate) fn min_rate(&self) -> f64 {
        self.rates[0]
    }

    /// The rungs, ascending.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of rungs of the ascending `rates` at or below `ceiling` —
    /// the permitted prefix for a capped session (the ladder ascends, so
    /// a cap truncates to a prefix).
    pub(crate) fn permitted_rungs_in(rates: &[f64], ceiling: f64) -> usize {
        rates.partition_point(|&r| r <= ceiling)
    }

    /// [`Ladder::select`] restricted to the first `permitted` rungs:
    /// with `permitted = permitted_rungs_in(rates, cap)` this returns exactly
    /// `select(est, safety, Some(cap))`, but sessions with a constant
    /// cap can precompute the prefix once and skip the per-rung ceiling
    /// comparisons (and the dead rungs above the cap) on every chunk.
    #[inline]
    pub(crate) fn select_from_top(
        &self,
        permitted: usize,
        throughput_est_bps: f64,
        safety: f64,
    ) -> f64 {
        let budget = throughput_est_bps * safety;
        for &r in self.rates[..permitted].iter().rev() {
            if r <= budget {
                return r;
            }
        }
        // Must stream something: the lowest permitted rung, or the
        // ladder floor when the cap sits below the whole ladder.
        self.rates[0]
    }

    /// Throughput-based selection: the highest rung not exceeding
    /// `safety × estimate`, truncated at `cap` when the session is
    /// bitrate-capped. Falls back to the lowest rung.
    ///
    /// Runs once per chunk for every active session, so it is written
    /// as a single reverse scan (estimates usually land in the upper
    /// half of the ladder) instead of a filter/rfind chain.
    #[inline]
    pub(crate) fn select(&self, throughput_est_bps: f64, safety: f64, cap: Option<f64>) -> f64 {
        let budget = throughput_est_bps * safety;
        let ceiling = cap.unwrap_or(f64::INFINITY);
        let mut fallback = None;
        for &r in self.rates.iter().rev() {
            if r <= ceiling {
                if r <= budget {
                    return r; // highest rung within cap and budget
                }
                // Tracks the lowest capped rung seen so far: must stream
                // something even when the budget affords no rung.
                fallback = Some(r);
            }
        }
        fallback.unwrap_or(self.min_rate())
    }
}

/// Perceptual quality on a 0–100 scale, concave in bitrate (VMAF-like
/// saturating curve): `q = 100 · b/(b + b_half)`.
pub(crate) fn perceptual_quality(bitrate_bps: f64) -> f64 {
    const B_HALF: f64 = 900e3;
    100.0 * bitrate_bps / (bitrate_bps + B_HALF)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Ladder {
        Ladder::new(vec![235e3, 750e3, 1_750e3, 3_000e3, 5_800e3])
    }

    #[test]
    fn selects_highest_affordable() {
        let l = ladder();
        assert_eq!(l.select(10e6, 0.8, None), 5_800e3);
        assert_eq!(l.select(4e6, 0.8, None), 3_000e3); // 3.2M budget
        assert_eq!(l.select(1e6, 0.8, None), 750e3);
    }

    #[test]
    fn falls_back_to_lowest() {
        let l = ladder();
        assert_eq!(l.select(100e3, 0.8, None), 235e3);
    }

    #[test]
    fn cap_truncates_ladder() {
        let l = ladder();
        assert_eq!(l.select(10e6, 0.8, Some(1_750e3)), 1_750e3);
        assert_eq!(l.select(1e6, 0.8, Some(1_750e3)), 750e3);
        // Cap below the whole ladder still returns something playable.
        assert_eq!(l.select(10e6, 0.8, Some(100e3)), 235e3);
    }

    #[test]
    fn quality_concave_and_bounded() {
        let q1 = perceptual_quality(235e3);
        let q2 = perceptual_quality(1_750e3);
        let q3 = perceptual_quality(5_800e3);
        assert!(q1 < q2 && q2 < q3);
        assert!(q3 < 100.0);
        // Diminishing returns: the second step gains less per bit.
        let gain_low = (q2 - q1) / (1_750e3 - 235e3);
        let gain_high = (q3 - q2) / (5_800e3 - 1_750e3);
        assert!(gain_low > gain_high);
    }

    #[test]
    fn capping_costs_quality_but_less_than_proportional() {
        // 1750 kb/s vs 5800 kb/s: ~3.3x the bits, but quality drops by
        // far less than 3.3x — the premise of the capping program.
        let q_cap = perceptual_quality(1_750e3);
        let q_full = perceptual_quality(5_800e3);
        assert!(q_cap / q_full > 0.6);
    }
}
