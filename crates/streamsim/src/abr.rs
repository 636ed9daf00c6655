//! Adaptive-bitrate selection and perceptual quality.

use crate::config::{ABR_SAFETY, CAP_BPS, LADDER_BPS};

/// Number of [`LADDER_BPS`] rungs a session may pick from: the prefix at
/// or below [`CAP_BPS`] for a treated (capped) session — the ladder
/// ascends, so a cap truncates it to a prefix — and the whole ladder
/// otherwise.
pub(crate) fn permitted_rungs(treated: bool) -> usize {
    if treated {
        LADDER_BPS.partition_point(|&r| r <= CAP_BPS)
    } else {
        LADDER_BPS.len()
    }
}

/// Throughput-based selection: the highest of the first `permitted`
/// rungs not exceeding [`ABR_SAFETY`] × `throughput_est_bps`, falling
/// back to the lowest rung — a session must stream something even when
/// the budget affords no rung, or the cap sits below the whole ladder.
///
/// Runs once per chunk for every active session, so it is a single
/// reverse scan (estimates usually land in the upper half of the
/// ladder) over a prefix each session computes once.
#[inline]
pub(crate) fn select(permitted: usize, throughput_est_bps: f64) -> f64 {
    let budget = throughput_est_bps * ABR_SAFETY;
    for &r in LADDER_BPS[..permitted].iter().rev() {
        if r <= budget {
            return r;
        }
    }
    LADDER_BPS[0]
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

    #[test]
    fn selects_highest_affordable() {
        let all = permitted_rungs(false);
        assert_eq!(select(all, 10e6), 5_800e3);
        assert_eq!(select(all, 4e6), 3_000e3); // 3.2M budget
        assert_eq!(select(all, 1e6), 750e3);
    }

    #[test]
    fn falls_back_to_lowest() {
        assert_eq!(select(permitted_rungs(false), 100e3), 235e3);
        assert_eq!(select(0, 10e6), 235e3);
    }

    #[test]
    fn cap_truncates_ladder() {
        let capped = permitted_rungs(true);
        assert_eq!(LADDER_BPS[capped - 1], CAP_BPS);
        assert_eq!(select(capped, 10e6), 1_750e3);
        assert_eq!(select(capped, 1e6), 750e3);
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
