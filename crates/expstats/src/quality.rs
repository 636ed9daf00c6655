//! Data-quality tests for experiment pipelines.
//!
//! The first casualty of lossy telemetry is the *randomization itself*:
//! if records go missing as a function of the treatment (congestion-
//! correlated loss in a bitrate-capping experiment, say), the delivered
//! arm ratio drifts away from the allocated one, and every downstream
//! estimate is computed on a selected sample. The sample-ratio-mismatch
//! (SRM) test is the standard guardrail: a chi-square goodness-of-fit
//! test of observed arm counts against the allocation, which should
//! *never* fire under healthy collection — so a small p-value is
//! evidence the measurement, not the treatment, moved.

use crate::dist::chi2_sf;
use crate::{Result, StatsError};

/// Observed arm counts of one randomization cell (one link, one
/// stratum, or one whole experiment) plus its design allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrmCell {
    /// Delivered control-arm records.
    pub control: u64,
    /// Delivered treated-arm records.
    pub treated: u64,
    /// The treated share the design allocated, in `(0, 1)`. Cells at
    /// exactly 0 or 1 carry no ratio information (one arm is empty by
    /// construction) and are skipped by [`sample_ratio_mismatch`].
    pub expected_treated_share: f64,
}

impl SrmCell {
    /// Total delivered records in the cell.
    pub(crate) fn n(&self) -> u64 {
        self.control + self.treated
    }

    /// Whether the cell can contribute to an SRM statistic: a
    /// non-degenerate allocation and at least one delivered record.
    fn usable(&self) -> bool {
        self.n() > 0
            && self.expected_treated_share > 0.0
            && self.expected_treated_share < 1.0
            && self.expected_treated_share.is_finite()
    }
}

/// Outcome of a sample-ratio-mismatch test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrmTest {
    /// Summed chi-square statistic across usable cells.
    pub chi2: f64,
    /// Degrees of freedom (one per usable cell).
    pub df: f64,
    /// Upper-tail p-value: probability of a statistic at least this
    /// large under correct allocation.
    pub p_value: f64,
    /// Total records across usable cells.
    pub n: u64,
    /// Pooled delivered treated share across usable cells (diagnostic;
    /// the test itself is per-cell).
    pub observed_treated_share: f64,
    /// Pooled expected treated share (record-weighted mean of the cell
    /// allocations).
    pub expected_treated_share: f64,
}

impl SrmTest {
    /// Whether the mismatch is significant at `alpha` (an SRM guardrail
    /// conventionally uses a stringent threshold like `1e-3`: it should
    /// *never* fire on healthy data, so even weak evidence is alarming).
    pub fn fires(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Chi-square sample-ratio-mismatch test over one or more randomization
/// cells.
///
/// Each usable cell (see [`SrmCell`]) contributes a 1-df goodness-of-fit
/// term `Σ (obs − exp)² / exp` over its two arms; cells are summed, so
/// per-cell skews add up even when they point in the same direction
/// fleet-wide. Cells with a degenerate allocation (0 or 1) or no
/// delivered records are skipped.
///
/// Errors with [`StatsError::TooFewObservations`] when no usable cell
/// remains.
pub fn sample_ratio_mismatch(cells: &[SrmCell]) -> Result<SrmTest> {
    let mut chi2 = 0.0f64;
    let mut df = 0.0f64;
    let mut n = 0u64;
    let mut treated = 0u64;
    let mut expected_treated = 0.0f64;
    for cell in cells.iter().filter(|c| c.usable()) {
        let total = cell.n() as f64;
        let p = cell.expected_treated_share;
        let exp_t = total * p;
        let exp_c = total * (1.0 - p);
        let obs_t = cell.treated as f64;
        let obs_c = cell.control as f64;
        chi2 += (obs_t - exp_t).powi(2) / exp_t + (obs_c - exp_c).powi(2) / exp_c;
        df += 1.0;
        n += cell.n();
        treated += cell.treated;
        expected_treated += exp_t;
    }
    if df == 0.0 {
        return Err(StatsError::TooFewObservations { got: 0, need: 1 });
    }
    Ok(SrmTest {
        chi2,
        df,
        p_value: chi2_sf(chi2, df),
        n,
        observed_treated_share: treated as f64 / n as f64,
        expected_treated_share: expected_treated / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_cells_do_not_fire() {
        // Exactly on-allocation: statistic 0, p-value 1.
        let t = sample_ratio_mismatch(&[SrmCell {
            control: 5000,
            treated: 5000,
            expected_treated_share: 0.5,
        }])
        .unwrap();
        assert_eq!(t.chi2, 0.0);
        assert_eq!(t.p_value, 1.0);
        assert!(!t.fires(0.05));
        assert_eq!(t.n, 10_000);
        assert!((t.observed_treated_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn strong_mismatch_fires() {
        // 52/48 on 100k records at a 50/50 allocation: chi2 = 160.
        let t = sample_ratio_mismatch(&[SrmCell {
            control: 48_000,
            treated: 52_000,
            expected_treated_share: 0.5,
        }])
        .unwrap();
        assert!((t.chi2 - 160.0).abs() < 1e-9);
        assert!(t.fires(1e-3), "p = {}", t.p_value);
        assert!(t.p_value < 1e-30);
    }

    #[test]
    fn small_noise_does_not_fire() {
        // 50.2/49.8 on 10k records: chi2 = 0.16, entirely unremarkable.
        let t = sample_ratio_mismatch(&[SrmCell {
            control: 4_980,
            treated: 5_020,
            expected_treated_share: 0.5,
        }])
        .unwrap();
        assert!(t.p_value > 0.5, "p = {}", t.p_value);
    }

    #[test]
    fn cells_sum_and_df_accumulates() {
        let cell = SrmCell {
            control: 400,
            treated: 640,
            expected_treated_share: 0.6,
        };
        let one = sample_ratio_mismatch(&[cell]).unwrap();
        let two = sample_ratio_mismatch(&[cell, cell]).unwrap();
        assert!((two.chi2 - 2.0 * one.chi2).abs() < 1e-9);
        assert_eq!(two.df, 2.0);
        assert_eq!(two.n, 2 * one.n);
    }

    #[test]
    fn degenerate_cells_are_skipped() {
        let usable = SrmCell {
            control: 500,
            treated: 520,
            expected_treated_share: 0.5,
        };
        let all_treated = SrmCell {
            control: 0,
            treated: 1000,
            expected_treated_share: 1.0,
        };
        let empty = SrmCell {
            control: 0,
            treated: 0,
            expected_treated_share: 0.5,
        };
        let t = sample_ratio_mismatch(&[usable, all_treated, empty]).unwrap();
        assert_eq!(t.df, 1.0);
        assert_eq!(t.n, 1020);
        // Nothing usable at all: error, not NaN.
        assert!(sample_ratio_mismatch(&[all_treated, empty]).is_err());
        assert!(sample_ratio_mismatch(&[]).is_err());
    }

    #[test]
    fn chi2_matches_hand_computation() {
        // 30 treated / 70 control at an expected 40/60 split:
        // chi2 = (30-40)^2/40 + (70-60)^2/60 = 2.5 + 1.6667 = 4.1667.
        let t = sample_ratio_mismatch(&[SrmCell {
            control: 70,
            treated: 30,
            expected_treated_share: 0.4,
        }])
        .unwrap();
        assert!((t.chi2 - (2.5 + 5.0 / 3.0)).abs() < 1e-9);
        assert!((t.expected_treated_share - 0.4).abs() < 1e-12);
        assert!((t.observed_treated_share - 0.3).abs() < 1e-12);
    }
}
