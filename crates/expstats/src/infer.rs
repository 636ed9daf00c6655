//! Two-sample inference: the unit-level analysis used for naïve A/B test
//! estimates (difference in means with Welch standard errors).

use crate::accum::WelfordCell;
use crate::describe::{mean, variance};
use crate::dist::{t_cdf, t_critical};
use crate::{Result, StatsError};

/// A point estimate with standard error and confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEstimate {
    /// Point estimate (difference of means, or normalized effect).
    pub estimate: f64,
    /// Standard error of the estimate.
    pub se: f64,
    /// Two-sided confidence interval at the requested level.
    pub ci: (f64, f64),
    /// Degrees of freedom used for the interval.
    pub dof: f64,
}

impl DiffEstimate {
    /// Whether the confidence interval excludes zero.
    #[cfg(test)]
    fn significant(&self) -> bool {
        self.ci.0 > 0.0 || self.ci.1 < 0.0
    }

    /// Half the confidence-interval width (the "±" the time-series
    /// figures print next to each cross-seed mean).
    pub(crate) fn half_width(&self) -> f64 {
        (self.ci.1 - self.ci.0) / 2.0
    }

    /// Rescale estimate, SE and CI by a constant (used to express effects
    /// relative to a global control mean, as the paper normalizes).
    pub fn scaled(&self, factor: f64) -> DiffEstimate {
        let (lo, hi) = (self.ci.0 * factor, self.ci.1 * factor);
        DiffEstimate {
            estimate: self.estimate * factor,
            se: self.se * factor.abs(),
            ci: if factor >= 0.0 { (lo, hi) } else { (hi, lo) },
            dof: self.dof,
        }
    }
}

/// Welch two-sample comparison: difference in means with unequal-variance
/// standard errors and Welch–Satterthwaite degrees of freedom.
pub fn diff_in_means(treat: &[f64], control: &[f64], level: f64) -> Result<DiffEstimate> {
    diff_in_means_moments(
        treat.len(),
        mean(treat),
        variance(treat),
        control.len(),
        mean(control),
        variance(control),
        level,
    )
}

/// Welch comparison from summary moments `(n, mean, variance)` of each
/// sample — the streaming-path entry point. [`diff_in_means`] delegates
/// here, so both paths share the same formulas exactly.
pub(crate) fn diff_in_means_moments(
    n_t: usize,
    mean_t: f64,
    var_t: f64,
    n_c: usize,
    mean_c: f64,
    var_c: f64,
    level: f64,
) -> Result<DiffEstimate> {
    if n_t < 2 || n_c < 2 {
        return Err(StatsError::TooFewObservations {
            got: n_t.min(n_c),
            need: 2,
        });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(StatsError::InvalidParameter {
            context: "level must be in (0,1)",
        });
    }
    let (nt, nc) = (n_t as f64, n_c as f64);
    let (vt, vc) = (var_t, var_c);
    let est = mean_t - mean_c;
    let se2 = vt / nt + vc / nc;
    let se = se2.sqrt();
    // Welch–Satterthwaite.
    let dof = if se2 > 0.0 {
        se2 * se2 / ((vt / nt).powi(2) / (nt - 1.0) + (vc / nc).powi(2) / (nc - 1.0))
    } else {
        nt + nc - 2.0
    };
    let t = t_critical(level, dof.max(1.0));
    Ok(DiffEstimate {
        estimate: est,
        se,
        ci: (est - t * se, est + t * se),
        dof,
    })
}

/// Welch comparison between two streaming [`WelfordCell`]s.
pub fn diff_in_means_cells(
    treat: &WelfordCell,
    control: &WelfordCell,
    level: f64,
) -> Result<DiffEstimate> {
    diff_in_means_moments(
        treat.n as usize,
        treat.mean,
        treat.variance(),
        control.n as usize,
        control.mean,
        control.variance(),
        level,
    )
}

/// Result of a hypothesis test.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResult {
    /// Test statistic.
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Degrees of freedom.
    pub dof: f64,
}

/// Welch's t-test for equality of means.
pub fn welch_t_test(treat: &[f64], control: &[f64]) -> Result<TestResult> {
    let d = diff_in_means(treat, control, 0.95)?;
    if d.se == 0.0 {
        return Err(StatsError::InvalidParameter {
            context: "welch_t_test: zero variance",
        });
    }
    let t = d.estimate / d.se;
    let p = 2.0 * (1.0 - t_cdf(t.abs(), d.dof));
    Ok(TestResult {
        statistic: t,
        p_value: p.clamp(0.0, 1.0),
        dof: d.dof,
    })
}

/// Confidence interval for a single mean.
pub fn mean_ci(xs: &[f64], level: f64) -> Result<DiffEstimate> {
    if xs.len() < 2 {
        return Err(StatsError::TooFewObservations {
            got: xs.len(),
            need: 2,
        });
    }
    let m = mean(xs);
    let se = crate::describe::std_error(xs);
    let dof = (xs.len() - 1) as f64;
    let t = t_critical(level, dof);
    Ok(DiffEstimate {
        estimate: m,
        se,
        ci: (m - t * se, m + t * se),
        dof,
    })
}

/// Column-wise mean ± CI half-width across replicated series.
///
/// `rows` are per-replication series (e.g. one normalized hourly series
/// per seed); the result has one entry per column up to the longest
/// row. Non-finite entries and short rows are skipped column-wise; a
/// column with fewer than two finite values yields `(NaN, NaN)` instead
/// of failing the whole aggregation (figures render those as gaps).
pub fn columnwise_mean_ci(rows: &[Vec<f64>], level: f64) -> (Vec<f64>, Vec<f64>) {
    let len = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut means = Vec::with_capacity(len);
    let mut half_widths = Vec::with_capacity(len);
    for col in 0..len {
        let vals: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get(col).copied())
            .filter(|v| v.is_finite())
            .collect();
        match mean_ci(&vals, level) {
            Ok(d) => {
                means.push(d.estimate);
                half_widths.push(d.half_width());
            }
            Err(_) => {
                means.push(f64::NAN);
                half_widths.push(f64::NAN);
            }
        }
    }
    (means, half_widths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columnwise_ci_skips_nan_and_short_rows() {
        let rows = vec![
            vec![1.0, 10.0, 5.0],
            vec![3.0, f64::NAN, 5.0],
            vec![2.0, 14.0], // short row: no column-2 contribution
        ];
        let (means, hw) = columnwise_mean_ci(&rows, 0.95);
        assert_eq!(means.len(), 3);
        assert!((means[0] - 2.0).abs() < 1e-12);
        assert!((means[1] - 12.0).abs() < 1e-12);
        // Column 2 has two equal finite values: mean 5, zero width.
        assert!((means[2] - 5.0).abs() < 1e-12);
        assert!(hw[2].abs() < 1e-12);
        assert!(hw[0] > 0.0 && hw[1] > 0.0);
        // A column with < 2 finite values yields NaN, not an error.
        let (m, w) = columnwise_mean_ci(&[vec![1.0]], 0.95);
        assert!(m[0].is_nan() && w[0].is_nan());
        // Empty input: empty output.
        assert_eq!(columnwise_mean_ci(&[], 0.95), (vec![], vec![]));
    }

    #[test]
    fn half_width_matches_ci() {
        let d = mean_ci(&[1.0, 2.0, 3.0, 4.0], 0.95).unwrap();
        assert!((d.half_width() - (d.ci.1 - d.estimate)).abs() < 1e-12);
    }

    #[test]
    fn diff_detects_clear_separation() {
        let treat: Vec<f64> = (0..50).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        let control: Vec<f64> = (0..50).map(|i| 5.0 + (i % 5) as f64 * 0.1).collect();
        let d = diff_in_means(&treat, &control, 0.95).unwrap();
        assert!((d.estimate - 5.0).abs() < 1e-9);
        assert!(d.significant());
    }

    #[test]
    fn diff_null_not_significant() {
        let a: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| ((i + 3) % 7) as f64).collect();
        let d = diff_in_means(&a, &b, 0.95).unwrap();
        assert!(!d.significant(), "estimate {} ci {:?}", d.estimate, d.ci);
    }

    #[test]
    fn welch_p_value_extremes() {
        let a: Vec<f64> = (0..30).map(|i| 100.0 + (i % 3) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| (i % 3) as f64).collect();
        assert!(welch_t_test(&a, &b).unwrap().p_value < 1e-12);
        let c: Vec<f64> = (0..30).map(|i| (i % 3) as f64).collect();
        assert!(welch_t_test(&c, &b).unwrap().p_value > 0.99);
    }

    #[test]
    fn mean_ci_covers_sample_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ci = mean_ci(&xs, 0.95).unwrap();
        assert!((ci.estimate - 3.0).abs() < 1e-12);
        assert!(ci.ci.0 < 3.0 && 3.0 < ci.ci.1);
    }

    #[test]
    fn scaled_flips_interval_for_negative_factor() {
        let d = DiffEstimate {
            estimate: 2.0,
            se: 1.0,
            ci: (0.0, 4.0),
            dof: 10.0,
        };
        let s = d.scaled(-1.0);
        assert_eq!(s.estimate, -2.0);
        assert_eq!(s.ci, (-4.0, 0.0));
        assert!(s.ci.0 <= s.ci.1);
    }

    #[test]
    fn errors_on_tiny_samples() {
        assert!(diff_in_means(&[1.0], &[1.0, 2.0], 0.95).is_err());
        assert!(mean_ci(&[1.0], 0.95).is_err());
    }
}
