//! SUTVA / interference diagnostics.
//!
//! §5.1 of the paper: during a gradual deployment with allocations
//! `p_1, p_2, …` one can check that the ATEs agree across allocations,
//! that partial effects match ATEs, and that spillovers are zero. "We can
//! use statistical tests to check each of these relationships. If they do
//! not hold, it could be a sign of congestion interference."

use expstats::dist::norm_cdf;
use expstats::infer::TestResult;
use expstats::ols::{DesignBuilder, Ols};
use expstats::{CovEstimator, DiffEstimate, Result, StatsError};

/// Two-sample z-test that two independent effect estimates are equal
/// (`τ(p_i) = τ(p_j)`).
pub(crate) fn test_effect_equality(a: &DiffEstimate, b: &DiffEstimate) -> Result<TestResult> {
    let se = (a.se * a.se + b.se * b.se).sqrt();
    if se == 0.0 {
        return Err(StatsError::InvalidParameter {
            context: "test_effect_equality: zero pooled standard error",
        });
    }
    let z = (a.estimate - b.estimate) / se;
    let p = 2.0 * (1.0 - norm_cdf(z.abs()));
    Ok(TestResult {
        statistic: z,
        p_value: p.clamp(0.0, 1.0),
        dof: f64::INFINITY,
    })
}

/// z-test that a spillover estimate is zero.
pub(crate) fn test_spillover_zero(s: &DiffEstimate) -> Result<TestResult> {
    if s.se == 0.0 {
        return Err(StatsError::InvalidParameter {
            context: "test_spillover_zero: zero standard error",
        });
    }
    let z = s.estimate / s.se;
    let p = 2.0 * (1.0 - norm_cdf(z.abs()));
    Ok(TestResult {
        statistic: z,
        p_value: p.clamp(0.0, 1.0),
        dof: f64::INFINITY,
    })
}

/// Trend test: regress per-allocation ATE estimates on the allocation
/// and test the slope (a sloped dose–response curve means the A/B
/// contrast depends on `p`, i.e. interference).
pub(crate) fn dose_response_trend(
    allocations: &[f64],
    ates: &[DiffEstimate],
) -> Result<TestResult> {
    if allocations.len() != ates.len() {
        return Err(StatsError::DimensionMismatch {
            context: "dose_response_trend: allocations and estimates differ in length",
        });
    }
    if allocations.len() < 3 {
        return Err(StatsError::TooFewObservations {
            got: allocations.len(),
            need: 3,
        });
    }
    let y: Vec<f64> = ates.iter().map(|a| a.estimate).collect();
    let x = DesignBuilder::new()
        .intercept(allocations.len())?
        .column(allocations)?
        .build()?;
    let fit = Ols::fit(x, &y)?;
    let t = fit.t_stat(1, CovEstimator::Hc1)?;
    let p = fit.p_value(1, CovEstimator::Hc1)?;
    Ok(TestResult {
        statistic: t,
        p_value: p,
        dof: fit.dof(),
    })
}

/// Summary verdict over a set of interference diagnostics.
#[derive(Debug, Clone)]
pub struct InterferenceReport {
    /// Pairwise ATE-equality tests between consecutive allocations.
    pub ate_equality: Vec<TestResult>,
    /// Spillover-zero tests per allocation (where estimable).
    pub spillover_zero: Vec<TestResult>,
    /// Trend test over the dose–response curve (if ≥ 3 allocations).
    pub trend: Option<TestResult>,
    /// Significance level used for the verdict.
    pub alpha: f64,
}

impl InterferenceReport {
    /// Build a report from gradual-deployment stage estimates.
    pub fn from_stages(
        allocations: &[f64],
        ates: &[DiffEstimate],
        spillovers: &[DiffEstimate],
        alpha: f64,
    ) -> Result<InterferenceReport> {
        if allocations.len() != ates.len() {
            return Err(StatsError::DimensionMismatch {
                context: "InterferenceReport: allocations vs ates",
            });
        }
        let mut ate_equality = Vec::new();
        for w in ates.windows(2) {
            ate_equality.push(test_effect_equality(&w[0], &w[1])?);
        }
        let mut spillover_zero = Vec::new();
        for s in spillovers {
            spillover_zero.push(test_spillover_zero(s)?);
        }
        let trend = if allocations.len() >= 3 {
            Some(dose_response_trend(allocations, ates)?)
        } else {
            None
        };
        Ok(InterferenceReport {
            ate_equality,
            spillover_zero,
            trend,
            alpha,
        })
    }

    /// Whether any diagnostic rejects its no-interference null at `alpha`.
    pub fn interference_detected(&self) -> bool {
        self.ate_equality.iter().any(|t| t.p_value < self.alpha)
            || self.spillover_zero.iter().any(|t| t.p_value < self.alpha)
            || self.trend.as_ref().is_some_and(|t| t.p_value < self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(e: f64, se: f64) -> DiffEstimate {
        DiffEstimate {
            estimate: e,
            se,
            ci: (e - 1.96 * se, e + 1.96 * se),
            dof: 100.0,
        }
    }

    #[test]
    fn equality_test_accepts_equal_effects() {
        let r = test_effect_equality(&est(1.0, 0.2), &est(1.1, 0.2)).unwrap();
        assert!(r.p_value > 0.5);
    }

    #[test]
    fn equality_test_rejects_different_effects() {
        let r = test_effect_equality(&est(1.0, 0.1), &est(2.0, 0.1)).unwrap();
        assert!(r.p_value < 0.001);
    }

    #[test]
    fn spillover_zero_test() {
        assert!(test_spillover_zero(&est(0.05, 0.2)).unwrap().p_value > 0.5);
        assert!(test_spillover_zero(&est(1.0, 0.1)).unwrap().p_value < 0.001);
    }

    #[test]
    fn trend_detects_sloped_dose_response() {
        let ps = [0.1f64, 0.3, 0.5, 0.7, 0.9];
        // ATE shrinks with allocation: strong interference signal.
        let ates: Vec<DiffEstimate> = ps
            .iter()
            .map(|&p| est(2.0 - 1.5 * p + 0.01 * (p * 37.0).sin(), 0.05))
            .collect();
        let r = dose_response_trend(&ps, &ates).unwrap();
        assert!(r.p_value < 0.01, "p {}", r.p_value);
        assert!(r.statistic < 0.0);
    }

    #[test]
    fn trend_flat_curve_not_significant() {
        let ps = [0.1f64, 0.3, 0.5, 0.7, 0.9];
        let noise = [0.03, -0.02, 0.01, -0.03, 0.02];
        let ates: Vec<DiffEstimate> = noise.iter().map(|&n| est(1.0 + n, 0.05)).collect();
        let r = dose_response_trend(&ps, &ates).unwrap();
        assert!(r.p_value > 0.05, "p {}", r.p_value);
    }

    #[test]
    fn report_aggregates_verdict() {
        let ps = [0.05, 0.5, 0.95];
        let flat = vec![est(1.0, 0.1), est(1.02, 0.1), est(0.99, 0.1)];
        let no_spill = vec![est(0.01, 0.1), est(-0.02, 0.1)];
        let rep = InterferenceReport::from_stages(&ps, &flat, &no_spill, 0.05).unwrap();
        assert!(!rep.interference_detected());

        let sloped = vec![est(1.0, 0.05), est(0.5, 0.05), est(0.0, 0.05)];
        let spill = vec![est(0.6, 0.05), est(1.2, 0.05)];
        let rep = InterferenceReport::from_stages(&ps, &sloped, &spill, 0.05).unwrap();
        assert!(rep.interference_detected());
    }

    #[test]
    fn input_validation() {
        assert!(dose_response_trend(&[0.1, 0.2], &[est(1.0, 0.1), est(1.0, 0.1)]).is_err());
        assert!(test_spillover_zero(&est(1.0, 0.0)).is_err());
    }
}
