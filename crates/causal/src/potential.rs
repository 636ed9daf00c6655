//! Potential-outcome models with closed-form interference.
//!
//! These models give *exact* ground truth for every estimand, so
//! estimators and experiment designs can be verified analytically. The
//! congestion models mirror the mechanisms of the paper's lab tests:
//! fair-share bandwidth splitting explains the parallel-connections
//! result (§3.1) exactly.

use crate::assignment::Assignment;

/// A joint model of potential outcomes `Y_i(A)` for `n` units.
pub trait PotentialOutcomes {
    /// Number of units.
    fn n(&self) -> usize;

    /// Outcome of unit `i` under the full assignment vector
    /// (interference is allowed: the outcome may depend on every entry).
    fn outcome(&self, unit: usize, assignment: &Assignment) -> f64;

    /// Average outcome over treated units (`NaN` if none).
    fn mean_treated(&self, assignment: &Assignment) -> f64 {
        let t = assignment.treated();
        if t.is_empty() {
            return f64::NAN;
        }
        t.iter().map(|&i| self.outcome(i, assignment)).sum::<f64>() / t.len() as f64
    }

    /// Average outcome over control units (`NaN` if none).
    fn mean_control(&self, assignment: &Assignment) -> f64 {
        let c = assignment.control();
        if c.is_empty() {
            return f64::NAN;
        }
        c.iter().map(|&i| self.outcome(i, assignment)).sum::<f64>() / c.len() as f64
    }

    /// The true total treatment effect `μ_T(1) − μ_C(0)` (exact: computed
    /// from the all-treated and all-control assignments).
    fn true_tte(&self) -> f64 {
        let all_t = Assignment::from_vec(vec![true; self.n()]);
        let all_c = Assignment::from_vec(vec![false; self.n()]);
        self.mean_treated(&all_t) - self.mean_control(&all_c)
    }
}

/// No interference: `Y_i(A) = baseline_i + effect · A_i` (SUTVA holds).
///
/// Under this model a naïve A/B test is unbiased for the TTE — the
/// assumption Figure 1a depicts.
#[derive(Debug, Clone)]
pub struct NoInterference {
    /// Per-unit baseline outcomes.
    pub baselines: Vec<f64>,
    /// Constant additive treatment effect.
    pub effect: f64,
}

impl PotentialOutcomes for NoInterference {
    fn n(&self) -> usize {
        self.baselines.len()
    }

    fn outcome(&self, unit: usize, assignment: &Assignment) -> f64 {
        self.baselines[unit]
            + if assignment.arm(unit) {
                self.effect
            } else {
                0.0
            }
    }
}

/// Fair-share congestion: `n` units split capacity `C` in proportion to
/// their weights; treatment changes a unit's weight.
///
/// With `weight_treated = 2`, `weight_control = 1` this is *exactly* the
/// parallel-connections experiment of §3.1: an application opening two
/// TCP connections gets twice the fair share, but the link capacity is
/// unchanged, so `TTE(throughput) = 0` while every A/B test shows +100%.
#[derive(Debug, Clone)]
pub struct FairShare {
    /// Number of units sharing the link.
    pub n: usize,
    /// Link capacity (same outcome units as the metric, e.g. bit/s).
    pub capacity: f64,
    /// Weight of a treated unit.
    pub weight_treated: f64,
    /// Weight of a control unit.
    pub weight_control: f64,
}

impl FairShare {
    fn total_weight(&self, assignment: &Assignment) -> f64 {
        let t = assignment.treated_count() as f64;
        let c = (self.n - assignment.treated_count()) as f64;
        t * self.weight_treated + c * self.weight_control
    }
}

impl PotentialOutcomes for FairShare {
    fn n(&self) -> usize {
        self.n
    }

    fn outcome(&self, unit: usize, assignment: &Assignment) -> f64 {
        let w = if assignment.arm(unit) {
            self.weight_treated
        } else {
            self.weight_control
        };
        self.capacity * w / self.total_weight(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_interference_tte_equals_effect() {
        let m = NoInterference {
            baselines: vec![1.0, 2.0, 3.0, 4.0],
            effect: 0.5,
        };
        assert!((m.true_tte() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fair_share_reproduces_parallel_connections_math() {
        // 10 apps, capacity C: with k treated (2 connections each),
        // treated get 2C/(10+k), control get C/(10+k).
        let m = FairShare {
            n: 10,
            capacity: 10.0,
            weight_treated: 2.0,
            weight_control: 1.0,
        };
        for k in 1..10 {
            let mut arms = vec![false; 10];
            for a in arms.iter_mut().take(k) {
                *a = true;
            }
            let assign = Assignment::from_vec(arms);
            let t = m.mean_treated(&assign);
            let c = m.mean_control(&assign);
            let denom = 10.0 + k as f64;
            assert!((t - 20.0 / denom).abs() < 1e-12, "k={k}");
            assert!((c - 10.0 / denom).abs() < 1e-12, "k={k}");
            // The A/B contrast is +100% at every allocation...
            assert!((t / c - 2.0).abs() < 1e-12);
        }
        // ...but the total treatment effect is zero.
        assert!(m.true_tte().abs() < 1e-12);
    }

    #[test]
    fn fair_share_spillover_is_negative() {
        // Treating 9 of 10 units lowers the control unit's share by 9/19
        // relative to the all-control world: 10/19 vs 1 per unit.
        let m = FairShare {
            n: 10,
            capacity: 10.0,
            weight_treated: 2.0,
            weight_control: 1.0,
        };
        let mut arms = vec![true; 10];
        arms[9] = false;
        let assign = Assignment::from_vec(arms);
        let spill = m.mean_control(&assign) - 1.0;
        assert!((spill - (10.0 / 19.0 - 1.0)).abs() < 1e-12);
        assert!(spill < 0.0);
    }
}
