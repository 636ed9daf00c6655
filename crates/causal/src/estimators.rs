//! Estimators: statistics computed from one realized experiment.

use crate::assignment::Assignment;
use expstats::{diff_in_means, mean, mean_ci, DiffEstimate, Result, StatsError};

/// The naïve A/B estimator `τ̂(p) = μ̂_T(p) − μ̂_C(p)`: difference in
/// means between treated and control units, with a Welch confidence
/// interval at `level`.
///
/// This estimator is unbiased for `τ(p)` — the paper's point is that
/// `τ(p)` itself is a misleading proxy for the TTE under interference,
/// not that the estimator is computed wrongly.
pub fn naive_ab(outcomes: &[f64], assignment: &Assignment, level: f64) -> Result<DiffEstimate> {
    if outcomes.len() != assignment.len() {
        return Err(StatsError::DimensionMismatch {
            context: "naive_ab: outcomes and assignment lengths differ",
        });
    }
    let treated: Vec<f64> = assignment
        .treated()
        .into_iter()
        .map(|i| outcomes[i])
        .collect();
    let control: Vec<f64> = assignment
        .control()
        .into_iter()
        .map(|i| outcomes[i])
        .collect();
    diff_in_means(&treated, &control, level)
}

/// Mean outcome of each arm: `(μ̂_T, μ̂_C)`.
pub fn arm_means(outcomes: &[f64], assignment: &Assignment) -> Result<(f64, f64)> {
    if outcomes.len() != assignment.len() {
        return Err(StatsError::DimensionMismatch {
            context: "arm_means: outcomes and assignment lengths differ",
        });
    }
    let t = assignment.treated();
    let c = assignment.control();
    if t.is_empty() || c.is_empty() {
        return Err(StatsError::TooFewObservations {
            got: t.len().min(c.len()),
            need: 1,
        });
    }
    let mt = t.iter().map(|&i| outcomes[i]).sum::<f64>() / t.len() as f64;
    let mc = c.iter().map(|&i| outcomes[i]).sum::<f64>() / c.len() as f64;
    Ok((mt, mc))
}

/// One cluster's realized outcomes, split by arm. The fleet analysis
/// builds one cell per link; either arm may be empty (a link-level
/// design leaves control links with almost no treated sessions).
#[derive(Debug, Clone, Default)]
pub struct ClusterCell {
    /// Outcomes of treated units in the cluster.
    pub treated: Vec<f64>,
    /// Outcomes of control units in the cluster.
    pub control: Vec<f64>,
}

impl ClusterCell {
    /// Mean outcome over both arms, or `None` for an empty cluster.
    pub(crate) fn overall_mean(&self) -> Option<f64> {
        let n = self.treated.len() + self.control.len();
        if n == 0 {
            return None;
        }
        let sum: f64 = self.treated.iter().chain(&self.control).sum();
        Some(sum / n as f64)
    }

    /// Whether the cluster is mostly treated (strictly more treated than
    /// control units) — the cluster-arm proxy the between contrast uses.
    pub(crate) fn mostly_treated(&self) -> bool {
        self.treated.len() > self.control.len()
    }
}

/// The between/within-cluster decomposition of a treatment effect.
///
/// Under congestion interference the two components answer different
/// questions. The **within** component averages each cluster's internal
/// treated−control contrast — what unit-level randomization estimates,
/// and what interference biases, because control units in a treated
/// cluster absorb spillover. The **between** component contrasts
/// mostly-treated clusters' overall means against mostly-control
/// clusters' — what link-level (cluster) randomization estimates, which
/// includes the spillover inside each cluster and therefore tracks the
/// total treatment effect. Comparing the two is the fleet diagnostic:
/// when they diverge, unit-level randomization is lying.
#[derive(Debug, Clone)]
pub struct BetweenWithin {
    /// Equal-weighted mean of within-cluster contrasts across clusters
    /// holding both arms, with a Student-t CI over clusters. `None` when
    /// fewer than two clusters hold both arms.
    pub within: Option<DiffEstimate>,
    /// Difference of cluster overall means, mostly-treated minus
    /// mostly-control, Welch CI over clusters. `None` when either side
    /// has fewer than two clusters.
    pub between: Option<DiffEstimate>,
    /// Clusters contributing within-cluster contrasts.
    pub n_within: usize,
    /// Clusters on the (mostly-treated, mostly-control) sides.
    pub n_between: (usize, usize),
}

/// Decompose a clustered experiment's effect into its between- and
/// within-cluster components (see [`BetweenWithin`]). `level` is the
/// confidence level for both intervals.
pub fn between_within(cells: &[ClusterCell], level: f64) -> Result<BetweenWithin> {
    if cells.is_empty() {
        return Err(StatsError::TooFewObservations { got: 0, need: 1 });
    }
    // Within: one contrast per cluster that realized both arms.
    let contrasts: Vec<f64> = cells
        .iter()
        .filter(|c| !c.treated.is_empty() && !c.control.is_empty())
        .map(|c| mean(&c.treated) - mean(&c.control))
        .collect();
    let n_within = contrasts.len();
    let within = mean_ci(&contrasts, level).ok();
    // Between: cluster overall means by majority arm.
    let mut t_means = Vec::new();
    let mut c_means = Vec::new();
    for cell in cells {
        if let Some(m) = cell.overall_mean() {
            if cell.mostly_treated() {
                t_means.push(m);
            } else {
                c_means.push(m);
            }
        }
    }
    let n_between = (t_means.len(), c_means.len());
    let between = diff_in_means(&t_means, &c_means, level).ok();
    Ok(BetweenWithin {
        within,
        between,
        n_within,
        n_between,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{FairShare, NoInterference, PotentialOutcomes};

    fn realize(model: &impl PotentialOutcomes, assignment: &Assignment) -> Vec<f64> {
        (0..model.n())
            .map(|i| model.outcome(i, assignment))
            .collect()
    }

    #[test]
    fn naive_ab_unbiased_without_interference() {
        // Average the estimator over many assignments: must converge to
        // the true effect when SUTVA holds.
        let baselines: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let model = NoInterference {
            baselines,
            effect: 2.5,
        };
        let mut sum = 0.0;
        let reps = 300;
        for seed in 0..reps {
            let a = Assignment::bernoulli(model.n(), 0.3, seed);
            let y = realize(&model, &a);
            sum += naive_ab(&y, &a, 0.95).unwrap().estimate;
        }
        let avg = sum / reps as f64;
        assert!((avg - 2.5).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn naive_ab_biased_for_tte_under_fair_share() {
        // FairShare: true TTE = 0, but the A/B estimate is ~+100% of the
        // control mean at every allocation.
        let model = FairShare {
            n: 100,
            capacity: 100.0,
            weight_treated: 2.0,
            weight_control: 1.0,
        };
        let a = Assignment::complete(100, 10, 7);
        let y = realize(&model, &a);
        let est = naive_ab(&y, &a, 0.95).unwrap();
        let (_, mc) = arm_means(&y, &a).unwrap();
        let rel = est.estimate / mc;
        assert!((rel - 1.0).abs() < 1e-9, "A/B sees +100%: {rel}");
        assert!(model.true_tte().abs() < 1e-9, "but the truth is zero");
    }

    #[test]
    fn input_validation() {
        let a = Assignment::bernoulli(10, 0.5, 1);
        assert!(naive_ab(&[1.0; 9], &a, 0.95).is_err());
        let all_t = Assignment::from_vec(vec![true; 10]);
        assert!(arm_means(&[1.0; 10], &all_t).is_err());
    }

    /// Build a cluster cell from constant arms plus deterministic jitter.
    fn cell(t_mean: f64, n_t: usize, c_mean: f64, n_c: usize) -> ClusterCell {
        let jitter = |m: f64, n: usize| -> Vec<f64> {
            (0..n).map(|i| m + ((i % 3) as f64 - 1.0) * 0.01).collect()
        };
        ClusterCell {
            treated: jitter(t_mean, n_t),
            control: jitter(c_mean, n_c),
        }
    }

    #[test]
    fn between_within_separates_direct_and_spillover_components() {
        // A synthetic interference pattern: within every cluster treated
        // units beat control by exactly 1.0, but treated-majority
        // clusters are lifted wholesale by 5.0 (the spillover raises
        // everyone). The within component must see ~1.0, the between
        // component ~5.0 + composition.
        let mut cells = Vec::new();
        for g in 0..8 {
            let lifted = g % 2 == 0;
            let base = if lifted { 15.0 } else { 10.0 };
            let (n_t, n_c) = if lifted { (95, 5) } else { (5, 95) };
            cells.push(cell(base + 1.0, n_t, base, n_c));
        }
        let bw = between_within(&cells, 0.95).unwrap();
        assert_eq!(bw.n_within, 8);
        assert_eq!(bw.n_between, (4, 4));
        let within = bw.within.unwrap();
        assert!(
            (within.estimate - 1.0).abs() < 0.05,
            "within {}",
            within.estimate
        );
        let between = bw.between.unwrap();
        // Treated-majority cluster mean ≈ 15 + 0.95; control-majority ≈ 10 + 0.05.
        assert!(
            (between.estimate - 5.9).abs() < 0.1,
            "between {}",
            between.estimate
        );
    }

    #[test]
    fn between_within_degenerate_sides_are_none_not_errors() {
        // All clusters mostly treated: no between contrast; only one
        // cluster with both arms: no within CI.
        let cells = vec![cell(2.0, 10, 1.0, 2), cell(3.0, 10, 0.0, 0)];
        let bw = between_within(&cells, 0.95).unwrap();
        assert!(bw.within.is_none());
        assert!(bw.between.is_none());
        assert_eq!(bw.n_within, 1);
        assert_eq!(bw.n_between, (2, 0));
        assert!(between_within(&[], 0.95).is_err());
    }
}
