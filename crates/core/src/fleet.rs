//! Fleet-level analysis: effect estimators over a
//! [`streamsim::fleet::FleetRun`].
//!
//! The single-pair analyses in [`crate::analysis`] assume the two-link
//! world of §4; this module generalizes them to a fleet of N links and
//! wires in the clustering machinery the fleet designs need:
//!
//! * [`user_level_effect`] — the pooled session-level contrast every
//!   naïve A/B test reports, but with **link-clustered standard errors**
//!   (`expstats::OlsFit::covariance_clustered`): sessions on one
//!   congested link share shocks, so iid SEs understate the noise;
//! * [`link_level_effect`] — the cluster-randomized estimator: treated
//!   sessions on treated links vs control sessions on control links,
//!   each link one observation, Welch CI across links;
//! * [`paired_effect`] — per-pair contrasts for the stratified paired
//!   design, averaged with a Student-t CI over pairs;
//! * [`fleet_between_within_summary`] — the between/within-link decomposition
//!   ([`causal::between_within`]) that diagnoses interference: the two
//!   components diverge exactly when unit-level randomization is biased;
//! * [`ground_truth_tte_from_runs`] — the simulator's privilege: rerun the same
//!   fleet all-treated and all-control and difference the means, the
//!   estimand both designs are trying to recover.
//!
//! Every estimator also has a streaming twin in [`summary`] that works
//! from mergeable per-link sufficient statistics instead of session
//! records; this record-based path is kept as its equivalence oracle.
//! The record-path twins that no production caller needs (the
//! covariate-adjusted link-level estimator, the between/within
//! decomposition, `strata` and `ground_truth_tte`) are compiled for
//! tests only.

pub mod summary;

pub use summary::{
    aggregation_comparison_summary, control_mean_summary, fleet_between_within_summary,
    ground_truth_tte_from_summaries, link_level_effect_adjusted_summary, link_level_effect_summary,
    paired_effect_summary, strata_summary, user_level_effect_summary, DegradedReport,
    FleetLinkSummary, FleetSummary, QuarantinedLink, DEFAULT_SKETCH_CAP,
};

use expstats::dist::t_critical;
use expstats::ols::{DesignBuilder, Ols};
use expstats::{diff_in_means, mean, mean_ci, Result, StatsError};
use streamsim::fleet::{FleetLinkRun, FleetRun};
use streamsim::scenario::AllocationSchedule;
use streamsim::session::Metric;
#[cfg(test)]
use {
    causal::estimators::{between_within, BetweenWithin, ClusterCell},
    streamsim::config::StreamConfig,
    streamsim::fleet::{FleetDesign, FleetSim, LinkSpec},
};

/// A fleet-level effect estimate, normalized by a baseline mean.
#[derive(Debug, Clone)]
pub struct FleetEffect {
    /// Metric the effect concerns.
    pub metric: Metric,
    /// Absolute effect (metric units).
    pub absolute: f64,
    /// Effect relative to the baseline mean.
    pub relative: f64,
    /// 95% confidence interval (relative units).
    pub ci95: (f64, f64),
    /// Standard error (relative units).
    pub se: f64,
    /// Sessions entering the estimate.
    pub n_sessions: usize,
    /// Clusters (links, or pairs for the paired estimator) behind the
    /// uncertainty quantification.
    pub n_clusters: usize,
    /// Data-quality flags raised by the guardrails on the telemetry that
    /// fed this estimate (see [`crate::guardrails`]). Empty for clean
    /// pipelines; attached via [`FleetEffect::with_quality`].
    pub quality: Vec<crate::guardrails::QualityFlag>,
}

impl FleetEffect {
    /// Whether the 95% CI covers a hypothesized relative effect.
    pub fn covers(&self, truth: f64) -> bool {
        self.ci95.0 <= truth && truth <= self.ci95.1
    }

    /// Attach data-quality flags (builder-style).
    pub fn with_quality(mut self, flags: Vec<crate::guardrails::QualityFlag>) -> Self {
        self.quality = flags;
        self
    }
}

fn finite_values(links: &[&FleetLinkRun], metric: Metric, treated: Option<bool>) -> Vec<f64> {
    links
        .iter()
        .flat_map(|l| l.sessions.iter())
        .filter(|s| treated.is_none_or(|t| s.treated == t))
        .map(|s| metric.of(s))
        .filter(|v| v.is_finite())
        .collect()
}

/// Global control mean for normalization: control sessions on
/// control-cluster links when the design assigned cluster arms (the
/// fleet analogue of Appendix B's "same global control condition"),
/// otherwise all control sessions.
pub fn control_mean(links: &[&FleetLinkRun], metric: Metric) -> f64 {
    let control_links: Vec<&FleetLinkRun> = links
        .iter()
        .copied()
        .filter(|l| l.treated_cluster == Some(false))
        .collect();
    let vals = if control_links.is_empty() {
        finite_values(links, metric, Some(false))
    } else {
        finite_values(&control_links, metric, Some(false))
    };
    mean(&vals)
}

/// The pooled session-level (user-level) contrast with link-clustered
/// standard errors: OLS of the metric on a treatment indicator, CRV1
/// covariance clustered on the link, t interval on `G − 1` degrees of
/// freedom. This is what a fleet-wide Bernoulli A/B test reports —
/// unbiased for `τ(p)`, but `τ(p)` itself is the wrong target under
/// congestion interference.
pub fn user_level_effect(
    links: &[&FleetLinkRun],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "user_level_effect: bad baseline",
        });
    }
    let mut y = Vec::new();
    let mut arm = Vec::new();
    let mut clusters = Vec::new();
    for l in links {
        for s in &l.sessions {
            let v = metric.of(s);
            if v.is_finite() {
                y.push(v);
                arm.push(if s.treated { 1.0 } else { 0.0 });
                clusters.push(l.link);
            }
        }
    }
    let n = y.len();
    let design = DesignBuilder::new().intercept(n)?.column(&arm)?.build()?;
    let fit = Ols::fit(design, &y)?;
    let est = fit.coef[1];
    let se = fit.std_errors_clustered(&clusters)?[1];
    let mut sorted = clusters.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let g = sorted.len();
    let tcrit = t_critical(0.95, (g as f64 - 1.0).max(1.0));
    Ok(FleetEffect {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: ((est - tcrit * se) / baseline, (est + tcrit * se) / baseline),
        se: se / baseline.abs(),
        n_sessions: n,
        n_clusters: g,
        quality: Vec::new(),
    })
}

/// The link-level (cluster-randomized) estimator: one observation per
/// link — the mean over treated sessions on treated-cluster links, the
/// mean over control sessions on control-cluster links — compared with
/// a Welch interval across links. Because a treated link is ~entirely
/// treated, its sessions already include the within-link spillover, so
/// this contrast targets the total treatment effect rather than `τ(p)`.
pub fn link_level_effect(
    links: &[&FleetLinkRun],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "link_level_effect: bad baseline",
        });
    }
    let mut t_means = Vec::new();
    let mut c_means = Vec::new();
    let mut n_sessions = 0usize;
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        let vals = finite_values(std::slice::from_ref(l), metric, Some(arm));
        if vals.is_empty() {
            continue;
        }
        n_sessions += vals.len();
        if arm {
            t_means.push(mean(&vals));
        } else {
            c_means.push(mean(&vals));
        }
    }
    let d = diff_in_means(&t_means, &c_means, 0.95)?;
    let r = d.scaled(1.0 / baseline);
    Ok(FleetEffect {
        metric,
        absolute: d.estimate,
        relative: r.estimate,
        ci95: r.ci,
        se: r.se,
        n_sessions,
        n_clusters: t_means.len() + c_means.len(),
        quality: Vec::new(),
    })
}

/// Shared ANCOVA kernel for the adjusted link-level estimator: OLS of
/// per-link arm means on `[1, arm, offered_load]`, spherical standard
/// errors, t interval on `G − 3` degrees of freedom. `rows` holds one
/// `(arm, covariate, mean outcome)` triple per cluster-armed link. Both
/// the record path and the summary twin reduce to this, so they agree
/// to floating-point noise.
pub(crate) fn ancova_from_link_means(
    metric: Metric,
    baseline: f64,
    rows: &[(f64, f64, f64)],
    n_sessions: usize,
) -> Result<FleetEffect> {
    let g = rows.len();
    if g < 4 {
        return Err(StatsError::TooFewObservations { got: g, need: 4 });
    }
    let mut acc = expstats::accum::OlsAccum::new(3);
    for &(d, z, y) in rows {
        acc.push(&[1.0, d, z], y);
    }
    let fit = acc.solve()?;
    let est = fit.coef[1];
    let se = fit.std_errors()[1];
    let tcrit = t_critical(0.95, (g as f64 - 3.0).max(1.0));
    Ok(FleetEffect {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: ((est - tcrit * se) / baseline, (est + tcrit * se) / baseline),
        se: se / baseline.abs(),
        n_sessions,
        n_clusters: g,
        quality: Vec::new(),
    })
}

/// Covariate-adjusted link-level estimator (ANCOVA): regress each
/// cluster-armed link's own-arm mean on the arm indicator *and* the
/// baseline offered-load covariate. Adjusting the cluster contrast for
/// the pre-treatment covariate recovers most of the precision the
/// stratified paired design buys, without needing the pairing to have
/// been randomized in — the classic regression-adjustment move for
/// cluster trials (≥ 4 cluster-armed links required for the residual
/// degrees of freedom).
#[cfg(test)]
pub(crate) fn link_level_effect_adjusted(
    links: &[&FleetLinkRun],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "link_level_effect_adjusted: bad baseline",
        });
    }
    let mut rows = Vec::new();
    let mut n_sessions = 0usize;
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        let vals = finite_values(std::slice::from_ref(l), metric, Some(arm));
        if vals.is_empty() {
            continue;
        }
        n_sessions += vals.len();
        rows.push((f64::from(arm as u8), l.offered_load, mean(&vals)));
    }
    ancova_from_link_means(metric, baseline, &rows, n_sessions)
}

/// The staggered-switchback estimator with explicit carryover burn-in:
/// within each switchback link, contrast its high-allocation days
/// against its low-allocation days, dropping every session that arrives
/// in the first `burn_in_hours` hours after an arm flip (including the
/// cold-start hours of day 0) — the window in which the link's queue
/// and buffer state still reflect the *previous* day's arm. Per-link
/// day contrasts are averaged with a Student-t CI across links, so
/// between-link heterogeneity differences out entirely.
///
/// This is the design the routing-spillover figure shows surviving
/// cross-link interference: the router reacts to a link's *current*
/// load, so each link's own alternation keeps treated and control
/// exposure under (approximately) the same routed environment, while a
/// static link-level split lets the router systematically shift load
/// from treated to control clusters for the whole horizon.
pub fn switchback_effect(
    links: &[&FleetLinkRun],
    metric: Metric,
    baseline: f64,
    burn_in_hours: usize,
) -> Result<FleetEffect> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "switchback_effect: bad baseline",
        });
    }
    let mut diffs = Vec::new();
    let mut weights = Vec::new();
    let mut n_sessions = 0usize;
    for l in links {
        let AllocationSchedule::PerDay(plan) = &l.schedule else {
            continue; // not a switchback link
        };
        let (lo, hi) = plan
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &p| {
                (lo.min(p), hi.max(p))
            });
        if hi <= lo {
            continue; // constant plan: no within-link contrast
        }
        let mid = (lo + hi) / 2.0;
        let day_arm = |day: usize| l.schedule.allocation(day) >= mid;
        let mut hi_vals = Vec::new();
        let mut lo_vals = Vec::new();
        for s in &l.sessions {
            let arm = day_arm(s.day);
            // Carryover burn-in: the first hours after a flip (or after
            // cold start on day 0) are contaminated by the previous
            // arm's congestion state.
            let flipped = s.day == 0 || day_arm(s.day - 1) != arm;
            if flipped && s.hour < burn_in_hours {
                continue;
            }
            if s.treated != arm {
                continue; // off-arm sessions (95/5 leakage) are excluded
            }
            let v = metric.of(s);
            if !v.is_finite() {
                continue;
            }
            if arm {
                hi_vals.push(v);
            } else {
                lo_vals.push(v);
            }
        }
        if hi_vals.is_empty() || lo_vals.is_empty() {
            continue;
        }
        n_sessions += hi_vals.len() + lo_vals.len();
        diffs.push(mean(&hi_vals) - mean(&lo_vals));
        weights.push((hi_vals.len() + lo_vals.len()) as f64);
    }
    // Session-weighted average of the per-link contrasts: the total
    // treatment effect is a session-level estimand, so a link serving
    // 10x the sessions contributes 10x the weight (an equal-weight mean
    // over links systematically attenuates the fleet effect whenever
    // per-link effect size and traffic volume are correlated — which
    // they are: both scale with link capacity). The variance is the
    // cluster-robust form for a weighted mean over independent links.
    let g = diffs.len();
    if g < 2 {
        return Err(StatsError::TooFewObservations { got: g, need: 2 });
    }
    let w_total: f64 = weights.iter().sum();
    let est: f64 = diffs.iter().zip(&weights).map(|(d, w)| w * d).sum::<f64>() / w_total;
    let correction = g as f64 / (g as f64 - 1.0);
    let var: f64 = diffs
        .iter()
        .zip(&weights)
        .map(|(d, w)| {
            let share = w / w_total;
            share * share * (d - est) * (d - est)
        })
        .sum::<f64>()
        * correction;
    let se = var.sqrt();
    let t = t_critical(0.95, (g - 1) as f64);
    let rel = est / baseline;
    let rel_se = se / baseline.abs();
    Ok(FleetEffect {
        metric,
        absolute: est,
        relative: rel,
        ci95: (rel - t * rel_se, rel + t * rel_se),
        se: rel_se,
        n_sessions,
        n_clusters: g,
        quality: Vec::new(),
    })
}

/// The stratified paired estimator: for every matched `(treated,
/// control)` pair, difference the treated link's treated-session mean
/// against the control link's control-session mean, then average with a
/// Student-t CI over pairs. Matching on the baseline covariate removes
/// the between-link heterogeneity the unpaired cluster contrast pays
/// for, so its CIs are typically far tighter at the same fleet size.
pub fn paired_effect(run: &FleetRun, metric: Metric, baseline: f64) -> Result<FleetEffect> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "paired_effect: bad baseline",
        });
    }
    if run.pairs.is_empty() {
        return Err(StatsError::TooFewObservations { got: 0, need: 2 });
    }
    let mut diffs = Vec::with_capacity(run.pairs.len());
    let mut n_sessions = 0usize;
    for &(t, c) in &run.pairs {
        let tv = finite_values(&[&run.links[t]], metric, Some(true));
        let cv = finite_values(&[&run.links[c]], metric, Some(false));
        if tv.is_empty() || cv.is_empty() {
            continue;
        }
        n_sessions += tv.len() + cv.len();
        diffs.push(mean(&tv) - mean(&cv));
    }
    let d = mean_ci(&diffs, 0.95)?;
    let r = d.scaled(1.0 / baseline);
    Ok(FleetEffect {
        metric,
        absolute: d.estimate,
        relative: r.estimate,
        ci95: r.ci,
        se: r.se,
        n_sessions,
        n_clusters: diffs.len(),
        quality: Vec::new(),
    })
}

/// The same cluster contrast under three uncertainty treatments — the
/// fleet-scale generalization of the paper's Figure 13 (hourly vs
/// session aggregation): pooled sessions with iid (Welch) standard
/// errors, pooled sessions with link-clustered (CRV1) standard errors,
/// and full aggregation to one observation per link.
///
/// All three share the estimand — treated sessions on treated-cluster
/// links vs control sessions on control-cluster links — so the point
/// estimates are close and only the intervals differ: iid SEs pretend
/// every session is independent and collapse as sessions accumulate,
/// while the clustered and link-aggregated intervals stay honest about
/// the number of *links*, which is the real replication unit.
#[derive(Debug, Clone)]
pub struct AggregationComparison {
    /// Welch over pooled sessions (the anti-conservative default).
    pub iid: FleetEffect,
    /// Pooled sessions, link-clustered CRV1 standard errors.
    pub clustered: FleetEffect,
    /// One mean per link (see [`link_level_effect`]).
    pub link_means: FleetEffect,
}

/// Compute the [`AggregationComparison`] for a cluster-randomized fleet
/// run (links without a cluster arm are skipped).
pub fn aggregation_comparison(
    links: &[&FleetLinkRun],
    metric: Metric,
    baseline: f64,
) -> Result<AggregationComparison> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "aggregation_comparison: bad baseline",
        });
    }
    // Pooled arm samples plus their cluster labels.
    let mut y = Vec::new();
    let mut arm_col = Vec::new();
    let mut clusters = Vec::new();
    let mut pooled_t = Vec::new();
    let mut pooled_c = Vec::new();
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        for s in &l.sessions {
            if s.treated != arm {
                continue;
            }
            let v = metric.of(s);
            if !v.is_finite() {
                continue;
            }
            y.push(v);
            arm_col.push(if arm { 1.0 } else { 0.0 });
            clusters.push(l.link);
            if arm {
                pooled_t.push(v);
            } else {
                pooled_c.push(v);
            }
        }
    }
    let n = y.len();
    // (a) iid Welch over sessions.
    let d = diff_in_means(&pooled_t, &pooled_c, 0.95)?;
    let mut sorted = clusters.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let g = sorted.len();
    let to_effect = |est: f64, se: f64, ci: (f64, f64), n_clusters: usize| FleetEffect {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: (ci.0 / baseline, ci.1 / baseline),
        se: se / baseline.abs(),
        n_sessions: n,
        n_clusters,
        quality: Vec::new(),
    };
    let iid = to_effect(d.estimate, d.se, d.ci, g);
    // (b) same contrast, link-clustered SEs via OLS on the arm dummy.
    let design = DesignBuilder::new()
        .intercept(n)?
        .column(&arm_col)?
        .build()?;
    let fit = Ols::fit(design, &y)?;
    let se_cl = fit.std_errors_clustered(&clusters)?[1];
    let tcrit = t_critical(0.95, (g as f64 - 1.0).max(1.0));
    let est = fit.coef[1];
    let clustered = to_effect(est, se_cl, (est - tcrit * se_cl, est + tcrit * se_cl), g);
    // (c) one observation per link.
    let link_means = link_level_effect(links, metric, baseline)?;
    Ok(AggregationComparison {
        iid,
        clustered,
        link_means,
    })
}

/// Build one [`ClusterCell`] per link for the between/within
/// decomposition.
#[cfg(test)]
fn cluster_cells(links: &[&FleetLinkRun], metric: Metric) -> Vec<ClusterCell> {
    links
        .iter()
        .map(|l| ClusterCell {
            treated: finite_values(std::slice::from_ref(l), metric, Some(true)),
            control: finite_values(std::slice::from_ref(l), metric, Some(false)),
        })
        .collect()
}

/// The between/within-link decomposition of a fleet experiment's effect
/// (see [`causal::BetweenWithin`]): `within` is what user-level
/// randomization estimates, `between` what link-level randomization
/// estimates; divergence is the congestion-interference signature.
#[cfg(test)]
pub(crate) fn fleet_between_within(
    links: &[&FleetLinkRun],
    metric: Metric,
) -> Result<BetweenWithin> {
    between_within(&cluster_cells(links, metric), 0.95)
}

/// Split a fleet's links into `n_strata` groups by ascending baseline
/// offered-load covariate (near-equal sizes; later strata are the more
/// congested links). Strata with fewer links than `n_strata` collapse
/// gracefully — chunks are never empty.
#[cfg(test)]
pub(crate) fn strata(run: &FleetRun, n_strata: usize) -> Vec<Vec<&FleetLinkRun>> {
    assert!(n_strata > 0, "need at least one stratum");
    let mut order: Vec<&FleetLinkRun> = run.links.iter().collect();
    order.sort_by(|a, b| {
        a.offered_load
            .total_cmp(&b.offered_load)
            .then(a.link.cmp(&b.link))
    });
    let n = order.len();
    let k = n_strata.min(n.max(1));
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let end = start + n / k + usize::from(i < n % k);
        out.push(order[start..end].to_vec());
        start = end;
    }
    out
}

/// The estimand both designs chase, measured directly: rerun the *same*
/// fleet (same specs, same per-link seeds) under global treatment
/// (`p = 1`) and global control (`p = 0`) and difference the
/// session-mean outcomes, normalized by the global-control mean.
/// Returns the relative total treatment effect.
#[cfg(test)]
pub(crate) fn ground_truth_tte(
    base: &StreamConfig,
    specs: &[LinkSpec],
    metric: Metric,
    seed: u64,
) -> Result<f64> {
    let run_at = |p: f64| FleetSim::new(base, specs, &FleetDesign::UserLevel { p }, seed).run();
    ground_truth_tte_from_runs(&run_at(1.0), &run_at(0.0), metric)
}

/// `ground_truth_tte` on counterfactual runs the caller already holds
/// — the all-treated and all-control fleets must share specs and
/// per-link seeds (i.e. the same replication seed under
/// `FleetDesign::UserLevel { p: 1.0 }` / `{ p: 0.0 }`). Exposed so
/// parallel sweeps (e.g. the fleet figures running both counterfactuals
/// through `Runner::fleet_records`) use the same estimand definition instead of
/// reimplementing the reduction.
pub fn ground_truth_tte_from_runs(
    all_treated: &FleetRun,
    all_control: &FleetRun,
    metric: Metric,
) -> Result<f64> {
    let values = |run: &FleetRun| -> Vec<f64> {
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        finite_values(&links, metric, None)
    };
    let treated = values(all_treated);
    let control = values(all_control);
    let mc = mean(&control);
    if treated.is_empty() || control.is_empty() || mc == 0.0 || !mc.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "ground_truth_tte: degenerate counterfactual runs",
        });
    }
    Ok((mean(&treated) - mc) / mc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim::fleet::LinkPopulation;

    pub(crate) fn small_base() -> StreamConfig {
        StreamConfig {
            days: 1,
            capacity_bps: 30e6,
            peak_arrivals_per_s: 0.24 * 0.03,
            mean_watch_s: 1500.0,
            ..Default::default()
        }
    }

    fn fleet_run(n: usize, design: &FleetDesign, seed: u64) -> FleetRun {
        let specs = LinkPopulation::moderate(small_base(), n, 7).sample();
        FleetSim::new(&small_base(), &specs, design, seed).run()
    }

    #[test]
    fn user_level_estimator_reports_clustered_uncertainty() {
        let run = fleet_run(6, &FleetDesign::UserLevel { p: 0.5 }, 3);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        assert!(base > 0.0);
        let e = user_level_effect(&links, Metric::Bitrate, base).unwrap();
        assert_eq!(e.n_clusters, 6);
        assert!(e.n_sessions > 1000);
        // Direct capping effect: bitrate drops markedly.
        assert!(e.relative < -0.1, "bitrate effect {}", e.relative);
        assert!(e.ci95.0 < e.relative && e.relative < e.ci95.1);
    }

    #[test]
    fn link_level_estimator_contrasts_cluster_arms() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(10, &design, 5);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        let e = link_level_effect(&links, Metric::Bitrate, base).unwrap();
        assert!(e.n_clusters >= 4, "clusters {}", e.n_clusters);
        assert!(e.relative < -0.1, "bitrate TTE {}", e.relative);
    }

    #[test]
    fn paired_estimator_uses_matched_pairs() {
        let design = FleetDesign::StratifiedPairs {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(8, &design, 11);
        assert_eq!(run.pairs.len(), 4);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        let e = paired_effect(&run, Metric::Bitrate, base).unwrap();
        assert_eq!(e.n_clusters, 4);
        assert!(e.relative < -0.1, "paired bitrate TTE {}", e.relative);
    }

    #[test]
    fn adjusted_estimators_tighten_and_agree_on_sign() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(10, &design, 5);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        let raw = link_level_effect(&links, Metric::Bitrate, base).unwrap();
        let adj = link_level_effect_adjusted(&links, Metric::Bitrate, base).unwrap();
        // Same estimand, same sign; adjustment only reshapes the
        // uncertainty (usually tighter — offered load predicts the link
        // means — but not guaranteed on every draw, so only sanity-check
        // the interval here).
        assert!(adj.relative < -0.1, "ancova bitrate TTE {}", adj.relative);
        assert!(adj.ci95.0 < adj.relative && adj.relative < adj.ci95.1);
        assert_eq!(adj.n_clusters, raw.n_clusters);
    }

    #[test]
    fn adjusted_link_estimator_needs_four_clusters() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(3, &design, 5);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        assert!(link_level_effect_adjusted(&links, Metric::Bitrate, base).is_err());
    }

    #[test]
    fn switchback_estimator_detects_effect_and_burns_flip_hours() {
        let design = FleetDesign::StaggeredSwitchback {
            p_hi: 0.95,
            p_lo: 0.05,
            period_days: 1,
        };
        let base_cfg = StreamConfig {
            days: 4,
            ..small_base()
        };
        let specs = LinkPopulation::moderate(base_cfg.clone(), 6, 7).sample();
        let run = FleetSim::new(&base_cfg, &specs, &design, 17).run();
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        let e = switchback_effect(&links, Metric::Bitrate, base, 2).unwrap();
        assert_eq!(e.n_clusters, 6, "every link alternates");
        assert!(e.relative < -0.1, "switchback bitrate TTE {}", e.relative);
        // Burn-in strictly removes sessions relative to no burn-in.
        let e0 = switchback_effect(&links, Metric::Bitrate, base, 0).unwrap();
        assert!(e.n_sessions < e0.n_sessions);
        // Non-switchback links contribute nothing.
        let flat = fleet_run(4, &FleetDesign::UserLevel { p: 0.5 }, 3);
        let flat_links: Vec<&FleetLinkRun> = flat.links.iter().collect();
        assert!(switchback_effect(&flat_links, Metric::Bitrate, base, 2).is_err());
    }

    #[test]
    fn strata_partition_links_by_covariate() {
        let run = fleet_run(9, &FleetDesign::UserLevel { p: 0.5 }, 1);
        let groups = strata(&run, 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 9);
        // Ascending covariate across strata boundaries.
        for w in groups.windows(2) {
            let hi_of_lo = w[0].last().unwrap().offered_load;
            let lo_of_hi = w[1].first().unwrap().offered_load;
            assert!(hi_of_lo <= lo_of_hi);
        }
        // More strata than links collapses without panicking.
        let tiny = fleet_run(2, &FleetDesign::UserLevel { p: 0.5 }, 1);
        let g = strata(&tiny, 5);
        assert_eq!(g.iter().map(Vec::len).sum::<usize>(), 2);
        assert!(g.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn between_within_runs_on_fleet_data() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(10, &design, 9);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let bw = fleet_between_within(&links, Metric::Bitrate).unwrap();
        assert_eq!(bw.n_within, 10, "every link has a few of each arm at 95/5");
        let between = bw.between.expect("both cluster arms present");
        // The direct capping effect dominates bitrate; both components
        // see it.
        assert!(between.estimate < 0.0);
        assert!(bw.within.unwrap().estimate < 0.0);
    }

    #[test]
    fn aggregation_comparison_orders_interval_widths() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = fleet_run(12, &design, 13);
        let links: Vec<&FleetLinkRun> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Throughput);
        let cmp = aggregation_comparison(&links, Metric::Throughput, base).unwrap();
        // All three target the same contrast.
        assert!((cmp.iid.relative - cmp.clustered.relative).abs() < 1e-9);
        let width = |e: &FleetEffect| e.ci95.1 - e.ci95.0;
        // Session-iid intervals are the anti-conservative outlier:
        // clustered and link-aggregated intervals respect the link count
        // and come out wider.
        assert!(
            width(&cmp.clustered) > width(&cmp.iid),
            "clustered {} vs iid {}",
            width(&cmp.clustered),
            width(&cmp.iid)
        );
        assert!(width(&cmp.link_means) > width(&cmp.iid));
        assert_eq!(cmp.clustered.n_clusters, 12);
    }

    #[test]
    fn ground_truth_tte_detects_direct_bitrate_effect() {
        let specs = LinkPopulation::moderate(small_base(), 3, 7).sample();
        let tte = ground_truth_tte(&small_base(), &specs, Metric::Bitrate, 21).unwrap();
        assert!(tte < -0.15, "global capping must cut bitrate: {tte}");
    }
}
