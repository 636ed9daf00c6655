//! Streaming fleet aggregation: mergeable per-link sufficient statistics
//! and summary-based twins of the record-level fleet estimators.
//!
//! [`super::user_level_effect`] and friends need every `SessionRecord`
//! of every link in memory, so fleet sweeps grow with links × seeds ×
//! sessions. This module is the bounded-memory path: the moment a link
//! job finishes, [`FleetLinkSummary::from_run`] folds its sessions into
//! per-arm Welford cells (one per metric) plus bounded quantile
//! sketches, and the records are dropped. Per-link state is a few
//! hundred bytes, so a whole [`FleetSummary`] scales with the number of
//! *links*, not sessions.
//!
//! Every estimator here is the exact summary-space rewrite of its
//! record-based twin (same formulas, shared `expstats` kernels), and the
//! record path is kept as the equivalence oracle — the `conformance`
//! integration tests require agreement to ≤1e-9 relative on
//! user-level, link-level, paired and CRV1 outputs.
//!
//! Determinism under work stealing: a link's cells are accumulated
//! entirely inside one job (fixed session order), cross-link merges only
//! concatenate links (sorted at finalize) and union sketches (set
//! semantics, canonical order), so results are bit-identical regardless
//! of how the scheduler interleaved jobs.

use expstats::accum::{ClusterOlsAccum, WelfordCell};
use expstats::dist::t_critical;
use expstats::{diff_in_means, diff_in_means_cells, mean_ci, Result, StatsError};
use streamsim::fleet::FleetLinkRun;
use streamsim::session::Metric;
use streamsim::telemetry::TelemetryStats;

use super::{AggregationComparison, FleetEffect};
use crate::quantiles::QuantileSketch;
use causal::estimators::BetweenWithin;

/// Default kept-sample size for the per-metric quantile sketches.
pub const DEFAULT_SKETCH_CAP: usize = 1024;

/// Index of a metric in [`Metric::ALL`] (the cell storage order).
fn metric_index(metric: Metric) -> usize {
    Metric::ALL
        .iter()
        .position(|&m| m == metric)
        .expect("metric listed in Metric::ALL")
}

/// Sufficient statistics of one link's run: per-metric, per-arm Welford
/// cells and quantile sketches, plus the covariates the designs and
/// estimators need. Built once per finished job; the session records can
/// be dropped immediately afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetLinkSummary {
    /// Link index in the fleet.
    pub link: usize,
    /// Cluster arm, if the design assigned one.
    pub treated_cluster: Option<bool>,
    /// Baseline offered-load covariate (stratification key).
    pub offered_load: f64,
    /// Expected treated fraction under this link's schedule (from
    /// [`FleetLinkRun::expected_allocation`]) — what a sample-ratio test
    /// compares delivered arm counts against.
    pub expected_allocation: f64,
    /// Per-arm telemetry accounting for this link (pass-through when the
    /// run carried no faults).
    pub telemetry: TelemetryStats,
    /// Total sessions *delivered* for this link (including ones whose
    /// value is NaN for some metric).
    pub n_sessions: usize,
    /// `cells[metric_index][arm]` with arm 0 = control, 1 = treated;
    /// only finite metric values are folded in, mirroring the record
    /// path's NaN filtering.
    cells: Vec<[WelfordCell; 2]>,
    /// Per-metric per-arm sketches; drained when the link is folded into
    /// a [`FleetSummary`] (fleet-level sketches take over).
    sketches: Vec<[QuantileSketch; 2]>,
}

impl FleetLinkSummary {
    /// Fold a finished link run into summary state. `sketch_cap` bounds
    /// the per-sketch kept sample (see [`DEFAULT_SKETCH_CAP`]).
    pub fn from_run(run: &FleetLinkRun, sketch_cap: usize) -> FleetLinkSummary {
        let n_metrics = Metric::ALL.len();
        let mut cells = vec![[WelfordCell::new(); 2]; n_metrics];
        let mut sketches: Vec<[QuantileSketch; 2]> = (0..n_metrics)
            .map(|_| {
                [
                    QuantileSketch::new(sketch_cap),
                    QuantileSketch::new(sketch_cap),
                ]
            })
            .collect();
        for (idx, s) in run.sessions.iter().enumerate() {
            let arm = usize::from(s.treated);
            // Stable unique id: links are far below 2^32 and so are
            // sessions per link, so (link, session) packs losslessly.
            let id = ((run.link as u64) << 32) | idx as u64;
            for (m, metric) in Metric::ALL.iter().enumerate() {
                let v = metric.of(s);
                if v.is_finite() {
                    cells[m][arm].push(v);
                    sketches[m][arm].insert(id, v);
                }
            }
        }
        FleetLinkSummary {
            link: run.link,
            treated_cluster: run.treated_cluster,
            offered_load: run.offered_load,
            expected_allocation: run.expected_allocation,
            telemetry: run.telemetry,
            n_sessions: run.sessions.len(),
            cells,
            sketches,
        }
    }

    /// The Welford cell of one metric and arm.
    pub fn cell(&self, metric: Metric, treated: bool) -> &WelfordCell {
        &self.cells[metric_index(metric)][usize::from(treated)]
    }
}

/// One link a quarantining sweep gave up on: its job panicked, the
/// panic was caught, and the link's statistics are simply absent from
/// the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLink {
    /// Link index in the fleet.
    pub link: usize,
    /// The panic payload's message, best-effort stringified.
    pub reason: String,
}

/// What a fault-tolerant sweep had to give up on: the quarantined links
/// (sorted by link index after [`FleetSummary::finalize`]). A non-empty
/// report means every estimate from this summary describes the
/// *surviving* links only — the analysis layer turns that into a
/// `DegradedFleet` quality flag rather than reporting silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// Links whose jobs panicked, with their panic messages.
    pub quarantined: Vec<QuarantinedLink>,
}

impl DegradedReport {
    /// Number of quarantined links.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    /// True when nothing was quarantined.
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Mergeable summary of a whole fleet replication: the per-link cells
/// (memory proportional to links) plus fleet-level quantile sketches
/// (constant memory) and the design's pair matching.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    sketch_cap: usize,
    /// One summary per link, sorted by link index after [`finalize`].
    ///
    /// [`finalize`]: FleetSummary::finalize
    pub links: Vec<FleetLinkSummary>,
    /// `(treated, control)` link-index pairs for the paired design.
    pub pairs: Vec<(usize, usize)>,
    /// `sketches[metric_index][arm]`, merged over all links.
    sketches: Vec<[QuantileSketch; 2]>,
    /// Total sessions folded in across links.
    pub n_sessions: usize,
    /// Fleet-wide telemetry ledger, accumulated over folded links.
    pub telemetry: TelemetryStats,
    /// Links a quarantining sweep lost (empty under `FailFast` or a
    /// clean run).
    pub degraded: DegradedReport,
}

impl FleetSummary {
    /// Empty summary whose sketches keep at most `sketch_cap` samples.
    pub fn new(sketch_cap: usize) -> FleetSummary {
        FleetSummary {
            sketch_cap,
            links: Vec::new(),
            pairs: Vec::new(),
            sketches: (0..Metric::ALL.len())
                .map(|_| {
                    [
                        QuantileSketch::new(sketch_cap),
                        QuantileSketch::new(sketch_cap),
                    ]
                })
                .collect(),
            n_sessions: 0,
            telemetry: TelemetryStats::default(),
            degraded: DegradedReport::default(),
        }
    }

    /// Fold one finished link in: its sketches are merged into the
    /// fleet-level sketches and drained, so retained per-link state is
    /// just the Welford cells.
    pub fn fold(&mut self, mut link: FleetLinkSummary) {
        for (fleet, mine) in self.sketches.iter_mut().zip(link.sketches.drain(..)) {
            fleet[0].merge(&mine[0]);
            fleet[1].merge(&mine[1]);
        }
        self.n_sessions += link.n_sessions;
        self.telemetry.merge(&link.telemetry);
        self.links.push(link);
    }

    /// Record a link whose job panicked under a quarantining sweep: the
    /// link contributes nothing to the statistics, only to the degraded
    /// report.
    pub fn fold_quarantined(&mut self, link: usize, reason: String) {
        self.degraded
            .quarantined
            .push(QuarantinedLink { link, reason });
    }

    /// Combine two partial summaries of the *same* replication
    /// (disjoint link sets). Associative and order-insensitive up to
    /// link order, which [`finalize`](FleetSummary::finalize) canonicalizes.
    pub fn merge(&mut self, mut other: FleetSummary) {
        assert_eq!(
            self.sketch_cap, other.sketch_cap,
            "FleetSummary::merge: sketch capacity mismatch"
        );
        debug_assert!(
            other.pairs.is_empty(),
            "merge partials before attaching pairs"
        );
        for (fleet, theirs) in self.sketches.iter_mut().zip(&other.sketches) {
            fleet[0].merge(&theirs[0]);
            fleet[1].merge(&theirs[1]);
        }
        self.n_sessions += other.n_sessions;
        self.telemetry.merge(&other.telemetry);
        self.degraded
            .quarantined
            .append(&mut other.degraded.quarantined);
        self.links.append(&mut other.links);
    }

    /// Canonicalize after all partials are merged: sort links (and the
    /// degraded report) by index, restoring determinism under work
    /// stealing, and attach the design's pair matching.
    pub fn finalize(&mut self, pairs: Vec<(usize, usize)>) {
        self.links.sort_by_key(|l| l.link);
        debug_assert!(
            self.links.windows(2).all(|w| w[0].link < w[1].link),
            "duplicate link folded into FleetSummary"
        );
        self.degraded.quarantined.sort_by_key(|q| q.link);
        self.pairs = pairs;
    }

    /// Fleet-level quantile sketch for one metric and arm.
    pub fn sketch(&self, metric: Metric, treated: bool) -> &QuantileSketch {
        &self.sketches[metric_index(metric)][usize::from(treated)]
    }

    /// Borrow all links (the shape the summary estimators take, mirroring
    /// the record-path `&[&FleetLinkRun]` convention).
    pub fn link_refs(&self) -> Vec<&FleetLinkSummary> {
        self.links.iter().collect()
    }
}

/// Summary twin of [`super::control_mean`]: control sessions on
/// control-cluster links when the design assigned cluster arms,
/// otherwise all control sessions.
pub fn control_mean_summary(links: &[&FleetLinkSummary], metric: Metric) -> f64 {
    let any_control_cluster = links.iter().any(|l| l.treated_cluster == Some(false));
    let mut cell = WelfordCell::new();
    for l in links {
        if !any_control_cluster || l.treated_cluster == Some(false) {
            cell.merge(l.cell(metric, false));
        }
    }
    if cell.n == 0 {
        f64::NAN
    } else {
        cell.mean
    }
}

fn check_baseline(baseline: f64, context: &'static str) -> Result<()> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter { context });
    }
    Ok(())
}

/// Per-link normal-equation block for the `[1, treated]` design, derived
/// in closed form from the two arm cells: with `n = n_c + n_t`,
/// `X'X = [[n, n_t], [n_t, n_t]]`, `X'y = [Σy, Σy_t]`,
/// `y'y = Σy²` (via `M2 + n·mean²`).
fn push_user_level_block(acc: &mut ClusterOlsAccum, link: usize, c: &WelfordCell, t: &WelfordCell) {
    let n = c.n + t.n;
    if n == 0 {
        return;
    }
    let nf = n as f64;
    let nt = t.n as f64;
    let xtx = [nf, nt, nt, nt];
    let xty = [c.sum() + t.sum(), t.sum()];
    let yty = c.sum_sq() + t.sum_sq();
    acc.push_block(link, &xtx, &xty, yty, n);
}

fn effect_from_clustered(
    metric: Metric,
    baseline: f64,
    est: f64,
    se: f64,
    n: usize,
    g: usize,
) -> FleetEffect {
    let tcrit = t_critical(0.95, (g as f64 - 1.0).max(1.0));
    FleetEffect {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: ((est - tcrit * se) / baseline, (est + tcrit * se) / baseline),
        se: se / baseline.abs(),
        n_sessions: n,
        n_clusters: g,
        quality: Vec::new(),
    }
}

/// Summary twin of [`super::user_level_effect`]: pooled session-level
/// contrast with CRV1 link-clustered standard errors, computed from
/// per-link cells alone.
pub fn user_level_effect_summary(
    links: &[&FleetLinkSummary],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    check_baseline(baseline, "user_level_effect: bad baseline")?;
    let mut acc = ClusterOlsAccum::new(2);
    for l in links {
        push_user_level_block(
            &mut acc,
            l.link,
            l.cell(metric, false),
            l.cell(metric, true),
        );
    }
    let n = acc.n() as usize;
    let fit = acc.fit()?;
    Ok(effect_from_clustered(
        metric,
        baseline,
        fit.coef[1],
        fit.std_errors[1],
        n,
        fit.g,
    ))
}

/// Summary twin of `super::link_level_effect_adjusted`: the ANCOVA on
/// link means needs only each cluster-armed link's own-arm cell mean
/// and offered-load covariate, so it reduces to the same shared kernel
/// as the record path.
pub fn link_level_effect_adjusted_summary(
    links: &[&FleetLinkSummary],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    check_baseline(baseline, "link_level_effect_adjusted: bad baseline")?;
    let mut rows = Vec::new();
    let mut n_sessions = 0usize;
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        let cell = l.cell(metric, arm);
        if cell.n == 0 {
            continue;
        }
        n_sessions += cell.n as usize;
        rows.push((f64::from(arm as u8), l.offered_load, cell.mean));
    }
    super::ancova_from_link_means(metric, baseline, &rows, n_sessions)
}

/// Summary twin of [`super::link_level_effect`]: one mean per link from
/// the cluster-arm cell, Welch interval across links.
pub fn link_level_effect_summary(
    links: &[&FleetLinkSummary],
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    check_baseline(baseline, "link_level_effect: bad baseline")?;
    let mut t_means = Vec::new();
    let mut c_means = Vec::new();
    let mut n_sessions = 0usize;
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        let cell = l.cell(metric, arm);
        if cell.n == 0 {
            continue;
        }
        n_sessions += cell.n as usize;
        if arm {
            t_means.push(cell.mean);
        } else {
            c_means.push(cell.mean);
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

/// Summary twin of [`super::paired_effect`]: per-pair treated-mean minus
/// control-mean contrasts with a Student-t CI over pairs. Pairs with an
/// empty cell or a quarantined member are skipped.
pub fn paired_effect_summary(
    summary: &FleetSummary,
    metric: Metric,
    baseline: f64,
) -> Result<FleetEffect> {
    check_baseline(baseline, "paired_effect: bad baseline")?;
    if summary.pairs.is_empty() {
        return Err(StatsError::TooFewObservations { got: 0, need: 2 });
    }
    let find = |link: usize| -> Option<&FleetLinkSummary> {
        let at = summary.links.binary_search_by_key(&link, |l| l.link).ok()?;
        Some(&summary.links[at])
    };
    let mut diffs = Vec::with_capacity(summary.pairs.len());
    let mut n_sessions = 0usize;
    for &(t, c) in &summary.pairs {
        // A quarantined member leaves its pair without a contrast, just
        // like an empty cell: the pair drops out of the estimate.
        let (Some(tl), Some(cl)) = (find(t), find(c)) else {
            continue;
        };
        let tc = tl.cell(metric, true);
        let cc = cl.cell(metric, false);
        if tc.n == 0 || cc.n == 0 {
            continue;
        }
        n_sessions += (tc.n + cc.n) as usize;
        diffs.push(tc.mean - cc.mean);
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

/// Summary twin of [`super::aggregation_comparison`]: the cluster
/// contrast under iid (Welch), CRV1-clustered and link-aggregated
/// uncertainty, restricted to sessions whose arm matches their link's
/// cluster arm.
pub fn aggregation_comparison_summary(
    links: &[&FleetLinkSummary],
    metric: Metric,
    baseline: f64,
) -> Result<AggregationComparison> {
    check_baseline(baseline, "aggregation_comparison: bad baseline")?;
    let mut pooled_t = WelfordCell::new();
    let mut pooled_c = WelfordCell::new();
    let mut acc = ClusterOlsAccum::new(2);
    for l in links {
        let Some(arm) = l.treated_cluster else {
            continue;
        };
        let cell = l.cell(metric, arm);
        if cell.n == 0 {
            continue;
        }
        let nf = cell.n as f64;
        // Matching-arm sessions only, so the link's block is one cell:
        // the treated dummy is constant (arm) within it.
        let (xtx, xty) = if arm {
            pooled_t.merge(cell);
            ([nf, nf, nf, nf], [cell.sum(), cell.sum()])
        } else {
            pooled_c.merge(cell);
            ([nf, 0.0, 0.0, 0.0], [cell.sum(), 0.0])
        };
        acc.push_block(l.link, &xtx, &xty, cell.sum_sq(), cell.n);
    }
    let n = (pooled_t.n + pooled_c.n) as usize;
    let d = diff_in_means_cells(&pooled_t, &pooled_c, 0.95)?;
    let fit = acc.fit()?;
    let g = fit.g;
    let to_effect = |est: f64, se: f64, ci: (f64, f64)| FleetEffect {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: (ci.0 / baseline, ci.1 / baseline),
        se: se / baseline.abs(),
        n_sessions: n,
        n_clusters: g,
        quality: Vec::new(),
    };
    let iid = to_effect(d.estimate, d.se, d.ci);
    let est = fit.coef[1];
    let se_cl = fit.std_errors[1];
    let tcrit = t_critical(0.95, (g as f64 - 1.0).max(1.0));
    let clustered = to_effect(est, se_cl, (est - tcrit * se_cl, est + tcrit * se_cl));
    let link_means = link_level_effect_summary(links, metric, baseline)?;
    Ok(AggregationComparison {
        iid,
        clustered,
        link_means,
    })
}

/// Summary twin of `super::fleet_between_within`: the between/within
/// decomposition from per-link cells. Within contrasts use links holding
/// both arms; between contrasts cluster overall means by majority arm
/// (strictly more treated than control sessions), exactly as
/// [`causal::estimators::between_within`] does on raw cells.
pub fn fleet_between_within_summary(
    links: &[&FleetLinkSummary],
    metric: Metric,
) -> Result<BetweenWithin> {
    if links.is_empty() {
        return Err(StatsError::TooFewObservations { got: 0, need: 1 });
    }
    let mut contrasts = Vec::new();
    let mut t_means = Vec::new();
    let mut c_means = Vec::new();
    for l in links {
        let t = l.cell(metric, true);
        let c = l.cell(metric, false);
        if t.n > 0 && c.n > 0 {
            contrasts.push(t.mean - c.mean);
        }
        let mut overall = *t;
        overall.merge(c);
        if overall.n > 0 {
            if t.n > c.n {
                t_means.push(overall.mean);
            } else {
                c_means.push(overall.mean);
            }
        }
    }
    Ok(BetweenWithin {
        within: mean_ci(&contrasts, 0.95).ok(),
        between: diff_in_means(&t_means, &c_means, 0.95).ok(),
        n_within: contrasts.len(),
        n_between: (t_means.len(), c_means.len()),
    })
}

/// Summary twin of `super::strata`: split links into `n_strata`
/// near-equal groups by ascending offered-load covariate.
pub fn strata_summary(summary: &FleetSummary, n_strata: usize) -> Vec<Vec<&FleetLinkSummary>> {
    assert!(n_strata > 0, "need at least one stratum");
    let mut order: Vec<&FleetLinkSummary> = summary.links.iter().collect();
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

/// Summary twin of [`super::ground_truth_tte_from_runs`]: relative TTE
/// from the all-treated and all-control counterfactual summaries (same
/// specs and per-link seeds).
pub fn ground_truth_tte_from_summaries(
    all_treated: &FleetSummary,
    all_control: &FleetSummary,
    metric: Metric,
) -> Result<f64> {
    let overall = |s: &FleetSummary| {
        let mut cell = WelfordCell::new();
        for l in &s.links {
            cell.merge(l.cell(metric, false));
            cell.merge(l.cell(metric, true));
        }
        cell
    };
    let t = overall(all_treated);
    let c = overall(all_control);
    if t.n == 0 || c.n == 0 || c.mean == 0.0 || !c.mean.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "ground_truth_tte: degenerate counterfactual runs",
        });
    }
    Ok((t.mean - c.mean) / c.mean)
}

#[cfg(test)]
mod tests {
    use super::super::tests::small_base;
    use super::super::{
        aggregation_comparison, control_mean, fleet_between_within, link_level_effect,
        link_level_effect_adjusted, paired_effect, strata, user_level_effect,
    };
    use super::*;
    use streamsim::config::StreamConfig;
    use streamsim::fleet::{FleetDesign, FleetRun, FleetSim, LinkPopulation};

    fn rel_close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-300)
    }

    fn run_and_summarize(
        n: usize,
        design: &FleetDesign,
        seed: u64,
    ) -> (FleetRun, FleetSummary, StreamConfig) {
        let base = small_base();
        let specs = LinkPopulation::moderate(base.clone(), n, 7).sample();
        let run = FleetSim::new(&base, &specs, design, seed).run();
        let mut summary = FleetSummary::new(DEFAULT_SKETCH_CAP);
        for link in &run.links {
            summary.fold(FleetLinkSummary::from_run(link, DEFAULT_SKETCH_CAP));
        }
        summary.finalize(run.pairs.clone());
        (run, summary, base)
    }

    /// Heap bytes a link summary owns: its cell and sketch tables plus
    /// every sketch's kept-entry buffer.
    fn heap_bytes(s: &FleetLinkSummary) -> usize {
        s.cells.capacity() * std::mem::size_of::<[WelfordCell; 2]>()
            + s.sketches.capacity() * std::mem::size_of::<[QuantileSketch; 2]>()
            + s.sketches
                .iter()
                .flatten()
                .map(QuantileSketch::heap_bytes)
                .sum::<usize>()
    }

    /// The streaming sweeps' scale claim: a link summary's memory is
    /// bounded by the sketch cap, not by the link's session count, so a
    /// link with four times the sessions owns no more heap.
    #[test]
    fn link_summary_heap_does_not_grow_with_sessions() {
        let cap = 32;
        let summarize = |days: usize| {
            let base = StreamConfig {
                days,
                ..small_base()
            };
            let specs = LinkPopulation::moderate(base.clone(), 1, 7).sample();
            let run = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p: 0.5 }, 3).run();
            FleetLinkSummary::from_run(&run.links[0], cap)
        };
        let (one_day, four_days) = (summarize(1), summarize(4));
        assert!(
            four_days.n_sessions >= 3 * one_day.n_sessions,
            "sessions: {} vs {}",
            four_days.n_sessions,
            one_day.n_sessions
        );
        // Every sketch is already full after one day, so the bound is
        // what is being measured, not an undersized short run.
        assert!(one_day.sketches.iter().flatten().all(|k| k.len() == cap));
        assert!(
            heap_bytes(&four_days) <= heap_bytes(&one_day),
            "heap: {} bytes for 4 days vs {} for 1 day",
            heap_bytes(&four_days),
            heap_bytes(&one_day)
        );
    }

    #[test]
    fn summary_estimators_match_record_oracle() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let (run, summary, _) = run_and_summarize(8, &design, 5);
        let links: Vec<_> = run.links.iter().collect();
        let slinks = summary.link_refs();
        for metric in [Metric::Bitrate, Metric::Throughput, Metric::PlayDelay] {
            let base = control_mean(&links, metric);
            let sbase = control_mean_summary(&slinks, metric);
            assert!(rel_close(base, sbase, 1e-12), "{metric:?} baseline");
            let u = user_level_effect(&links, metric, base).unwrap();
            let su = user_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(u.relative, su.relative, 1e-9), "{metric:?} user");
            assert!(rel_close(u.se, su.se, 1e-9), "{metric:?} user se");
            assert_eq!((u.n_sessions, u.n_clusters), (su.n_sessions, su.n_clusters));
            let l = link_level_effect(&links, metric, base).unwrap();
            let sl = link_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(l.relative, sl.relative, 1e-9), "{metric:?} link");
            assert!(rel_close(l.se, sl.se, 1e-9), "{metric:?} link se");
            let a = aggregation_comparison(&links, metric, base).unwrap();
            let sa = aggregation_comparison_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(a.iid.se, sa.iid.se, 1e-9));
            assert!(rel_close(a.clustered.se, sa.clustered.se, 1e-9));
            assert!(rel_close(a.clustered.relative, sa.clustered.relative, 1e-9));
        }
    }

    #[test]
    fn summary_adjusted_estimators_match_record_oracle() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let (run, summary, _) = run_and_summarize(8, &design, 5);
        let links: Vec<_> = run.links.iter().collect();
        let slinks = summary.link_refs();
        for metric in [Metric::Bitrate, Metric::Throughput, Metric::PlayDelay] {
            let base = control_mean(&links, metric);
            let l = link_level_effect_adjusted(&links, metric, base).unwrap();
            let sl = link_level_effect_adjusted_summary(&slinks, metric, base).unwrap();
            assert!(
                rel_close(l.relative, sl.relative, 1e-9),
                "{metric:?} ancova"
            );
            assert!(rel_close(l.se, sl.se, 1e-9), "{metric:?} ancova se");
            assert_eq!(l.n_clusters, sl.n_clusters);
        }
    }

    #[test]
    fn summary_paired_matches_record_oracle() {
        let design = FleetDesign::StratifiedPairs {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let (run, summary, _) = run_and_summarize(8, &design, 11);
        let links: Vec<_> = run.links.iter().collect();
        let base = control_mean(&links, Metric::Bitrate);
        let p = paired_effect(&run, Metric::Bitrate, base).unwrap();
        let sp = paired_effect_summary(&summary, Metric::Bitrate, base).unwrap();
        assert!(rel_close(p.relative, sp.relative, 1e-9));
        assert!(rel_close(p.se, sp.se, 1e-9));
        assert_eq!(p.n_clusters, sp.n_clusters);
    }

    #[test]
    fn summary_between_within_matches_record_oracle() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let (run, summary, _) = run_and_summarize(10, &design, 9);
        let links: Vec<_> = run.links.iter().collect();
        let bw = fleet_between_within(&links, Metric::Bitrate).unwrap();
        let sbw = fleet_between_within_summary(&summary.link_refs(), Metric::Bitrate).unwrap();
        assert_eq!(bw.n_within, sbw.n_within);
        assert_eq!(bw.n_between, sbw.n_between);
        let (w, sw) = (bw.within.unwrap(), sbw.within.unwrap());
        assert!(rel_close(w.estimate, sw.estimate, 1e-9));
        assert!(rel_close(w.se, sw.se, 1e-9));
        let (b, sb) = (bw.between.unwrap(), sbw.between.unwrap());
        assert!(rel_close(b.estimate, sb.estimate, 1e-9));
        assert!(rel_close(b.se, sb.se, 1e-9));
    }

    #[test]
    fn summary_strata_match_record_strata() {
        let (run, summary, _) = run_and_summarize(9, &FleetDesign::UserLevel { p: 0.5 }, 1);
        let groups = strata(&run, 3);
        let sgroups = strata_summary(&summary, 3);
        assert_eq!(groups.len(), sgroups.len());
        for (g, sg) in groups.iter().zip(&sgroups) {
            let ids: Vec<usize> = g.iter().map(|l| l.link).collect();
            let sids: Vec<usize> = sg.iter().map(|l| l.link).collect();
            assert_eq!(ids, sids);
        }
    }

    #[test]
    fn summary_merge_order_does_not_change_estimates() {
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let base = small_base();
        let specs = LinkPopulation::moderate(base.clone(), 6, 7).sample();
        let run = FleetSim::new(&base, &specs, &design, 3).run();
        let per_link: Vec<FleetLinkSummary> = run
            .links
            .iter()
            .map(|l| FleetLinkSummary::from_run(l, 128))
            .collect();
        let build = |order: &[usize]| {
            // Two partials split unevenly, merged partial-first.
            let mut a = FleetSummary::new(128);
            let mut b = FleetSummary::new(128);
            for (i, &at) in order.iter().enumerate() {
                if i % 2 == 0 {
                    a.fold(per_link[at].clone());
                } else {
                    b.fold(per_link[at].clone());
                }
            }
            b.merge(a);
            b.finalize(run.pairs.clone());
            b
        };
        let x = build(&[0, 1, 2, 3, 4, 5]);
        let y = build(&[5, 3, 1, 4, 2, 0]);
        let bx = control_mean_summary(&x.link_refs(), Metric::Bitrate);
        let by = control_mean_summary(&y.link_refs(), Metric::Bitrate);
        assert_eq!(bx.to_bits(), by.to_bits());
        let ex = user_level_effect_summary(&x.link_refs(), Metric::Bitrate, bx).unwrap();
        let ey = user_level_effect_summary(&y.link_refs(), Metric::Bitrate, by).unwrap();
        assert_eq!(ex.relative.to_bits(), ey.relative.to_bits());
        assert_eq!(ex.se.to_bits(), ey.se.to_bits());
        // Sketches are set-semantics: identical representation too.
        assert_eq!(
            x.sketch(Metric::Bitrate, true),
            y.sketch(Metric::Bitrate, true)
        );
    }

    #[test]
    fn ground_truth_from_summaries_matches_record_path() {
        let base = small_base();
        let specs = LinkPopulation::moderate(base.clone(), 3, 7).sample();
        let at = |p: f64| {
            let run = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p }, 21).run();
            let mut s = FleetSummary::new(64);
            for l in &run.links {
                s.fold(FleetLinkSummary::from_run(l, 64));
            }
            s.finalize(run.pairs.clone());
            (run, s)
        };
        let (rt, st) = at(1.0);
        let (rc, sc) = at(0.0);
        let record = super::super::ground_truth_tte_from_runs(&rt, &rc, Metric::Bitrate).unwrap();
        let summary = ground_truth_tte_from_summaries(&st, &sc, Metric::Bitrate).unwrap();
        assert!(rel_close(record, summary, 1e-9), "{record} vs {summary}");
    }

    #[test]
    fn fleet_sketch_tracks_arm_quantiles() {
        let design = FleetDesign::UserLevel { p: 0.5 };
        let (run, summary, _) = run_and_summarize(4, &design, 17);
        // Exact regime: capacity far above the session count.
        let mut vals: Vec<f64> = run
            .links
            .iter()
            .flat_map(|l| l.sessions.iter())
            .filter(|s| s.treated)
            .map(|s| Metric::Throughput.of(s))
            .filter(|v| v.is_finite())
            .collect();
        let sk = summary.sketch(Metric::Throughput, true);
        if sk.is_exact() {
            vals.sort_by(f64::total_cmp);
            let q = sk.quantile(0.5).unwrap();
            let want = expstats::quantiles::quantile_sorted(&vals, 0.5);
            assert_eq!(q.to_bits(), want.to_bits());
        } else {
            // Subsampled regime: the median is still in the right
            // neighborhood.
            let med = sk.quantile(0.5).unwrap();
            let want = expstats::quantiles::quantile(&vals, 0.5).unwrap();
            assert!(rel_close(med, want, 0.25), "{med} vs {want}");
        }
        assert_eq!(sk.total() as usize, vals.len());
    }
}
