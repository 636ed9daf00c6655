//! Fleet aggregation CIs — the fleet-scale generalization of
//! Figure 13: the same cluster contrast (treated sessions on treated
//! links vs control sessions on control links) under three uncertainty
//! treatments — iid session-level Welch intervals, link-clustered
//! (CRV1) intervals, and full aggregation to one mean per link — plus
//! the between/within-link effect decomposition that explains *why*
//! clustering matters under interference.
//!
//! Runs on the streaming aggregation path: sessions are folded into
//! per-link moment summaries as each link job finishes, so the sweep's
//! footprint scales with links, not sessions.

use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use repro_bench::{
    derive_seeds, fleet_strata_count, fleet_strata_labels, FailurePolicy, FleetSweep, Runner,
    SeedRun,
};
use streamsim::fleet::FleetDesign;
use streamsim::session::Metric;
use unbiased::fleet::{
    aggregation_comparison_summary, control_mean_summary, fleet_between_within_summary,
    strata_summary, AggregationComparison, FleetSummary, DEFAULT_SKETCH_CAP,
};

const METRICS: &[Metric] = &[
    Metric::Throughput,
    Metric::Bitrate,
    Metric::MinRtt,
    Metric::RebufferSessions,
];

/// Everything one replication contributes.
struct SeedEstimates {
    /// Per metric: the three-way aggregation comparison.
    comparisons: Vec<Result<AggregationComparison, String>>,
    /// Per congestion stratum: throughput comparison within the stratum.
    strata_comparisons: Vec<Result<AggregationComparison, String>>,
    /// Between/within decomposition for throughput (relative units).
    between: Result<f64, String>,
    within: Result<f64, String>,
}

fn estimate_seed(summary: &FleetSummary) -> SeedEstimates {
    let links = summary.link_refs();
    let comparisons = METRICS
        .iter()
        .map(|&m| {
            let base = control_mean_summary(&links, m);
            aggregation_comparison_summary(&links, m, base).map_err(|e| e.to_string())
        })
        .collect();
    let strata_comparisons = strata_summary(summary, fleet_strata_count(summary.links.len()))
        .into_iter()
        .map(|group| {
            let base = control_mean_summary(&group, Metric::Throughput);
            aggregation_comparison_summary(&group, Metric::Throughput, base)
                .map_err(|e| e.to_string())
        })
        .collect();
    let base = control_mean_summary(&links, Metric::Throughput);
    let bw = fleet_between_within_summary(&links, Metric::Throughput);
    let (between, within) = match bw {
        Ok(bw) => (
            bw.between
                .map(|d| d.estimate / base)
                .ok_or_else(|| "no between contrast".to_string()),
            bw.within
                .map(|d| d.estimate / base)
                .ok_or_else(|| "no within contrast".to_string()),
        ),
        Err(e) => (Err(e.to_string()), Err(e.to_string())),
    };
    SeedEstimates {
        comparisons,
        strata_comparisons,
        between,
        within,
    }
}

/// Render `±half-width` of a relative CI as a percentage cell input.
fn rel_half_width(lo: f64, hi: f64) -> f64 {
    (hi - lo) / 2.0
}

pub(crate) fn report() -> FigureReport {
    let n_links = fh::fleet_links(200);
    let days = fh::stream_days(2);
    let (base, specs) = repro_bench::fleet_population(n_links, days, 4041);
    let seeds = derive_seeds(1313, fh::replications(8));
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };

    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let runs: Vec<SeedRun<SeedEstimates>> = Runner::new()
        .fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast)
        .into_iter()
        .map(|r| SeedRun {
            seed: r.seed,
            result: estimate_seed(&r.result),
        })
        .collect();

    let mut rep = FigureReport::new(
        "fleet_aggregation_ci",
        format!(
            "Fleet aggregation CIs: session-iid vs link-clustered vs link-mean intervals \
             ({n_links} links, link-level design)"
        ),
    )
    .seeds(seeds.len());

    // Main table: estimate plus the three CI half-widths per metric.
    let t = rep.add_table(
        "",
        vec![
            "metric",
            "estimate (clustered)",
            "iid +/- (anti-conservative)",
            "clustered +/-",
            "link-mean +/-",
        ],
    );
    for (mi, &m) in METRICS.iter().enumerate() {
        let est = rep.estimator_cell(&runs, &format!("clustered/{}", m.name()), fmt_pct, |e| {
            e.comparisons[mi].clone().map(|c| c.clustered.relative)
        });
        let pick = |f: fn(&AggregationComparison) -> (f64, f64)| {
            move |e: &SeedEstimates| {
                e.comparisons[mi].clone().map(|c| {
                    let (lo, hi) = f(&c);
                    rel_half_width(lo, hi)
                })
            }
        };
        let iid = rep.estimator_cell(
            &runs,
            &format!("iid width/{}", m.name()),
            fmt_pct,
            pick(|c| c.iid.ci95),
        );
        let cl = rep.estimator_cell(
            &runs,
            &format!("clustered width/{}", m.name()),
            fmt_pct,
            pick(|c| c.clustered.ci95),
        );
        let lm = rep.estimator_cell(
            &runs,
            &format!("link-mean width/{}", m.name()),
            fmt_pct,
            pick(|c| c.link_means.ci95),
        );
        rep.row(t, m.name(), vec![est, iid, cl, lm]);
    }

    // Between/within decomposition (throughput): the interference
    // signature — the between-link component carries the spillover the
    // within-link component cancels out.
    let bw = rep.add_table(
        "between/within-link decomposition (avg throughput, relative)",
        vec!["component", "estimate"],
    );
    let between = rep.estimator_cell(&runs, "between-link", fmt_pct, |e| e.between.clone());
    rep.row(bw, "between-link (cluster contrast)", vec![between]);
    let within = rep.estimator_cell(&runs, "within-link", fmt_pct, |e| e.within.clone());
    rep.row(bw, "within-link (session contrast)", vec![within]);

    // Per-stratum table: clustered estimate and interval width by
    // congestion stratum.
    let st = rep.add_table(
        "avg throughput by congestion stratum (links sorted by offered-load covariate)",
        vec![
            "stratum",
            "estimate (clustered)",
            "clustered +/-",
            "link-mean +/-",
        ],
    );
    for (si, label) in fleet_strata_labels(n_links).iter().enumerate() {
        let grab = |f: fn(&AggregationComparison) -> f64| {
            move |e: &SeedEstimates| {
                e.strata_comparisons
                    .get(si)
                    .cloned()
                    .unwrap_or_else(|| Err("stratum missing".into()))
                    .map(|c| f(&c))
            }
        };
        let est = rep.estimator_cell(
            &runs,
            &format!("stratum est/{label}"),
            fmt_pct,
            grab(|c| c.clustered.relative),
        );
        let cl = rep.estimator_cell(
            &runs,
            &format!("stratum clustered width/{label}"),
            fmt_pct,
            grab(|c| rel_half_width(c.clustered.ci95.0, c.clustered.ci95.1)),
        );
        let lm = rep.estimator_cell(
            &runs,
            &format!("stratum link-mean width/{label}"),
            fmt_pct,
            grab(|c| rel_half_width(c.link_means.ci95.0, c.link_means.ci95.1)),
        );
        rep.row(st, *label, vec![est, cl, lm]);
    }

    rep.note(
        "(paper fig13 analogue: iid session intervals shrink with session count and \
         under-cover; clustered and link-mean intervals respect the link count — the \
         real replication unit of a fleet experiment)",
    );
    rep
}
