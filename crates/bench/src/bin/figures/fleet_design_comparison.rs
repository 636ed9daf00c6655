//! Fleet design comparison — the fleet-scale generalization of
//! Figure 10: the same heterogeneous link fleet analyzed under
//! user-level (session Bernoulli) and link-level (cluster) randomized
//! designs, against the simulator's counterfactual ground-truth TTE.
//!
//! Under congestion interference the two designs answer differently:
//! the user-level contrast targets τ(p) — treated and control sessions
//! share every bottleneck, so spillover cancels out of the comparison —
//! while the link-level contrast puts whole links in one arm and keeps
//! the within-link spillover inside the estimate. The "covers truth"
//! columns count the replications whose within-seed cluster-robust 95%
//! CI covers that seed's ground-truth TTE: link-level should cover,
//! user-level should miss for the congestion-coupled metrics.
//!
//! Runs on the streaming aggregation path: each link's sessions are
//! folded into [`FleetLinkSummary`] moments as the link finishes, so
//! memory scales with links, not sessions.

use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use repro_bench::{
    coverage_cell, derive_seeds, fleet_ground_truths, FailurePolicy, FleetSweep, Runner, SeedRun,
};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, LinkSpec};
use streamsim::session::Metric;
use unbiased::fleet::{
    control_mean_summary, link_level_effect_summary, strata_summary, user_level_effect_summary,
    FleetEffect, FleetLinkSummary, FleetSummary, DEFAULT_SKETCH_CAP,
};

const METRICS: &[Metric] = &[
    Metric::Throughput,
    Metric::Bitrate,
    Metric::MinRtt,
    Metric::RebufferSessions,
];

use repro_bench::{fleet_strata_count, fleet_strata_labels};

/// Per-seed estimates for one design: `effects[m]` is metric `m`'s
/// fleet effect, `strata_effects[s]` the throughput effect within
/// congestion stratum `s`.
struct SeedEstimates {
    effects: Vec<Result<FleetEffect, String>>,
    strata_effects: Vec<Result<FleetEffect, String>>,
}

fn estimate_seed(
    summary: &FleetSummary,
    estimator: impl Fn(&[&FleetLinkSummary], Metric, f64) -> Result<FleetEffect, String>,
) -> SeedEstimates {
    let links = summary.link_refs();
    let effects = METRICS
        .iter()
        .map(|&m| {
            let base = control_mean_summary(&links, m);
            estimator(&links, m, base)
        })
        .collect();
    let strata_effects = strata_summary(summary, fleet_strata_count(summary.links.len()))
        .into_iter()
        .map(|group| {
            let base = control_mean_summary(&group, Metric::Throughput);
            estimator(&group, Metric::Throughput, base)
        })
        .collect();
    SeedEstimates {
        effects,
        strata_effects,
    }
}

/// Run one design across the seeds on the streaming path: the sweep
/// folds each link's sessions into moment summaries as jobs finish, so
/// a 200-link × 8-seed sweep never materializes its ~1M session records.
fn sweep_design(
    runner: &Runner,
    base: &StreamConfig,
    specs: &[LinkSpec],
    design: &FleetDesign,
    seeds: &[u64],
    estimator: impl Fn(&[&FleetLinkSummary], Metric, f64) -> Result<FleetEffect, String>,
) -> Vec<SeedRun<SeedEstimates>> {
    let sweep = FleetSweep::new(base, specs, design, seeds);
    runner
        .fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast)
        .into_iter()
        .map(|r| SeedRun {
            seed: r.seed,
            result: estimate_seed(&r.result, &estimator),
        })
        .collect()
}

pub(crate) fn report() -> FigureReport {
    let n_links = fh::fleet_links(200);
    let days = fh::stream_days(2);
    let (base, specs) = repro_bench::fleet_population(n_links, days, 4041);
    let seeds = derive_seeds(4041, fh::replications(8));
    let runner = Runner::new();

    let user_est = |links: &[&FleetLinkSummary], m: Metric, b: f64| {
        user_level_effect_summary(links, m, b).map_err(|e| e.to_string())
    };
    let link_est = |links: &[&FleetLinkSummary], m: Metric, b: f64| {
        link_level_effect_summary(links, m, b).map_err(|e| e.to_string())
    };

    // Counterfactual ground truth per seed: the same fleet (same
    // per-link seeds) rerun all-treated and all-control.
    // truths[m][seed_idx]: relative TTE.
    let user_design = FleetDesign::UserLevel { p: 0.5 };
    let truths = fleet_ground_truths(
        &runner,
        &FleetSweep::new(&base, &specs, &user_design, &seeds),
        METRICS,
    );

    let user = sweep_design(&runner, &base, &specs, &user_design, &seeds, user_est);
    let link = sweep_design(
        &runner,
        &base,
        &specs,
        &FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        },
        &seeds,
        link_est,
    );

    let mut rep = FigureReport::new(
        "fleet_design_comparison",
        format!(
            "Fleet design comparison: user-level vs link-level randomization \
             ({n_links} heterogeneous links)"
        ),
    )
    .seeds(seeds.len());
    let t = rep.add_table(
        "",
        vec![
            "metric",
            "ground-truth TTE",
            "user-level (link-clustered)",
            "covers truth",
            "link-level (cluster)",
            "covers truth",
        ],
    );
    for (mi, &m) in METRICS.iter().enumerate() {
        let truth_runs: Vec<SeedRun<f64>> = seeds
            .iter()
            .zip(&truths[mi])
            .map(|(&seed, &v)| SeedRun { seed, result: v })
            .collect();
        let truth_cell = rep.metric_cell(
            &truth_runs,
            &format!("ground truth/{}", m.name()),
            fmt_pct,
            |&v| v,
        );
        let user_cell =
            rep.estimator_cell(&user, &format!("user-level/{}", m.name()), fmt_pct, |est| {
                est.effects[mi].clone().map(|e| e.relative)
            });
        let user_cov = coverage_cell(user.iter().map(|r| &r.result.effects[mi]), &truths[mi]);
        let link_cell =
            rep.estimator_cell(&link, &format!("link-level/{}", m.name()), fmt_pct, |est| {
                est.effects[mi].clone().map(|e| e.relative)
            });
        let link_cov = coverage_cell(link.iter().map(|r| &r.result.effects[mi]), &truths[mi]);
        rep.row(
            t,
            m.name(),
            vec![truth_cell, user_cell, user_cov, link_cell, link_cov],
        );
    }

    // Per-stratum throughput effects: the interference gap grows with
    // congestion, which the offered-load strata make visible.
    let st = rep.add_table(
        "avg throughput by congestion stratum (links sorted by offered-load covariate)",
        vec!["stratum", "user-level", "link-level"],
    );
    for (si, label) in fleet_strata_labels(n_links).iter().enumerate() {
        let u = rep.estimator_cell(&user, &format!("user-level/{label}"), fmt_pct, |est| {
            est.strata_effects
                .get(si)
                .cloned()
                .unwrap_or_else(|| Err("stratum missing".into()))
                .map(|e| e.relative)
        });
        let l = rep.estimator_cell(&link, &format!("link-level/{label}"), fmt_pct, |est| {
            est.strata_effects
                .get(si)
                .cloned()
                .unwrap_or_else(|| Err("stratum missing".into()))
                .map(|e| e.relative)
        });
        rep.row(st, *label, vec![u, l]);
    }

    rep.note(
        "(user-level targets tau(0.5): spillover reaches its control arm, so it misses \
         the TTE that link-level cluster randomization recovers; cf. Li et al. 2023)",
    );
    rep.note(
        "(covers truth: replications whose within-seed cluster-robust 95% CI covers that \
         seed's counterfactual all-treated-minus-all-control effect)",
    );
    rep
}
