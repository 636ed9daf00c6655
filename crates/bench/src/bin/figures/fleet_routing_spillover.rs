//! Routing spillover — what cross-link session routing does to the
//! fleet designs.
//!
//! The fleet figures so far kept links independent: each drew its own
//! arrival stream, so cluster (link-level) randomization had clean
//! clusters and recovered the total treatment effect. This figure turns
//! on the shared arrival router ([`streamsim::routing`]) and sweeps the
//! spillover strength — the number of candidate links `k` a session may
//! be routed to. At `k = 1` every session is pinned to its home link
//! (zero spillover, the pre-routing world); as `k` grows, the
//! least-loaded router reacts to the treatment itself: capped (treated)
//! links *look* lighter, so the router steers extra sessions onto them,
//! and the treated clusters are no longer exchangeable with control —
//! the Li et al. stochastic-congestion regime where cluster
//! randomization breaks.
//!
//! Two designs face the same routed fleets:
//! * **link-level** cluster randomization — its bias vs the routed
//!   counterfactual ground truth should grow with `k`;
//! * **staggered switchbacks** analyzed with an explicit carryover
//!   burn-in ([`unbiased::fleet::switchback_effect`]) — each link
//!   alternates arms daily, so the router's load-shifting follows the
//!   alternation instead of accumulating against one arm, and the
//!   within-link contrast survives.
//!
//! Secondary tables vary the routing policy and the home-link load
//! imbalance at fixed `k`.

use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use repro_bench::{
    coverage_cell, derive_seeds, fleet_ground_truths, FailurePolicy, FigCell, FleetSweep, Runner,
    SeedRun,
};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, FleetLinkRun, LinkSpec};
use streamsim::session::Metric;
use streamsim::{RoutingConfig, RoutingPolicy};
use unbiased::fleet::{
    control_mean, control_mean_summary, link_level_effect_adjusted_summary,
    link_level_effect_summary, switchback_effect, FleetEffect, DEFAULT_SKETCH_CAP,
};

/// The congestion-coupled headline metric: routing spillover moves
/// load, and load moves throughput.
const METRIC: Metric = Metric::Throughput;

/// Hours dropped after every switchback arm flip (and at cold start):
/// the link's queue and the clients' buffers still reflect the previous
/// arm for a while after the allocation changes.
const BURN_IN_HOURS: usize = 3;

struct Scenario {
    truth: Vec<f64>,
    link: Vec<SeedRun<Result<FleetEffect, String>>>,
    link_adj: Vec<SeedRun<Result<FleetEffect, String>>>,
    switchback: Vec<SeedRun<Result<FleetEffect, String>>>,
}

fn run_scenario(
    runner: &Runner,
    base: &StreamConfig,
    specs: &[LinkSpec],
    routing: &RoutingConfig,
    seeds: &[u64],
) -> Scenario {
    // Link-level design on the streaming path (summary estimators).
    let cluster = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let cluster_sweep = FleetSweep {
        routing: Some(routing),
        ..FleetSweep::new(base, specs, &cluster, seeds)
    };
    // Ground truth under *this* routing config: routing is part of the
    // estimand.
    let truth = fleet_ground_truths(runner, &cluster_sweep, &[METRIC]).remove(0);
    let streaming =
        runner.fleet_summaries(&cluster_sweep, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast);
    let link = streaming
        .iter()
        .map(|r| {
            let links = r.result.link_refs();
            let b = control_mean_summary(&links, METRIC);
            SeedRun {
                seed: r.seed,
                result: link_level_effect_summary(&links, METRIC, b).map_err(|e| e.to_string()),
            }
        })
        .collect();
    let link_adj = streaming
        .iter()
        .map(|r| {
            let links = r.result.link_refs();
            let b = control_mean_summary(&links, METRIC);
            SeedRun {
                seed: r.seed,
                result: link_level_effect_adjusted_summary(&links, METRIC, b)
                    .map_err(|e| e.to_string()),
            }
        })
        .collect();
    // Switchback design on the record path: the burn-in estimator needs
    // each session's day and hour plus the link's realized schedule.
    let sb_design = FleetDesign::StaggeredSwitchback {
        p_hi: 0.95,
        p_lo: 0.05,
        period_days: 1,
    };
    let switchback = runner
        .fleet_records(&FleetSweep {
            routing: Some(routing),
            ..FleetSweep::new(base, specs, &sb_design, seeds)
        })
        .into_iter()
        .map(|r| {
            let links: Vec<&FleetLinkRun> = r.result.links.iter().collect();
            let b = control_mean(&links, METRIC);
            SeedRun {
                seed: r.seed,
                result: switchback_effect(&links, METRIC, b, BURN_IN_HOURS)
                    .map_err(|e| e.to_string()),
            }
        })
        .collect();
    Scenario {
        truth,
        link,
        link_adj,
        switchback,
    }
}

/// Mean absolute bias vs the per-seed routed ground truth (NaN-truth or
/// failed seeds are skipped).
fn mean_abs_bias(runs: &[SeedRun<Result<FleetEffect, String>>], truths: &[f64]) -> f64 {
    let biases: Vec<f64> = runs
        .iter()
        .zip(truths)
        .filter_map(|(r, &t)| {
            let e = r.result.as_ref().ok()?;
            t.is_finite().then(|| (e.relative - t).abs())
        })
        .collect();
    if biases.is_empty() {
        f64::NAN
    } else {
        biases.iter().sum::<f64>() / biases.len() as f64
    }
}

fn bias_cell(runs: &[SeedRun<Result<FleetEffect, String>>], truths: &[f64]) -> FigCell {
    let b = mean_abs_bias(runs, truths);
    FigCell::value(b, format!("{:.2}pp", b * 100.0))
}

fn truth_cell(truths: &[f64]) -> FigCell {
    let finite: Vec<f64> = truths.iter().copied().filter(|t| t.is_finite()).collect();
    if finite.is_empty() {
        return FigCell::missing();
    }
    let m = finite.iter().sum::<f64>() / finite.len() as f64;
    FigCell::value(m, format!("{:+.1}%", m * 100.0))
}

fn scenario_row(rep: &mut FigureReport, table: usize, label: &str, s: &Scenario) {
    let link_est = rep.estimator_cell(&s.link, &format!("{label}/link"), fmt_pct, |r| {
        r.clone().map(|e| e.relative)
    });
    let sb_est = rep.estimator_cell(
        &s.switchback,
        &format!("{label}/switchback"),
        fmt_pct,
        |r| r.clone().map(|e| e.relative),
    );
    let cells = vec![
        truth_cell(&s.truth),
        link_est,
        bias_cell(&s.link, &s.truth),
        coverage_cell(s.link.iter().map(|r| &r.result), &s.truth),
        bias_cell(&s.link_adj, &s.truth),
        sb_est,
        bias_cell(&s.switchback, &s.truth),
        coverage_cell(s.switchback.iter().map(|r| &r.result), &s.truth),
    ];
    rep.row(table, label, cells);
}

pub(crate) fn report() -> FigureReport {
    let n_links = fh::fleet_links(64);
    // Even day count so the daily switchback alternation is balanced
    // within the horizon (odd horizons leave one arm a day ahead, which
    // the slow router would read as a persistent demand difference).
    let days = fh::stream_days(6).next_multiple_of(2);
    let (base, specs) = repro_bench::fleet_population(n_links, days, 7171);
    // Floor of 5 replications even in quick mode: the headline claim is
    // *monotone* link-level bias in k, and 3-seed means still wobble a
    // couple of pp between adjacent k values.
    let seeds = derive_seeds(7171, fh::replications(8).max(5));
    let runner = Runner::new();

    let ks = [1usize, 2, 4, 8];
    let k_scenarios: Vec<Scenario> = ks
        .iter()
        .map(|&k| {
            run_scenario(
                &runner,
                &base,
                &specs,
                &RoutingConfig::new(RoutingPolicy::LeastLoad, k),
                &seeds,
            )
        })
        .collect();

    let mut rep = FigureReport::new(
        "fleet_routing_spillover",
        format!(
            "Routing spillover: cluster designs vs staggered switchbacks \
             under shared arrival routing ({n_links} links, least-load k sweep)"
        ),
    )
    .seeds(seeds.len());

    let t = rep.add_table(
        "avg throughput estimates vs routed ground truth, by candidate set size k (least-load)",
        vec![
            "k",
            "ground-truth TTE",
            "link-level",
            "|bias|",
            "covers",
            "ancova |bias|",
            "switchback (burn-in)",
            "|bias|",
            "covers",
        ],
    );
    for (k, s) in ks.iter().zip(&k_scenarios) {
        scenario_row(&mut rep, t, &format!("k={k}"), s);
    }
    rep.series(
        "link-level mean |bias| vs k",
        k_scenarios
            .iter()
            .map(|s| mean_abs_bias(&s.link, &s.truth))
            .collect(),
    );
    rep.series(
        "switchback mean |bias| vs k",
        k_scenarios
            .iter()
            .map(|s| mean_abs_bias(&s.switchback, &s.truth))
            .collect(),
    );

    // Routing-policy comparison at fixed k: the spillover needs the
    // router to *react to load* — the oblivious random walk routes
    // without looking, so it spreads sessions but cannot chase the
    // treatment.
    let pol_k = 4usize;
    let pt = rep.add_table(
        "routing-policy comparison at k=4",
        vec![
            "policy",
            "ground-truth TTE",
            "link-level",
            "|bias|",
            "covers",
            "ancova |bias|",
            "switchback (burn-in)",
            "|bias|",
            "covers",
        ],
    );
    for policy in [
        RoutingPolicy::WeightedRandom,
        RoutingPolicy::RandomWalkOblivious,
    ] {
        let s = run_scenario(
            &runner,
            &base,
            &specs,
            &RoutingConfig::new(policy, pol_k),
            &seeds,
        );
        scenario_row(&mut rep, pt, policy.name(), &s);
    }
    // The least-load row at this k is already computed on the main axis.
    if let Some(idx) = ks.iter().position(|&k| k == pol_k) {
        scenario_row(
            &mut rep,
            pt,
            RoutingPolicy::LeastLoad.name(),
            &k_scenarios[idx],
        );
    }

    // Load-imbalance sensitivity: skewing home-link popularity
    // concentrates the shared stream on a few hot links, which gives
    // the router more sessions to move.
    let it = rep.add_table(
        "home-load imbalance sensitivity at k=4 (least-load)",
        vec![
            "imbalance",
            "ground-truth TTE",
            "link-level",
            "|bias|",
            "covers",
            "ancova |bias|",
            "switchback (burn-in)",
            "|bias|",
            "covers",
        ],
    );
    for imb in [0.5f64, 2.0] {
        let mut cfg = RoutingConfig::new(RoutingPolicy::LeastLoad, pol_k);
        cfg.imbalance = imb;
        let s = run_scenario(&runner, &base, &specs, &cfg, &seeds);
        scenario_row(&mut rep, it, &format!("{imb:.1}"), &s);
    }

    rep.note(
        "(k=1 pins every session to its home link: the zero-spillover baseline, identical \
         to the unrouted fleet; larger k lets the least-load router chase the capped arm's \
         apparent headroom, so link-level cluster estimates drift from the routed ground truth)",
    );
    rep.note(format!(
        "(switchback rows: staggered daily switchbacks analyzed within-link with a \
         {BURN_IN_HOURS}h carryover burn-in after every arm flip; the router's load-shifting \
         alternates with the arms instead of accumulating against one cluster)"
    ));
    rep.note(
        "(ground truth per scenario: the same routed fleet rerun all-treated and all-control \
         under the same routing config — routing is part of the estimand, so each k has its own truth)",
    );
    rep
}
