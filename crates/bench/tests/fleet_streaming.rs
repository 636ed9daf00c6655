//! Streaming fleet aggregation vs the record-based oracle.
//!
//! The acceptance bar for the streaming path: on a 16-link × 3-seed
//! fleet, every summary-based estimator (user-level with CRV1 clustered
//! SEs, link-level, paired, aggregation comparison) must agree with its
//! record-based twin to ≤1e-9 relative — and the streaming sweep itself
//! must be deterministic under work stealing (bit-identical across
//! thread counts).

use repro_bench::runner::{derive_seeds, FailurePolicy::FailFast, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, FleetLinkRun, LinkPopulation};
use streamsim::session::Metric;
use unbiased::fleet::{
    aggregation_comparison, aggregation_comparison_summary, control_mean, control_mean_summary,
    ground_truth_tte_from_runs, ground_truth_tte_from_summaries, link_level_effect,
    link_level_effect_summary, paired_effect, paired_effect_summary, user_level_effect,
    user_level_effect_summary, FleetEffect, DEFAULT_SKETCH_CAP,
};

fn small_base() -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps: 15e6,
        peak_arrivals_per_s: 0.24 * 0.015,
        mean_watch_s: 1200.0,
        ..Default::default()
    }
}

const TOL: f64 = 1e-9;

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1e-300)
}

fn assert_effects_close(record: &FleetEffect, streaming: &FleetEffect, what: &str) {
    assert!(
        rel_close(record.relative, streaming.relative),
        "{what} relative: {} vs {}",
        record.relative,
        streaming.relative
    );
    assert!(
        rel_close(record.se, streaming.se),
        "{what} se: {} vs {}",
        record.se,
        streaming.se
    );
    assert!(
        rel_close(record.ci95.0, streaming.ci95.0) && rel_close(record.ci95.1, streaming.ci95.1),
        "{what} ci: {:?} vs {:?}",
        record.ci95,
        streaming.ci95
    );
    assert_eq!(record.n_sessions, streaming.n_sessions, "{what} n_sessions");
    assert_eq!(record.n_clusters, streaming.n_clusters, "{what} n_clusters");
}

#[test]
fn streaming_sweep_matches_record_oracle_16x3() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 16, 31).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(77, 3);
    let runner = Runner::with_threads(4);
    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let record = runner.fleet_records(&sweep);
    let streaming = runner.fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailFast);
    assert_eq!(streaming.len(), seeds.len());
    for (r, s) in record.iter().zip(&streaming) {
        assert_eq!(r.seed, s.seed);
        assert_eq!(r.result.links.len(), s.result.links.len());
        assert_eq!(r.result.pairs, s.result.pairs);
        let links: Vec<&FleetLinkRun> = r.result.links.iter().collect();
        let slinks = s.result.link_refs();
        // PlayDelay exercises the NaN-filtering path (cancelled
        // sessions), Bitrate the direct effect, Throughput congestion.
        for metric in [Metric::Bitrate, Metric::Throughput, Metric::PlayDelay] {
            let base_mean = control_mean(&links, metric);
            let sbase = control_mean_summary(&slinks, metric);
            assert!(rel_close(base_mean, sbase), "{metric:?} control mean");
            let u = user_level_effect(&links, metric, base_mean).unwrap();
            let su = user_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert_effects_close(&u, &su, "user-level");
            let l = link_level_effect(&links, metric, base_mean).unwrap();
            let sl = link_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert_effects_close(&l, &sl, "link-level");
            let a = aggregation_comparison(&links, metric, base_mean).unwrap();
            let sa = aggregation_comparison_summary(&slinks, metric, sbase).unwrap();
            assert_effects_close(&a.iid, &sa.iid, "iid");
            assert_effects_close(&a.clustered, &sa.clustered, "clustered CRV1");
            assert_effects_close(&a.link_means, &sa.link_means, "link means");
        }
    }
}

#[test]
fn streaming_paired_matches_record_oracle() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 16, 31).sample();
    let design = FleetDesign::StratifiedPairs {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(123, 3);
    let runner = Runner::with_threads(4);
    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let record = runner.fleet_records(&sweep);
    let streaming = runner.fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailFast);
    for (r, s) in record.iter().zip(&streaming) {
        assert_eq!(s.result.pairs.len(), 8);
        let links: Vec<&FleetLinkRun> = r.result.links.iter().collect();
        let base_mean = control_mean(&links, Metric::Bitrate);
        let p = paired_effect(&r.result, Metric::Bitrate, base_mean).unwrap();
        let sp = paired_effect_summary(&s.result, Metric::Bitrate, base_mean).unwrap();
        assert_effects_close(&p, &sp, "paired");
    }
}

#[test]
fn streaming_ground_truth_matches_record_oracle() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 4, 31).sample();
    let runner = Runner::with_threads(2);
    let seeds = [42u64];
    let at = |p: f64| {
        let design = FleetDesign::UserLevel { p };
        let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
        let record = runner.fleet_records(&sweep);
        let streaming = runner.fleet_summaries(&sweep, 256, FailFast);
        (
            record.into_iter().next().unwrap().result,
            streaming.into_iter().next().unwrap().result,
        )
    };
    let (rt, st) = at(1.0);
    let (rc, sc) = at(0.0);
    let record = ground_truth_tte_from_runs(&rt, &rc, Metric::Bitrate).unwrap();
    let streaming = ground_truth_tte_from_summaries(&st, &sc, Metric::Bitrate).unwrap();
    assert!(rel_close(record, streaming), "{record} vs {streaming}");
}

#[test]
fn streaming_sweep_is_schedule_independent() {
    // Work stealing must not leak into results: different thread counts
    // produce bit-identical estimates and sketches.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 8, 5).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(9, 2);
    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| Runner::with_threads(t).fleet_summaries(&sweep, 128, FailFast))
        .collect();
    for pair in runs.windows(2) {
        for (a, b) in pair[0].iter().zip(&pair[1]) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.result.n_sessions, b.result.n_sessions);
            let (la, lb) = (a.result.link_refs(), b.result.link_refs());
            assert_eq!(la.len(), lb.len());
            for (x, y) in la.iter().zip(&lb) {
                assert_eq!(x.link, y.link);
                for metric in Metric::ALL {
                    let (cx, cy) = (x.cell(metric, true), y.cell(metric, true));
                    assert_eq!(cx.n, cy.n);
                    assert_eq!(cx.mean.to_bits(), cy.mean.to_bits());
                    assert_eq!(cx.m2.to_bits(), cy.m2.to_bits());
                }
            }
            // Fleet-level sketches merge in scheduler order but are
            // set-semantics: identical representation.
            for metric in Metric::ALL {
                assert_eq!(a.result.sketch(metric, true), b.result.sketch(metric, true));
                assert_eq!(
                    a.result.sketch(metric, false),
                    b.result.sketch(metric, false)
                );
            }
        }
    }
}

#[test]
fn streaming_regroup_boundary_is_exact() {
    // Satellite regression: jobs are laid out seed-major and regrouped
    // in specs.len() strides; every seed must get exactly its own links
    // (link indices 0..n in order, correct pair sets) even when the
    // seed count doesn't divide the worker count.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 5, 7).sample();
    let design = FleetDesign::StratifiedPairs {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(33, 3);
    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let streaming = Runner::with_threads(4).fleet_summaries(&sweep, 64, FailFast);
    let record = Runner::with_threads(1).fleet_records(&sweep);
    for (s, r) in streaming.iter().zip(&record) {
        assert_eq!(s.result.links.len(), 5);
        for (i, l) in s.result.links.iter().enumerate() {
            assert_eq!(l.link, i);
        }
        // Pair sets are per-seed randomized; crossing a regroup boundary
        // would hand seed k the pairs of seed k±1.
        assert_eq!(s.result.pairs, r.result.pairs);
        // Session counts per link match the record path exactly.
        for (sl, rl) in s.result.links.iter().zip(&r.result.links) {
            assert_eq!(sl.n_sessions, rl.sessions.len());
            assert_eq!(sl.treated_cluster, rl.treated_cluster);
        }
    }
}
