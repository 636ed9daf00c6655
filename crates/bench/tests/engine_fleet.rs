//! Fleet-scale backend agreement: sweeping a fleet on the hybrid
//! tick/event engine must reproduce the tick engine's **estimators** to
//! ≤1e-9 relative.
//!
//! Per-link session records are bit-identical across backends (the
//! single-link contract, `tests/engine_oracle.rs`), so everything
//! derived from records — user-level effects with CRV1 clustered SEs,
//! link-level effects, the aggregation comparison, streaming summary
//! folds — must carry that identity through. The ≤1e-9 tolerance (not
//! bitwise) mirrors the hourly-stats contract: the comparison goes
//! through `FleetEffect`s whose inputs are already bit-identical, so
//! any drift beyond noise means a backend leaked into the estimator
//! path.

use repro_bench::runner::{derive_seeds, FailurePolicy, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{FleetDesign, FleetLinkRun, LinkPopulation};
use streamsim::session::Metric;
use unbiased::fleet::{
    aggregation_comparison, control_mean, control_mean_summary, link_level_effect,
    user_level_effect, user_level_effect_summary, FleetEffect, DEFAULT_SKETCH_CAP,
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

fn assert_effects_close(tick: &FleetEffect, event: &FleetEffect, what: &str) {
    assert!(
        rel_close(tick.relative, event.relative),
        "{what} relative: {} vs {}",
        tick.relative,
        event.relative
    );
    assert!(
        rel_close(tick.se, event.se),
        "{what} se: {} vs {}",
        tick.se,
        event.se
    );
    assert!(
        rel_close(tick.ci95.0, event.ci95.0) && rel_close(tick.ci95.1, event.ci95.1),
        "{what} ci: {:?} vs {:?}",
        tick.ci95,
        event.ci95
    );
    assert_eq!(tick.n_sessions, event.n_sessions, "{what} n_sessions");
    assert_eq!(tick.n_clusters, event.n_clusters, "{what} n_clusters");
}

/// Record-based sweep on both backends: per-link records bit-identical,
/// every estimator within ≤1e-9.
#[test]
fn fleet_estimators_agree_across_backends() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 12, 31).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(99, 2);
    let runner = Runner::with_threads(4);
    let event = FleetSweep::new(&base, &specs, &design, &seeds);
    let tick = runner.fleet_records(&FleetSweep {
        backend: EngineBackend::Tick,
        ..event
    });
    let event = runner.fleet_records(&event);

    for (t, e) in tick.iter().zip(&event) {
        assert_eq!(t.seed, e.seed);
        assert_eq!(t.result.pairs, e.result.pairs);
        assert_eq!(t.result.links.len(), e.result.links.len());
        // The per-link record streams are the single-link contract:
        // spot-check bit-identity on the sufficient statistics before
        // comparing estimators built from them.
        for (tl, el) in t.result.links.iter().zip(&e.result.links) {
            assert_eq!(tl.link, el.link);
            assert_eq!(tl.sessions.len(), el.sessions.len(), "link {:?}", tl.link);
            let sum = |l: &FleetLinkRun| l.sessions.iter().map(|s| s.bytes).sum::<f64>().to_bits();
            assert_eq!(sum(tl), sum(el), "link {:?} bytes fingerprint", tl.link);
        }

        let tlinks: Vec<&FleetLinkRun> = t.result.links.iter().collect();
        let elinks: Vec<&FleetLinkRun> = e.result.links.iter().collect();
        for metric in [Metric::Bitrate, Metric::Throughput, Metric::PlayDelay] {
            let tb = control_mean(&tlinks, metric);
            let eb = control_mean(&elinks, metric);
            assert!(rel_close(tb, eb), "{metric:?} control mean: {tb} vs {eb}");
            let tu = user_level_effect(&tlinks, metric, tb).unwrap();
            let eu = user_level_effect(&elinks, metric, eb).unwrap();
            assert_effects_close(&tu, &eu, "user-level");
            let tl = link_level_effect(&tlinks, metric, tb).unwrap();
            let el = link_level_effect(&elinks, metric, eb).unwrap();
            assert_effects_close(&tl, &el, "link-level");
            let ta = aggregation_comparison(&tlinks, metric, tb).unwrap();
            let ea = aggregation_comparison(&elinks, metric, eb).unwrap();
            assert_effects_close(&ta.iid, &ea.iid, "iid");
            assert_effects_close(&ta.clustered, &ea.clustered, "clustered CRV1");
            assert_effects_close(&ta.link_means, &ea.link_means, "link means");
        }
    }
}

/// Bounded-memory streaming sweep on the event backend vs the tick
/// record oracle: summary-based estimators must agree to ≤1e-9, so the
/// fast backend composes with the low-memory aggregation path.
#[test]
fn fleet_streaming_summaries_agree_across_backends() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 12, 31).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(7, 2);
    let runner = Runner::with_threads(4);
    let event = FleetSweep::new(&base, &specs, &design, &seeds);
    let tick = runner.fleet_records(&FleetSweep {
        backend: EngineBackend::Tick,
        ..event
    });
    let event = runner.fleet_summaries(&event, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast);

    for (t, e) in tick.iter().zip(&event) {
        assert_eq!(t.seed, e.seed);
        let tlinks: Vec<&FleetLinkRun> = t.result.links.iter().collect();
        let elinks = e.result.link_refs();
        for metric in [Metric::Bitrate, Metric::Throughput] {
            let tb = control_mean(&tlinks, metric);
            let eb = control_mean_summary(&elinks, metric);
            assert!(rel_close(tb, eb), "{metric:?} control mean: {tb} vs {eb}");
            let tu = user_level_effect(&tlinks, metric, tb).unwrap();
            let eu = user_level_effect_summary(&elinks, metric, eb).unwrap();
            assert_effects_close(&tu, &eu, "user-level streaming");
        }
    }
}
