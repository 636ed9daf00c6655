//! Routed fleet sweeps through the Runner: the shared arrival stream
//! must not cost any of the sweep contracts — bit-identical results
//! across 1/2/4 worker threads, streaming summaries agreeing with the
//! record-based oracle, and tick/event backend parity.

use repro_bench::runner::{derive_seeds, FailurePolicy, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, FleetLinkRun, LinkPopulation};
use streamsim::session::{LinkId, Metric, SessionRecord};
use streamsim::{EngineBackend, RoutingConfig, RoutingPolicy};
use unbiased::fleet::{
    control_mean, control_mean_summary, link_level_effect, link_level_effect_summary,
    user_level_effect, user_level_effect_summary, DEFAULT_SKETCH_CAP,
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

fn design() -> FleetDesign {
    FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    }
}

#[test]
fn routed_streaming_sweep_is_schedule_independent() {
    // The routed acceptance bar: work stealing must not leak into a
    // routed sweep any more than an unrouted one. 1, 2 and 4 threads
    // must produce bit-identical per-link cells and fleet sketches.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 8, 5).sample();
    let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, 3);
    let seeds = derive_seeds(9, 2);
    let design = design();
    let sweep = FleetSweep {
        routing: Some(&routing),
        ..FleetSweep::new(&base, &specs, &design, &seeds)
    };
    let runs: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| Runner::with_threads(t).fleet_summaries(&sweep, 128, FailurePolicy::FailFast))
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
fn routed_streaming_matches_record_oracle() {
    // Summary-based estimators over a routed sweep must agree with the
    // record-based twins to ≤1e-9 relative, same bar as unrouted.
    const TOL: f64 = 1e-9;
    let rel_close = |a: f64, b: f64| (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1e-300);
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 8, 31).sample();
    let routing = RoutingConfig::new(RoutingPolicy::WeightedRandom, 2);
    let seeds = derive_seeds(77, 2);
    let runner = Runner::with_threads(4);
    let design = design();
    let sweep = FleetSweep {
        routing: Some(&routing),
        ..FleetSweep::new(&base, &specs, &design, &seeds)
    };
    let record = runner.fleet_records(&sweep);
    let streaming = runner.fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast);
    assert_eq!(streaming.len(), seeds.len());
    for (r, s) in record.iter().zip(&streaming) {
        assert_eq!(r.seed, s.seed);
        let links: Vec<&FleetLinkRun> = r.result.links.iter().collect();
        let slinks = s.result.link_refs();
        for metric in [Metric::Bitrate, Metric::Throughput] {
            let base_mean = control_mean(&links, metric);
            let sbase = control_mean_summary(&slinks, metric);
            assert!(rel_close(base_mean, sbase), "{metric:?} control mean");
            let u = user_level_effect(&links, metric, base_mean).unwrap();
            let su = user_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(u.relative, su.relative), "user-level relative");
            assert!(rel_close(u.se, su.se), "user-level se");
            let l = link_level_effect(&links, metric, base_mean).unwrap();
            let sl = link_level_effect_summary(&slinks, metric, sbase).unwrap();
            assert!(rel_close(l.relative, sl.relative), "link-level relative");
            assert!(rel_close(l.se, sl.se), "link-level se");
        }
    }
}

/// Every field of a session record, floats as bit patterns (NaN-safe),
/// so equality is bitwise.
type RecordBits = (
    (LinkId, usize, usize, bool, bool, u32, bool, bool, u32),
    [u64; 9],
);

fn record_bits(s: &SessionRecord) -> RecordBits {
    let ids = (
        s.link,
        s.day,
        s.hour,
        s.weekend,
        s.treated,
        s.rebuffer_count,
        s.rebuffered,
        s.cancelled,
        s.switches,
    );
    let floats = [
        s.arrival_s,
        s.throughput_bps,
        s.min_rtt_s,
        s.play_delay_s,
        s.bitrate_bps,
        s.quality,
        s.bytes,
        s.retx_bytes,
        s.duration_s,
    ];
    (ids, floats.map(f64::to_bits))
}

#[test]
fn routed_sweep_backend_parity() {
    // The hybrid engine contract extends to routed fleets under every
    // routing policy: tick and event backends produce bit-identical
    // session records, field for field, so routed record sweeps agree
    // exactly.
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 6, 11).sample();
    let design = design();
    let seeds = [42u64];
    let runner = Runner::with_threads(2);
    for policy in RoutingPolicy::ALL {
        let routing = RoutingConfig::new(policy, 3);
        let event = FleetSweep {
            routing: Some(&routing),
            ..FleetSweep::new(&base, &specs, &design, &seeds)
        };
        let tick = runner.fleet_records(&FleetSweep {
            backend: EngineBackend::Tick,
            ..event
        });
        let event = runner.fleet_records(&event);
        for (t, e) in tick.iter().zip(&event) {
            assert_eq!(t.result.links.len(), e.result.links.len());
            for (lt, le) in t.result.links.iter().zip(&e.result.links) {
                let bits =
                    |l: &FleetLinkRun| l.sessions.iter().map(record_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(lt),
                    bits(le),
                    "{}: link {:?} records",
                    policy.name(),
                    lt.link
                );
            }
        }
    }
}
