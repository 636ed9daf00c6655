//! The quarantine contract: a fault-tolerant sweep must degrade
//! *transparently* — surviving links bit-identical to a clean sweep
//! restricted to the same set, quarantined links reported, results
//! deterministic under work stealing — and `FailFast` must keep its
//! pre-existing panic-propagation semantics at any thread count.

use repro_bench::derive_seeds;
use repro_bench::runner::{FailurePolicy, FleetSweep, Runner, SeedRun};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{
    run_fleet_link_with, FleetDesign, FleetRun, FleetSim, LinkPopulation, LinkSpec,
};
use streamsim::session::{LinkId, Metric, SessionRecord};
use streamsim::telemetry::{TelemetryFaults, TelemetryStats};
use streamsim::{RoutingConfig, RoutingPolicy};
use unbiased::fleet::{
    control_mean_summary, paired_effect_summary, DegradedReport, FleetLinkSummary, FleetSummary,
    DEFAULT_SKETCH_CAP,
};

fn small_base() -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps: 30e6,
        peak_arrivals_per_s: 0.24 * 0.03,
        mean_watch_s: 1500.0,
        ..Default::default()
    }
}

fn specs(n: usize) -> Vec<LinkSpec> {
    LinkPopulation::moderate(small_base(), n, 99).sample()
}

fn design() -> FleetDesign {
    FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
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

/// Every delivered record and telemetry ledger of a record sweep.
fn fleet_bits(runs: &[SeedRun<FleetRun>]) -> Vec<(Vec<RecordBits>, TelemetryStats)> {
    runs.iter()
        .flat_map(|r| &r.result.links)
        .map(|l| (l.sessions.iter().map(record_bits).collect(), l.telemetry))
        .collect()
}

/// Quarantined sweep == clean sweep restricted to the surviving links,
/// bitwise: same link summaries (Welford cells compare by exact f64
/// equality), same sketches, same pair matching — the only difference
/// is the degraded report.
#[test]
fn quarantined_sweep_is_bit_identical_to_clean_sweep_over_survivors() {
    let base = small_base();
    let specs = specs(6);
    let design = design();
    let seeds = derive_seeds(4242, 2);
    let crashed = vec![1usize, 4];
    let faults = TelemetryFaults {
        crash_links: crashed.clone(),
        ..TelemetryFaults::none(7)
    };

    let quarantined = Runner::with_threads(3).fleet_summaries(
        &FleetSweep {
            faults: Some(&faults),
            ..FleetSweep::new(&base, &specs, &design, &seeds)
        },
        DEFAULT_SKETCH_CAP,
        FailurePolicy::Quarantine { max_failures: 8 },
    );

    for (&seed, run) in seeds.iter().zip(&quarantined) {
        // Clean reference: the same fleet world (same per-link sim
        // seeds) on the tick loop, folded in link order, skipping the
        // crashed links.
        let (jobs, pairs) = FleetSim::new(&base, &specs, &design, seed).into_parts();
        let mut expected = FleetSummary::new(DEFAULT_SKETCH_CAP);
        for job in &jobs {
            if crashed.contains(&job.link) {
                continue;
            }
            let link_run = run_fleet_link_with(job, EngineBackend::Tick);
            expected.fold(FleetLinkSummary::from_run(&link_run, DEFAULT_SKETCH_CAP));
        }
        expected.finalize(pairs);

        // The degraded report names exactly the crashed links, sorted.
        let got_links: Vec<usize> = run
            .result
            .degraded
            .quarantined
            .iter()
            .map(|q| q.link)
            .collect();
        assert_eq!(got_links, crashed, "seed {seed}");
        for q in &run.result.degraded.quarantined {
            assert!(
                q.reason.contains("crashed"),
                "panic message preserved, got {:?}",
                q.reason
            );
        }

        // Everything else is bit-identical to the clean restriction.
        let mut scrubbed = run.result.clone();
        scrubbed.degraded = DegradedReport::default();
        assert_eq!(scrubbed, expected, "seed {seed}");
    }
}

/// Quarantine-mode sweeps are deterministic under work stealing: 1, 2
/// and 4 workers produce identical summaries *and* identical degraded
/// reports, with real telemetry faults layered on top of the crashes.
#[test]
fn quarantine_results_are_deterministic_across_thread_counts() {
    let base = small_base();
    let specs = specs(5);
    let design = design();
    let seeds = derive_seeds(11, 2);
    let faults = TelemetryFaults {
        drop_mcar: 0.05,
        drop_congested: 0.3,
        duplicate_p: 0.05,
        reorder_window: 3,
        crash_links: vec![2],
        ..TelemetryFaults::none(13)
    };
    let spec = FleetSweep {
        faults: Some(&faults),
        ..FleetSweep::new(&base, &specs, &design, &seeds)
    };
    let sweep = |threads: usize| {
        Runner::with_threads(threads).fleet_summaries(
            &spec,
            256,
            FailurePolicy::Quarantine { max_failures: 4 },
        )
    };
    let sequential = sweep(1);
    for run in &sequential {
        assert_eq!(run.result.degraded.len(), 1);
        assert_eq!(run.result.links.len(), 4);
        assert!(run.result.telemetry.loss_fraction() > 0.0);
    }
    for threads in [2, 4] {
        assert_eq!(sweep(threads), sequential, "threads {threads}");
    }
}

/// `FailFast` still propagates the first job panic at every thread
/// count — quarantine machinery must not leak into the default path.
#[test]
fn fail_fast_propagates_panics_at_any_thread_count() {
    let base = small_base();
    let specs = specs(4);
    let design = design();
    let faults = TelemetryFaults {
        crash_links: vec![3],
        ..TelemetryFaults::none(0)
    };
    let sweep = FleetSweep {
        faults: Some(&faults),
        ..FleetSweep::new(&base, &specs, &design, &[5])
    };
    for threads in [1usize, 2, 4] {
        let result = std::panic::catch_unwind(|| {
            Runner::with_threads(threads).fleet_summaries(&sweep, 64, FailurePolicy::FailFast)
        });
        assert!(result.is_err(), "threads {threads}: panic must propagate");
        // The record sink has no quarantine: it always fails fast.
        let result =
            std::panic::catch_unwind(|| Runner::with_threads(threads).fleet_records(&sweep));
        assert!(
            result.is_err(),
            "threads {threads}: record sink must propagate"
        );
    }
}

/// A non-finite base config is rejected once, before any job is built,
/// naming the offending field — not mid-sweep in some worker.
#[test]
#[should_panic(expected = "queue_capacity_s")]
fn sweep_rejects_non_finite_base_config() {
    let base = StreamConfig {
        queue_capacity_s: f64::NAN,
        ..small_base()
    };
    let specs = specs(2);
    let design = design();
    let sweep = FleetSweep::new(&base, &specs, &design, &[5]);
    Runner::with_threads(1).fleet_summaries(&sweep, 64, FailurePolicy::FailFast);
}

/// Exceeding `max_failures` turns quarantine back into fail-fast: mass
/// failure means the world is broken, not one link.
#[test]
fn quarantine_budget_exhaustion_propagates() {
    let base = small_base();
    let specs = specs(5);
    let design = design();
    let faults = TelemetryFaults {
        crash_links: vec![0, 2, 4],
        ..TelemetryFaults::none(0)
    };
    let sweep = FleetSweep {
        faults: Some(&faults),
        ..FleetSweep::new(&base, &specs, &design, &[5])
    };
    let result = std::panic::catch_unwind(|| {
        Runner::with_threads(2).fleet_summaries(
            &sweep,
            64,
            FailurePolicy::Quarantine { max_failures: 2 },
        )
    });
    assert!(result.is_err(), "third failure must exceed the budget of 2");

    // With budget exactly equal to the failure count, the sweep survives.
    let ok = Runner::with_threads(2).fleet_summaries(
        &sweep,
        64,
        FailurePolicy::Quarantine { max_failures: 3 },
    );
    assert_eq!(ok[0].result.degraded.len(), 3);
    assert_eq!(ok[0].result.links.len(), 2);
}

/// Faults are applied post-engine: the delivered record stream (and so
/// the whole summary) is identical across tick and event backends and
/// across thread counts — on an unrouted fleet and on a routed one,
/// where the shared arrival pre-pass feeds the same fault pipeline.
#[test]
fn faulty_sweeps_agree_across_engine_backends() {
    let base = small_base();
    let specs = specs(3);
    let design = design();
    let seeds = [21u64];
    let faults = TelemetryFaults {
        drop_mcar: 0.1,
        drop_congested: 0.4,
        duplicate_p: 0.1,
        corrupt_nan_p: 0.02,
        reorder_window: 5,
        ..TelemetryFaults::none(3)
    };
    let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, 3);
    for routing in [None, Some(&routing)] {
        let run = |threads, backend| {
            let sweep = FleetSweep {
                routing,
                faults: Some(&faults),
                backend,
                ..FleetSweep::new(&base, &specs, &design, &seeds)
            };
            let runner = Runner::with_threads(threads);
            let summaries =
                runner.fleet_summaries(&sweep, 128, FailurePolicy::Quarantine { max_failures: 0 });
            (summaries, runner.fleet_records(&sweep))
        };
        let (tick_summaries, tick_records) = run(1, EngineBackend::Tick);
        assert!(tick_summaries[0].result.telemetry.loss_fraction() > 0.0);
        for (threads, backend) in [
            (2, EngineBackend::Tick),
            (1, EngineBackend::Event),
            (2, EngineBackend::Event),
        ] {
            let (summaries, records) = run(threads, backend);
            let what = format!(
                "routed {}, {threads} threads, {backend:?}",
                routing.is_some()
            );
            // `FleetSummary` equality is exact f64 equality, and every
            // delivered record (NaN-corrupted fields included) and ledger
            // must match bitwise.
            assert_eq!(summaries, tick_summaries, "{what}: summaries");
            assert_eq!(
                fleet_bits(&records),
                fleet_bits(&tick_records),
                "{what}: delivered records"
            );
        }
    }
}

/// Regression: a quarantined link that belongs to a matched pair must
/// drop its pair out of the paired estimate (one fewer cluster), not
/// panic looking the link up in the summary.
#[test]
fn paired_estimate_skips_pairs_with_a_quarantined_member() {
    let base = small_base();
    let specs = specs(6);
    let design = FleetDesign::StratifiedPairs {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let faults = TelemetryFaults {
        crash_links: vec![1],
        ..TelemetryFaults::none(7)
    };
    let sweep = FleetSweep::new(&base, &specs, &design, &[4242]);
    let clean = Runner::with_threads(2).fleet_summaries(&sweep, 256, FailurePolicy::FailFast);
    let quarantined = Runner::with_threads(2).fleet_summaries(
        &FleetSweep {
            faults: Some(&faults),
            ..sweep
        },
        256,
        FailurePolicy::Quarantine { max_failures: 4 },
    );
    let (clean, quarantined) = (&clean[0].result, &quarantined[0].result);
    assert_eq!(quarantined.pairs, clean.pairs);
    assert_eq!(quarantined.pairs.len(), 3);
    assert!(
        quarantined.pairs.iter().any(|&(t, c)| t == 1 || c == 1),
        "the crashed link must sit in a pair for this test to bite"
    );
    assert_eq!(quarantined.degraded.len(), 1);

    let baseline = control_mean_summary(&clean.link_refs(), Metric::Bitrate);
    let full = paired_effect_summary(clean, Metric::Bitrate, baseline).unwrap();
    let survived = paired_effect_summary(quarantined, Metric::Bitrate, baseline).unwrap();
    assert_eq!(survived.n_clusters + 1, full.n_clusters);
    assert!(survived.relative.is_finite());
}
