//! The hybrid tick/event engine must be **bit-identical** to the tick
//! loop on randomized worlds: for any configuration — light enough to
//! spend whole days in guaranteed decoupled spans, or congested enough
//! to force coupled ticks, optimistic rollbacks and prefix salvage —
//! both backends must emit identical session records, float for float
//! by bit pattern, and hourly statistics within the documented ≤1e-9
//! relative tolerance (the spans re-associate per-tick sums).
//!
//! Telemetry faults run after the engine, so each case also pushes both
//! record streams through a composite fault pipeline and requires the
//! delivered streams and their ledgers to match bitwise.
//!
//! This is the engine analogue of `tests/arena_oracle.rs`: there the
//! SoA arena is checked against a scalar client population; here the
//! event-driven engine every production run uses
//! (`EngineBackend::Event`, what `LinkSim::run` runs) is checked against
//! the reference tick loop (`EngineBackend::Tick`). Any divergence is a
//! correctness bug in the span machinery (arrival folding,
//! clone-pricing, undo/rollback, record reordering), never a modeling
//! change.

use proptest::prelude::*;
use streamsim::engine::EngineBackend;
use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, SessionRecord};
use streamsim::sim::LinkSim;
use streamsim::telemetry::{OutageWindow, TelemetryFaults};
use streamsim::StreamConfig;

/// Compare every field of two session records bitwise (floats via
/// `to_bits`, NaN-safe) — same discipline as the arena oracle.
fn assert_records_identical(i: usize, a: &SessionRecord, b: &SessionRecord) {
    assert_eq!(a.link, b.link, "record {i} link");
    assert_eq!(a.day, b.day, "record {i} day");
    assert_eq!(a.hour, b.hour, "record {i} hour");
    assert_eq!(a.weekend, b.weekend, "record {i} weekend");
    assert_eq!(a.treated, b.treated, "record {i} treated");
    assert_eq!(
        a.arrival_s.to_bits(),
        b.arrival_s.to_bits(),
        "record {i} arrival"
    );
    assert_eq!(
        a.throughput_bps.to_bits(),
        b.throughput_bps.to_bits(),
        "record {i} throughput: {} vs {}",
        a.throughput_bps,
        b.throughput_bps
    );
    assert_eq!(
        a.min_rtt_s.to_bits(),
        b.min_rtt_s.to_bits(),
        "record {i} min_rtt: {} vs {}",
        a.min_rtt_s,
        b.min_rtt_s
    );
    assert_eq!(
        a.play_delay_s.to_bits(),
        b.play_delay_s.to_bits(),
        "record {i} play_delay"
    );
    assert_eq!(
        a.bitrate_bps.to_bits(),
        b.bitrate_bps.to_bits(),
        "record {i} bitrate"
    );
    assert_eq!(
        a.quality.to_bits(),
        b.quality.to_bits(),
        "record {i} quality"
    );
    assert_eq!(a.bytes.to_bits(), b.bytes.to_bits(), "record {i} bytes");
    assert_eq!(
        a.retx_bytes.to_bits(),
        b.retx_bytes.to_bits(),
        "record {i} retx"
    );
    assert_eq!(
        a.duration_s.to_bits(),
        b.duration_s.to_bits(),
        "record {i} duration"
    );
    assert_eq!(
        a.rebuffer_count, b.rebuffer_count,
        "record {i} rebuffer_count"
    );
    assert_eq!(a.rebuffered, b.rebuffered, "record {i} rebuffered");
    assert_eq!(a.cancelled, b.cancelled, "record {i} cancelled");
    assert_eq!(a.switches, b.switches, "record {i} switches");
}

/// Every telemetry fault class engaged at moderate rates, plus a
/// mid-morning outage.
fn composite_faults() -> TelemetryFaults {
    TelemetryFaults {
        drop_mcar: 0.05,
        drop_congested: 0.3,
        duplicate_p: 0.05,
        corrupt_nan_p: 0.02,
        reorder_window: 6,
        outage: Some(OutageWindow {
            start_s: 30_000.0,
            end_s: 33_600.0,
        }),
        ..TelemetryFaults::none(43)
    }
}

/// Run one configuration through both backends and hold the engine to
/// its exactness contract.
fn assert_backends_agree(cfg: StreamConfig, schedule: AllocationSchedule, seed: u64) {
    let (rt, ht) = LinkSim::new(cfg.clone(), LinkId::One, schedule.clone(), seed)
        .run_with(EngineBackend::Tick);
    let (re, he) = LinkSim::new(cfg, LinkId::One, schedule, seed).run_with(EngineBackend::Event);

    assert_eq!(rt.len(), re.len(), "record counts");
    for (i, (a, b)) in rt.iter().zip(&re).enumerate() {
        assert_records_identical(i, a, b);
    }

    // Telemetry faults run after the engine as a pure function of
    // (fault seed, link, records), so the delivered streams — NaN
    // corruption included — and their ledgers stay bitwise identical.
    let faults = composite_faults();
    let (dt, st) = faults.apply(0, rt);
    let (de, se) = faults.apply(0, re);
    assert_eq!(st, se, "telemetry ledgers under faults");
    assert_eq!(dt.len(), de.len(), "delivered counts under faults");
    for (i, (a, b)) in dt.iter().zip(&de).enumerate() {
        assert_records_identical(i, a, b);
    }

    assert_eq!(ht.len(), he.len(), "hourly window counts");
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    for (a, b) in ht.iter().zip(&he) {
        assert_eq!((a.day, a.hour), (b.day, b.hour));
        assert!(
            close(a.utilization, b.utilization),
            "util {} vs {}",
            a.utilization,
            b.utilization
        );
        assert!(close(a.rtt_s, b.rtt_s), "rtt {} vs {}", a.rtt_s, b.rtt_s);
        assert!(
            close(a.concurrent, b.concurrent),
            "conc {} vs {}",
            a.concurrent,
            b.concurrent
        );
        assert!(close(a.loss, b.loss), "loss {} vs {}", a.loss, b.loss);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized one-day worlds spanning light (all guaranteed spans)
    /// through congested (standing queues, rollbacks, prefix salvage):
    /// capacity, offered load, session length, treatment share and the
    /// seed all vary per case.
    #[test]
    fn event_engine_is_bit_identical_on_random_configs(
        capacity_mbps in 20.0f64..80.0,
        lambda in 0.002f64..0.02,
        watch_s in 300.0f64..1200.0,
        p_treat in 0.0f64..1.0,
        seed in 1u64..1_000_000,
    ) {
        let cfg = StreamConfig {
            days: 1,
            capacity_bps: capacity_mbps * 1e6,
            peak_arrivals_per_s: lambda,
            mean_watch_s: watch_s,
            ..Default::default()
        };
        assert_backends_agree(cfg, AllocationSchedule::Constant(p_treat), seed);
    }
}

/// A deliberately overloaded world (offered load well past capacity for
/// hours at a stretch) — wall-to-wall coupled ticks bracketed by
/// decoupled night spans, maximizing mode transitions per simulated
/// day.
#[test]
fn event_engine_bit_identical_under_overload() {
    let cfg = StreamConfig {
        days: 1,
        capacity_bps: 30e6,
        peak_arrivals_per_s: 0.015,
        mean_watch_s: 900.0,
        ..Default::default()
    };
    assert_backends_agree(cfg, AllocationSchedule::Constant(0.5), 1303);
}

/// Multi-day run: hour and midnight (day-arm) boundaries must land the
/// span terminators exactly where the tick loop rolls its windows.
#[test]
fn event_engine_bit_identical_across_days() {
    let cfg = StreamConfig {
        days: 3,
        capacity_bps: 60e6,
        peak_arrivals_per_s: 0.004,
        mean_watch_s: 600.0,
        ..Default::default()
    };
    assert_backends_agree(cfg, AllocationSchedule::Constant(0.3), 47);
}

/// Links an order of magnitude larger than the randomized worlds, one
/// day each: a light 400 Mb/s link that spends most of the day in
/// guaranteed spans, and a congested 200 Mb/s link with standing queues
/// and rollbacks.
#[test]
fn event_engine_bit_identical_on_light_and_congested_large_links() {
    let light = StreamConfig {
        days: 1,
        capacity_bps: 400e6,
        peak_arrivals_per_s: 0.24 * 0.05,
        mean_watch_s: 1500.0,
        ..Default::default()
    };
    assert_backends_agree(light, AllocationSchedule::Constant(0.5), 11);
    let congested = StreamConfig {
        days: 1,
        capacity_bps: 200e6,
        peak_arrivals_per_s: 0.24 * 0.2,
        mean_watch_s: 1500.0,
        ..Default::default()
    };
    assert_backends_agree(congested, AllocationSchedule::Constant(0.5), 7);
}

/// The paired world's link 1 (`rebuffer_bias` 1.3, which raises every
/// client's dip probability) in the default congestion regime, under a
/// per-day switchback schedule: the inputs `PairedSim` and
/// `SwitchbackDesign` send through the spans, with the arm share
/// changing at each midnight span terminator.
#[test]
fn event_engine_bit_identical_on_biased_switchback() {
    let cfg = StreamConfig {
        days: 3,
        capacity_bps: 60e6,
        peak_arrivals_per_s: 0.24 * 0.06,
        rebuffer_bias: 1.3,
        ..Default::default()
    };
    let schedule = AllocationSchedule::switchback(&[true, false, true], 0.95, 0.05);
    assert_backends_agree(cfg, schedule, 29);
}

/// A gradual deployment (`GradualDeployment`): the allocation rises one
/// stage per day, from nearly untreated to fully treated.
#[test]
fn event_engine_bit_identical_on_gradual_deployment() {
    let cfg = StreamConfig {
        days: 3,
        capacity_bps: 60e6,
        peak_arrivals_per_s: 0.24 * 0.06,
        ..Default::default()
    };
    assert_backends_agree(cfg, AllocationSchedule::gradual(&[0.05, 0.5, 1.0]), 83);
}
