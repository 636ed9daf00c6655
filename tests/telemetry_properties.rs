//! Property tests on the telemetry wire model, stated on
//! [`TelemetryFaults::apply`] itself: whatever mix of faults hits the
//! wire, the delivered stream is the input minus the dropped records,
//! in emission order and each exactly once, and every arm's ledger
//! balances.
//!
//! The estimator-facing consequence: reordering and duplication alone
//! are invisible downstream — a [`FleetLinkSummary`] folded over the
//! delivered stream is bit-identical (`PartialEq`: same fold order,
//! hence identical Welford cells and quantile sketches) to one folded
//! over the stream the simulator emitted.

use dessim::rng::SimRng;
use proptest::prelude::*;
use streamsim::fleet::FleetLinkRun;
use streamsim::session::LinkId;
use streamsim::telemetry::OutageWindow;
use streamsim::{SessionRecord, TelemetryFaults, TelemetryStats};
use unbiased::fleet::{FleetLinkSummary, DEFAULT_SKETCH_CAP};

/// A synthetic record whose metric fields vary with `seq`, so summary
/// cells and sketches actually depend on stream content and order.
fn record(seq: usize, rng: &mut SimRng) -> SessionRecord {
    SessionRecord {
        link: LinkId::One,
        day: seq / 24,
        hour: seq % 24,
        weekend: (seq / 24) % 7 >= 5,
        arrival_s: seq as f64 * 10.0 + rng.uniform01(),
        treated: rng.bernoulli(0.5),
        throughput_bps: 2e6 + 6e6 * rng.uniform01(),
        min_rtt_s: 0.01 + 0.05 * rng.uniform01(),
        play_delay_s: 0.5 + 2.0 * rng.uniform01(),
        bitrate_bps: 5e5 + 5e6 * rng.uniform01(),
        quality: 100.0 * rng.uniform01(),
        rebuffer_count: (rng.uniform01() * 3.0) as u32,
        rebuffered: rng.bernoulli(0.2),
        cancelled: false,
        bytes: 1e7 + 2e8 * rng.uniform01(),
        retx_bytes: 1e5 * rng.uniform01(),
        switches: (rng.uniform01() * 5.0) as u32,
        duration_s: 300.0 + 1200.0 * rng.uniform01(),
    }
}

fn stream(n: usize, seed: u64) -> Vec<SessionRecord> {
    let mut rng = SimRng::new(seed);
    (0..n).map(|i| record(i, &mut rng)).collect()
}

/// Fold records into a link summary the way a fleet sweep does.
fn summarize(sessions: Vec<SessionRecord>) -> FleetLinkSummary {
    let n = sessions.len();
    let run = FleetLinkRun {
        link: 3,
        treated_cluster: None,
        offered_load: 1.0,
        expected_allocation: 0.5,
        schedule: streamsim::scenario::AllocationSchedule::Constant(0.5),
        sessions,
        hourly: Vec::new(),
        telemetry: TelemetryStats {
            sent: [n as u64, 0],
            delivered: [n as u64, 0],
            ..TelemetryStats::default()
        },
    };
    FleetLinkSummary::from_run(&run, DEFAULT_SKETCH_CAP)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under a random mix of every fault knob, the delivered records
    /// are exactly the input records that were not dropped — in
    /// emission order, each once, whatever the wire did to their order
    /// and however many duplicate copies it carried — and each arm's
    /// ledger balances: `sent = delivered + dropped_outage +
    /// dropped_mcar + dropped_congested`.
    #[test]
    fn apply_delivers_survivors_in_order_once(
        n in 1usize..300,
        drop_mcar in 0.0f64..0.5,
        drop_congested in 0.0f64..1.0,
        duplicate_p in 0.0f64..0.5,
        corrupt_nan_p in 0.0f64..0.5,
        window in 0usize..40,
        outage in (0.0f64..3000.0, 0.0f64..1000.0),
        seed in 0u64..10_000,
    ) {
        let (outage_start, outage_len) = outage;
        let clean = stream(n, seed);
        let faults = TelemetryFaults {
            drop_mcar,
            drop_congested,
            duplicate_p,
            corrupt_nan_p,
            reorder_window: window,
            outage: Some(OutageWindow {
                start_s: outage_start,
                end_s: outage_start + outage_len,
            }),
            ..TelemetryFaults::none(seed)
        };
        prop_assert_eq!(faults.validate(), Ok(()));
        let (delivered, stats) = faults.apply(3, clean.clone());

        // A subsequence of the input: each delivered record matches a
        // strictly later input record than the one before it.
        let mut next = 0usize;
        for r in &delivered {
            let bits = r.arrival_s.to_bits();
            let at = clean[next..].iter().position(|c| c.arrival_s.to_bits() == bits);
            prop_assert!(at.is_some(), "record delivered twice or out of order");
            let i = next + at.unwrap();
            prop_assert_eq!(r.treated, clean[i].treated);
            next = i + 1;
        }
        let in_outage = |r: &SessionRecord| {
            outage_start <= r.arrival_s && r.arrival_s < outage_start + outage_len
        };
        prop_assert!(!delivered.iter().any(in_outage));
        prop_assert_eq!(
            stats.dropped_outage[0] + stats.dropped_outage[1],
            clean.iter().filter(|r| in_outage(r)).count() as u64
        );
        for arm in 0..2 {
            let sent = clean.iter().filter(|r| usize::from(r.treated) == arm).count() as u64;
            let got = delivered.iter().filter(|r| usize::from(r.treated) == arm).count() as u64;
            prop_assert_eq!(stats.sent[arm], sent);
            prop_assert_eq!(stats.delivered[arm], got);
            prop_assert_eq!(
                stats.sent[arm],
                stats.delivered[arm]
                    + stats.dropped_outage[arm]
                    + stats.dropped_mcar[arm]
                    + stats.dropped_congested[arm],
                "arm {} ledger does not balance: {:?}", arm, stats
            );
        }
    }

    /// Reordering and duplication alone lose nothing: `apply` delivers
    /// the clean stream bit-for-bit, and a `FleetLinkSummary` folded
    /// over it equals (`PartialEq`, i.e. bit-exact cells and sketches)
    /// the summary folded over the clean stream.
    #[test]
    fn link_summary_unchanged_by_repaired_wire_shuffle(
        n in 1usize..300,
        window in 0usize..40,
        dup_p in 0.0f64..0.5,
        seed in 0u64..10_000,
    ) {
        let clean = stream(n, seed);
        let faults = TelemetryFaults {
            duplicate_p: dup_p,
            reorder_window: window,
            ..TelemetryFaults::none(seed ^ 0x9E37)
        };
        let (delivered, stats) = faults.apply(3, clean.clone());
        prop_assert!(delivered == clean, "repaired stream differs from the input");
        prop_assert_eq!(stats.delivered, stats.sent);
        prop_assert_eq!(summarize(clean), summarize(delivered));
    }
}
