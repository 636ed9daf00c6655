//! Determinism properties: the same seed and config must reproduce
//! bit-identical results across the whole stack (the parallel sweep
//! runner and every A/B-vs-A/A comparison depend on this), and
//! different seeds must actually change the draws.

use dessim::{EventQueue, SimRng, SimTime};
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use netsim::run_dumbbell;
use proptest::prelude::*;
use streamsim::scenario::AllocationSchedule;
use streamsim::sim::PairedSim;
use streamsim::StreamConfig;

fn tiny_dumbbell(seed: u64) -> DumbbellConfig {
    DumbbellConfig {
        bottleneck_bps: 20e6,
        base_rtt: dessim::SimDuration::from_millis(20),
        apps: vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Cubic),
        ],
        duration: dessim::SimDuration::from_secs(3),
        warmup: dessim::SimDuration::from_secs(1),
        seed,
        ..Default::default()
    }
}

fn dumbbell_fingerprint(seed: u64) -> Vec<u64> {
    let res = run_dumbbell(&tiny_dumbbell(seed)).unwrap();
    let mut bits = vec![res.events];
    for f in &res.flows {
        bits.push(f.throughput_bps.to_bits());
    }
    for a in &res.apps {
        bits.push(a.throughput_bps.to_bits());
        bits.push(a.retx_fraction.to_bits());
    }
    bits
}

fn tiny_stream() -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps: 100e6,
        peak_arrivals_per_s: 0.02,
        ..Default::default()
    }
}

fn paired_fingerprint(seed: u64) -> Vec<u64> {
    let sessions = PairedSim::with_paper_biases(
        tiny_stream(),
        [
            AllocationSchedule::Constant(0.95),
            AllocationSchedule::Constant(0.05),
        ],
        seed,
    )
    .run();
    let mut bits = vec![sessions.len() as u64];
    for s in &sessions {
        bits.push(s.throughput_bps.to_bits());
        bits.push(s.bitrate_bps.to_bits());
        bits.push(s.arrival_s.to_bits());
        bits.push(s.treated as u64);
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// dessim: replaying the same seeded (time, payload) pushes yields the
    /// same pop sequence — including tie-breaks among equal timestamps.
    #[test]
    fn event_queue_pop_order_deterministic(seed in 0u64..1000, n in 1usize..300) {
        let mut draws = SimRng::new(seed);
        // Coarse time grid so ties are common.
        let events: Vec<(u64, usize)> =
            (0..n).map(|i| (draws.below(32) * 1000, i)).collect();
        let pop_all = || {
            let mut q = EventQueue::new();
            for &(t, p) in &events {
                q.push(SimTime::from_nanos(t), p);
            }
            let mut out = Vec::new();
            while let Some((t, p)) = q.pop() {
                out.push((t, p));
            }
            out
        };
        let a = pop_all();
        let b = pop_all();
        prop_assert_eq!(a, b);
    }

    /// dessim: RNG streams replay bit-identically per seed and diverge
    /// across seeds.
    #[test]
    fn sim_rng_streams_replay(seed in 0u64..100_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut c = SimRng::new(seed.wrapping_add(1));
        let mut any_diff = false;
        for _ in 0..256 {
            let x = a.next_u64();
            prop_assert_eq!(x, b.next_u64());
            any_diff |= x != c.next_u64();
        }
        prop_assert!(any_diff, "adjacent seeds produced identical streams");
    }
}

proptest! {
    // The packet/fluid simulations are expensive; a few cases suffice.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// netsim: run_dumbbell is bit-identical per seed, different across
    /// seeds.
    #[test]
    fn dumbbell_metrics_bit_identical_per_seed(seed in 0u64..1_000_000) {
        let a = dumbbell_fingerprint(seed);
        let b = dumbbell_fingerprint(seed);
        prop_assert_eq!(&a, &b);
        let other = dumbbell_fingerprint(seed.wrapping_add(1));
        prop_assert_ne!(&a, &other);
    }

    /// streamsim: PairedSim session records are bit-identical per seed,
    /// different across seeds.
    #[test]
    fn paired_sim_bit_identical_per_seed(seed in 0u64..1_000_000) {
        let a = paired_fingerprint(seed);
        let b = paired_fingerprint(seed);
        prop_assert_eq!(&a, &b);
        let other = paired_fingerprint(seed.wrapping_add(1));
        prop_assert_ne!(&a, &other);
    }
}
