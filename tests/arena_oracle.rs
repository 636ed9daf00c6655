//! The struct-of-arrays client pass must be **bit-identical** to the
//! retained scalar reference: driving a `ClientArena` and a scalar
//! client population through the same random arrival/allocation/exit
//! sequence must produce identical session records (`SessionRecord`'s
//! bitwise `==`), demand columns and completion times. This is the
//! streamsim analogue of the allocator oracle in
//! `tests/allocator_properties.rs`: both `LinkSim` engines run the
//! arena, so any divergence here is a correctness
//! bug in the SoA restructuring, not a modeling change.
//!
//! The oracle mirrors the arena's slot model with `Option<Client>` slots
//! — finished sessions become `None` tombstones — so the production
//! *deferred* compaction path (tombstones persisting across ticks until
//! `step_all` compacts, with the arena remapping its own peak order) is
//! exercised against the reference. Every tick the arena's peak order
//! must equal the oracle's live slots sorted by peak demand, ties in
//! slot order: that checks which slots finished, slot by slot, and the
//! order the survivors keep through compaction.

use dessim::SimRng;
use proptest::prelude::*;
use streamsim::abr::Ladder;
use streamsim::client::Client;
use streamsim::link::max_min_share;
use streamsim::session::{LinkId, SessionRecord};
use streamsim::ClientArena;
use streamsim::StreamConfig;

/// Drive the arena and the scalar oracle through `ticks` ticks of a
/// randomized world: Poisson-ish arrivals with random access lines and
/// watch targets (so sessions exit at staggered times), shared max–min
/// shares, and occasional loss/RTT perturbations.
///
/// `active_only` exercises the production worklist contract (only the
/// sessions with positive demand are handed to the download pass, as
/// `LinkSim` does); otherwise every slot is listed — including
/// tombstones, which the contract allows — and must be equivalent.
fn run_oracle(seed: u64, ticks: usize, arrival_prob: f64, active_only: bool) {
    let cfg = StreamConfig {
        // Short sessions and a small startup buffer make exits and
        // phase churn frequent within a short run.
        mean_watch_s: 120.0,
        mean_patience_s: 10.0,
        ..Default::default()
    };
    let ladder = Ladder::new(cfg.ladder_bps.clone());
    let mut world_rng = SimRng::new(seed);

    // Slot-aligned with the arena: each slot's peak demand, and its
    // client until it finishes (then `None` until a deferred compaction
    // drops the slot).
    let mut oracle: Vec<(f64, Option<Client>)> = Vec::new();
    let mut arena = ClientArena::new();
    let mut arena_records: Vec<SessionRecord> = Vec::new();
    let mut compactions = 0usize;

    let capacity = world_rng.uniform(5e6, 80e6);
    let mut now = 0.0;
    let dt = 1.0;
    for _ in 0..ticks {
        // Arrivals: identical clients enter both populations.
        if world_rng.bernoulli(arrival_prob) {
            let access = world_rng.uniform(1e6, 20e6);
            let child_seed = world_rng.next_u64();
            let client = Client::new(
                &StreamConfig {
                    access_median_bps: access,
                    access_sigma: 0.3,
                    ..cfg.clone()
                },
                &ladder,
                if world_rng.bernoulli(0.5) {
                    LinkId::One
                } else {
                    LinkId::Two
                },
                0,
                oracle.len() % 24,
                world_rng.bernoulli(0.3),
                now,
                world_rng.bernoulli(0.4),
                capacity / (oracle.len() + 1) as f64,
                SimRng::new(child_seed),
            );
            // A fresh session demands its peak, the access line.
            let peak = client.demand(&cfg).rate_bps;
            arena.push(&cfg, client.clone());
            oracle.push((peak, Some(client)));
        }

        // Shared link state for the tick: allocation from the *scalar*
        // demands (proven equal to the arena's each tick below, with
        // tombstones demanding zero), plus perturbed RTT/loss.
        let demands: Vec<f64> = oracle
            .iter()
            .map(|(_, slot)| slot.as_ref().map_or(0.0, |c| c.demand(&cfg).rate_bps))
            .collect();
        for (d, a) in demands.iter().zip(arena.demands()) {
            assert_eq!(d.to_bits(), a.to_bits(), "demand columns diverged");
        }
        let shares = max_min_share(&demands, capacity);
        let rtt = 0.02 + world_rng.uniform(0.0, 0.05);
        let loss = if world_rng.bernoulli(0.2) {
            world_rng.uniform(0.0, 0.2)
        } else {
            0.0
        };
        now += dt;

        // Step the scalar oracle client by client, in slot order.
        let mut oracle_records: Vec<SessionRecord> = Vec::new();
        for (i, (_, slot)) in oracle.iter_mut().enumerate() {
            if let Some(client) = slot {
                if let Some(rec) = client.step(&cfg, &ladder, shares[i], rtt, loss, now, dt) {
                    oracle_records.push(rec);
                    *slot = None;
                }
            }
        }

        // Step the arena over the same shares.
        let downloaders: Vec<usize> = if active_only {
            (0..demands.len()).filter(|&i| demands[i] > 0.0).collect()
        } else {
            (0..demands.len()).collect()
        };
        let before = arena_records.len();
        arena.step_all(
            &cfg,
            &ladder,
            &shares,
            &downloaders,
            rtt,
            loss,
            now,
            dt,
            &mut arena_records,
        );

        // Identical records, in the same order.
        let new_records = &arena_records[before..];
        assert_eq!(new_records.len(), oracle_records.len());
        for (i, (a, b)) in new_records.iter().zip(&oracle_records).enumerate() {
            assert_eq!(a, b, "record {i}");
        }

        // The arena compacts inside `step_all` once enough tombstones
        // have accumulated; follow it by dropping the oracle's.
        if arena.len() < oracle.len() {
            oracle.retain(|(_, slot)| slot.is_some());
            compactions += 1;
        }
        assert_eq!(arena.len(), oracle.len());
        assert_eq!(
            arena.live_sessions(),
            oracle.iter().filter(|(_, s)| s.is_some()).count()
        );

        // Identical completions and survivor order: the peak order
        // holds exactly the oracle's live slots, stably sorted by peak.
        let mut expect: Vec<usize> = (0..oracle.len())
            .filter(|&i| oracle[i].1.is_some())
            .collect();
        expect.sort_by(|&i, &j| oracle[i].0.total_cmp(&oracle[j].0));
        assert_eq!(arena.peak_order(), expect, "peak order diverged");
    }
    // The deferred path must actually have deferred *and* compacted at
    // least once on the longer runs, or the test is vacuous.
    if ticks >= 3_000 {
        assert!(compactions > 0, "deferred compaction never triggered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized arrival/exit sequences: the arena's records and
    /// demand stream are bit-identical to the scalar reference, with
    /// the production (active-only) worklist and deferred compaction.
    #[test]
    fn arena_bit_identical_to_scalar_oracle(seed in 0u64..1_000_000) {
        run_oracle(seed, 600, 0.25, true);
    }

    /// Denser worlds (more arrivals, more concurrent sessions) keep the
    /// equivalence — exercises multiple simultaneous exits per tick —
    /// under the conservative all-slots worklist.
    #[test]
    fn arena_oracle_dense_population(seed in 0u64..1_000_000) {
        run_oracle(seed, 300, 0.8, false);
    }
}

/// Long single run as a plain test (catches slow divergence that short
/// proptest cases might miss, e.g. accumulator drift) — long enough
/// that the deferred-compaction threshold fires repeatedly.
#[test]
fn arena_oracle_long_run_with_deferred_compaction() {
    run_oracle(0xA5A5, 5_000, 0.15, true);
}
