//! The struct-of-arrays client pass must be **bit-identical** to the
//! retained scalar reference: driving a `ClientArena` and a scalar
//! client population through the same random arrival/allocation/exit
//! sequence must produce identical session records, demand columns and
//! completion times — every float compared by bit pattern. This is the
//! streamsim analogue of the allocator oracle in
//! `tests/allocator_properties.rs`: both `LinkSim` engines run the
//! arena, so any divergence here is a correctness
//! bug in the SoA restructuring, not a modeling change.
//!
//! The oracle mirrors the arena's slot model with `Vec<Option<Client>>`
//! — finished sessions become `None` tombstones — so the production
//! *deferred* compaction path (tombstones persisting across ticks,
//! `needs_compaction` threshold, `compact_stale` with index remapping)
//! is exercised against the reference, not just the eager per-tick
//! `compact` convenience.

use dessim::SimRng;
use proptest::prelude::*;
use streamsim::abr::Ladder;
use streamsim::client::Client;
use streamsim::link::max_min_share;
use streamsim::session::{LinkId, SessionRecord};
use streamsim::ClientArena;
use streamsim::StreamConfig;

/// Compare every field of two session records bitwise (floats via
/// `to_bits`, NaN-safe).
fn assert_records_identical(a: &SessionRecord, b: &SessionRecord) {
    assert_eq!(a.link, b.link);
    assert_eq!(a.day, b.day);
    assert_eq!(a.hour, b.hour);
    assert_eq!(a.weekend, b.weekend);
    assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
    assert_eq!(a.treated, b.treated);
    assert_eq!(a.throughput_bps.to_bits(), b.throughput_bps.to_bits());
    assert_eq!(a.min_rtt_s.to_bits(), b.min_rtt_s.to_bits());
    assert_eq!(a.play_delay_s.to_bits(), b.play_delay_s.to_bits());
    assert_eq!(a.bitrate_bps.to_bits(), b.bitrate_bps.to_bits());
    assert_eq!(a.quality.to_bits(), b.quality.to_bits());
    assert_eq!(a.rebuffer_count, b.rebuffer_count);
    assert_eq!(a.rebuffered, b.rebuffered);
    assert_eq!(a.cancelled, b.cancelled);
    assert_eq!(a.bytes.to_bits(), b.bytes.to_bits());
    assert_eq!(a.retx_bytes.to_bits(), b.retx_bytes.to_bits());
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
}

/// Drive the arena and the scalar oracle through `ticks` ticks of a
/// randomized world: Poisson-ish arrivals with random access lines and
/// watch targets (so sessions exit at staggered times), shared max–min
/// shares, and occasional loss/RTT perturbations.
///
/// `active_only` exercises the production worklist contract (only the
/// sessions with positive demand are handed to the download pass, as
/// `LinkSim` does); otherwise every slot is listed — including
/// tombstones, which the contract allows — and must be equivalent.
/// `eager_compact` switches between the production deferred compaction
/// (`needs_compaction`/`compact_stale`, the default) and the eager
/// per-tick `compact` convenience API.
fn run_oracle(seed: u64, ticks: usize, arrival_prob: f64, active_only: bool, eager_compact: bool) {
    let cfg = StreamConfig {
        // Short sessions and a small startup buffer make exits and
        // phase churn frequent within a short run.
        mean_watch_s: 120.0,
        mean_patience_s: 10.0,
        ..Default::default()
    };
    let ladder = Ladder::new(cfg.ladder_bps.clone());
    let mut world_rng = SimRng::new(seed);

    // Slot-aligned with the arena: finished sessions become `None` and
    // stay in place until a (deferred) compaction drops them.
    let mut oracle: Vec<Option<Client>> = Vec::new();
    let mut arena = ClientArena::new();
    let mut arena_records: Vec<SessionRecord> = Vec::new();
    let mut finished: Vec<bool> = Vec::new();
    let mut remap: Vec<usize> = Vec::new();
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
            arena.push(&cfg, client.clone());
            oracle.push(Some(client));
        }

        // Shared link state for the tick: allocation from the *scalar*
        // demands (proven equal to the arena's each tick below, with
        // tombstones demanding zero), plus perturbed RTT/loss.
        let demands: Vec<f64> = oracle
            .iter()
            .map(|slot| slot.as_ref().map_or(0.0, |c| c.demand(&cfg).rate_bps))
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
        let mut oracle_finished: Vec<bool> = vec![false; oracle.len()];
        for (i, slot) in oracle.iter_mut().enumerate() {
            if let Some(client) = slot {
                if let Some(rec) = client.step(&cfg, &ladder, shares[i], rtt, loss, now, dt) {
                    oracle_records.push(rec);
                    oracle_finished[i] = true;
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
        let any = arena.step_all(
            &cfg,
            &ladder,
            &shares,
            &downloaders,
            rtt,
            loss,
            now,
            dt,
            &mut arena_records,
            &mut finished,
        );

        // Identical completions, identical records, in the same order.
        assert_eq!(finished, oracle_finished, "completion flags diverged");
        assert_eq!(any, !oracle_records.is_empty());
        let new_records = &arena_records[before..];
        assert_eq!(new_records.len(), oracle_records.len());
        for (a, b) in new_records.iter().zip(&oracle_records) {
            assert_records_identical(a, b);
        }

        // Compact both populations the way the production loop does:
        // tombstones persist until the arena says a compaction pays.
        if eager_compact {
            if any {
                arena.compact(&finished);
                oracle.retain(|slot| slot.is_some());
                compactions += 1;
            }
        } else if arena.needs_compaction() {
            arena.compact_stale(&mut remap);
            // The remap must send live slots to their retained position
            // and flag dead ones as gone.
            let mut next = 0usize;
            for (old, slot) in oracle.iter().enumerate() {
                if slot.is_some() {
                    assert_eq!(remap[old], next, "remap diverged at slot {old}");
                    next += 1;
                } else {
                    assert_eq!(remap[old], usize::MAX, "dead slot {old} remapped");
                }
            }
            oracle.retain(|slot| slot.is_some());
            compactions += 1;
        }
        assert_eq!(arena.len(), oracle.len());
        assert_eq!(
            arena.live_sessions(),
            oracle.iter().filter(|s| s.is_some()).count()
        );
    }
    // The deferred path must actually have deferred *and* compacted at
    // least once on the longer runs, or the test is vacuous.
    if !eager_compact && ticks >= 3_000 {
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
        run_oracle(seed, 600, 0.25, true, false);
    }

    /// Denser worlds (more arrivals, more concurrent sessions) keep the
    /// equivalence — exercises multiple simultaneous exits per tick —
    /// under the conservative all-slots worklist and the eager
    /// `compact` convenience API.
    #[test]
    fn arena_oracle_dense_population(seed in 0u64..1_000_000) {
        run_oracle(seed, 300, 0.8, false, true);
    }
}

/// Long single run as a plain test (catches slow divergence that short
/// proptest cases might miss, e.g. accumulator drift) — long enough
/// that the deferred-compaction threshold fires repeatedly.
#[test]
fn arena_oracle_long_run_with_deferred_compaction() {
    run_oracle(0xA5A5, 5_000, 0.15, true, false);
}
