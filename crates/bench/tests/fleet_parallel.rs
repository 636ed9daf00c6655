//! Fleet-sweep determinism: the parallel link×seed work-stealing sweep
//! must be bit-identical to sequential execution, mirroring
//! `runner_parallel.rs` for the fleet layer.

use repro_bench::runner::{derive_seeds, FleetSweep, Runner};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, FleetRun, FleetSim, LinkPopulation};

fn small_base() -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps: 15e6,
        peak_arrivals_per_s: 0.24 * 0.015,
        mean_watch_s: 1200.0,
        ..Default::default()
    }
}

/// Bit-exact fingerprint of a fleet run: per link, the session count and
/// the xor of every session's byte/throughput bit patterns (f64 compared
/// via to_bits so "identical" means identical).
fn fingerprint(run: &FleetRun) -> Vec<(usize, Option<bool>, usize, u64)> {
    run.links
        .iter()
        .map(|l| {
            let mut bits = 0u64;
            for s in &l.sessions {
                bits ^= s.bytes.to_bits();
                bits = bits.rotate_left(7) ^ s.throughput_bps.to_bits();
            }
            (l.link, l.treated_cluster, l.sessions.len(), bits)
        })
        .collect()
}

#[test]
fn parallel_fleet_sweep_matches_sequential() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 5, 31).sample();
    let design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(77, 3);

    let sweep = FleetSweep::new(&base, &specs, &design, &seeds);
    let par = Runner::with_threads(4).fleet_records(&sweep);
    let one = Runner::with_threads(1).fleet_records(&sweep);
    // The oracle: plain sequential FleetSim::run per seed, no runner,
    // on the tick loop (the sweep runs the event engine).
    let seq: Vec<(u64, FleetRun)> = seeds
        .iter()
        .map(|&s| (s, FleetSim::new(&base, &specs, &design, s).run()))
        .collect();

    assert_eq!(par.len(), seeds.len());
    for ((p, o), (seed, s)) in par.iter().zip(&one).zip(&seq) {
        assert_eq!(p.seed, *seed);
        assert_eq!(o.seed, *seed);
        assert_eq!(fingerprint(&p.result), fingerprint(s));
        assert_eq!(fingerprint(&o.result), fingerprint(s));
        assert_eq!(p.result.pairs, s.pairs);
    }
}

#[test]
fn fleet_sweep_carries_pairs_and_covers_every_link() {
    let base = small_base();
    let specs = LinkPopulation::moderate(base.clone(), 6, 5).sample();
    let design = FleetDesign::StratifiedPairs {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let seeds = derive_seeds(9, 2);
    let runs =
        Runner::with_threads(3).fleet_records(&FleetSweep::new(&base, &specs, &design, &seeds));
    for r in &runs {
        assert_eq!(r.result.links.len(), 6);
        assert_eq!(r.result.pairs.len(), 3);
        // Links come back in link order regardless of which worker ran
        // them.
        for (i, l) in r.result.links.iter().enumerate() {
            assert_eq!(l.link, i);
            assert!(!l.sessions.is_empty());
        }
    }
    // Whatever the per-replication coin flips produced, the pairing must
    // be a valid (disjoint) matching.
    for r in &runs {
        let mut seen = [false; 6];
        for &(t, c) in &r.result.pairs {
            assert!(!seen[t] && !seen[c], "matching must be disjoint");
            seen[t] = true;
            seen[c] = true;
        }
    }
}
