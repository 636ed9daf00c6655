//! Acceptance tests for the multi-seed parallel scenario runner: a
//! ≥8-seed lab-dumbbell sweep must produce per-seed results
//! bit-identical to sequential execution, and must be faster than
//! sequential on a multi-core host.

use std::time::Instant;

use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use repro_bench::runner::{derive_seeds, Runner};

fn small_lab() -> DumbbellConfig {
    DumbbellConfig {
        bottleneck_bps: 50e6,
        base_rtt: SimDuration::from_millis(20),
        apps: vec![AppConfig::plain(CcKind::Reno); 4],
        duration: SimDuration::from_secs(4),
        warmup: SimDuration::from_secs(1),
        seed: 0, // replaced per replication by the sweep
        ..Default::default()
    }
}

/// Flatten a LabResult into comparable bits (f64 comparison via to_bits
/// so "identical" means identical, not approximately equal).
fn fingerprint(runs: &[repro_bench::SeedRun<netsim::LabResult>]) -> Vec<(u64, Vec<u64>)> {
    runs.iter()
        .map(|r| {
            let mut bits = vec![r.result.events, r.result.window_secs.to_bits()];
            for a in &r.result.apps {
                bits.push(a.throughput_bps.to_bits());
                bits.push(a.retx_fraction.to_bits());
            }
            for f in &r.result.flows {
                bits.push(f.throughput_bps.to_bits());
            }
            (r.seed, bits)
        })
        .collect()
}

#[test]
fn eight_seed_dumbbell_sweep_matches_sequential() {
    let cfg = small_lab();
    let seeds = derive_seeds(2024, 8);
    let par = Runner::with_threads(8).sweep_dumbbell(&cfg, &seeds);
    let seq = Runner::with_threads(1).sweep_dumbbell(&cfg, &seeds);
    assert_eq!(fingerprint(&par), fingerprint(&seq));
}

#[test]
fn sweep_is_faster_than_sequential_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping wall-clock assertion: only {cores} core(s)");
        return;
    }
    let cfg = small_lab();
    let seeds = derive_seeds(7, 8);

    // Warm up allocators/caches so the comparison is fair.
    Runner::with_threads(1).sweep_dumbbell(&cfg, &seeds[..1]);

    // With ≥4 cores and 8 independent replications the parallel sweep
    // should comfortably beat sequential. Shared CI runners are noisy,
    // so take the best of two attempts before declaring a regression
    // (bit-identity is asserted on every attempt regardless).
    let mut ratios = Vec::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        let seq = Runner::with_threads(1).sweep_dumbbell(&cfg, &seeds);
        let sequential = t0.elapsed();

        let t1 = Instant::now();
        let par = Runner::with_threads(cores.min(8)).sweep_dumbbell(&cfg, &seeds);
        let parallel = t1.elapsed();

        assert_eq!(fingerprint(&par), fingerprint(&seq));
        let ratio = parallel.as_secs_f64() / sequential.as_secs_f64();
        if ratio < 0.9 {
            return;
        }
        ratios.push(ratio);
    }
    panic!("parallel sweep not faster than sequential in any attempt: ratios {ratios:?}");
}

#[test]
fn derived_seed_sweep_is_reproducible_across_runs() {
    let cfg = small_lab();
    let a = Runner::new().sweep_dumbbell(&cfg, &derive_seeds(99, 4));
    let b = Runner::new().sweep_dumbbell(&cfg, &derive_seeds(99, 4));
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
