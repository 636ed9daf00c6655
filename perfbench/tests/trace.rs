//! The benchmark's own contracts, on the default seed: the traced
//! decomposition measures the same program as the untraced sweep, every
//! estimator returns a value, and the event engine reproduces the
//! stored tick-oracle fingerprints. Run with `--release`; the workloads
//! are full size.

use perfbench::fingerprint::parse_stored;
use perfbench::workload::{Inputs, Output, Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKERS};
use repro_bench::Runner;
use streamsim::EngineBackend;

#[test]
fn traced_fleet_summaries_equal_the_untraced_sweep() {
    let runner = Runner::with_threads(WORKERS);
    for workload in [Workload::FleetFaulty, Workload::FleetRouted] {
        let Inputs::Fleet(fleet) = workload.inputs(DEFAULT_SEED) else {
            panic!("{} is a fleet workload", workload.name());
        };
        let swept = fleet.sweep(&runner);
        let inputs = Inputs::Fleet(fleet);
        let traced = inputs.traced(&runner, EngineBackend::Event);
        assert_eq!(traced.summaries, swept, "{}", workload.name());
        assert!(
            swept.iter().all(|s| s.degraded.is_empty()),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn event_runs_match_stored_oracle_and_estimates_succeed() {
    let stored = parse_stored(include_str!("../fingerprints.txt"));
    let runner = Runner::with_threads(WORKERS);
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(
                stored.contains_key(&(workload.name().to_string(), seed)),
                "{} seed {seed} has stored fingerprints",
                workload.name()
            );
        }
        let expected = &stored[&(workload.name().to_string(), DEFAULT_SEED)];
        let inputs = workload.inputs(DEFAULT_SEED);
        let (links, replications) = inputs.shape();
        let (_, output) = inputs.run(&runner);
        let got = output.fingerprint();
        assert_eq!(
            expected.failed_jobs(&got, links, replications),
            0,
            "{}",
            workload.name()
        );
        if let Output::Fleet(_, estimates) = &output {
            for (name, e) in estimates.iter().flatten() {
                assert!(e.is_ok(), "{} {name}: {e:?}", workload.name());
            }
        }
        let traced = inputs.traced(&runner, EngineBackend::Event);
        assert_eq!(
            expected.failed_jobs(&traced.fingerprint, links, replications),
            0,
            "{} traced",
            workload.name()
        );
    }
}
