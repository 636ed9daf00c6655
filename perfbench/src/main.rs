//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! perfbench --print-fingerprints
//! ```
//!
//! A run prints a provenance line, then the result as the last line of
//! standard output. `--print-fingerprints` prints the tick-oracle
//! fingerprints of the default and held-out seeds in the format of
//! `fingerprints.txt`.

use std::process::ExitCode;

use perfbench::fingerprint::format_stored;
use perfbench::report::{run, Options};
use perfbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKERS};
use repro_bench::Runner;
use streamsim::EngineBackend;

const USAGE: &str = "usage: perfbench --workload <link_five_day|fleet_faulty|fleet_routed> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>] | --print-fingerprints";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be finite and non-negative".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-fingerprints"] {
        let runner = Runner::with_threads(WORKERS);
        for workload in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let oracle = workload.inputs(seed).traced(&runner, EngineBackend::Tick);
                print!(
                    "{}",
                    format_stored(workload.name(), seed, &oracle.fingerprint)
                );
            }
        }
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    println!("{}", report.provenance);
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
