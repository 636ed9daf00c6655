//! One benchmark run: set-up, the oracle, the timed loop, the checks,
//! and the report.

use std::time::Instant;

use repro_bench::Runner;
use streamsim::EngineBackend;

use crate::fingerprint::{debug_fnv, parse_stored, Fingerprint, Fnv};
use crate::measure::{median_index, quantile};
use crate::workload::{Inputs, Layers, Workload, DEFAULT_SEED, HELD_OUT_SEED, PLANT_SEED, WORKERS};

/// Timed set-up samples taken before each repetition, so that they
/// spread over the run as the repetitions do.
pub const SETUP_SAMPLES_PER_REP: usize = 3;
/// Set-ups per sample: one set-up is too short to time alone.
pub const SETUP_BATCH: usize = 64;
/// Fewest timed runs, however long they take.
pub const MIN_REPS: usize = 3;
/// The quantile of a run's repetitions that its times report. Other
/// tenants of a shared host only ever slow a repetition down, in bursts
/// that can cover half a run, so a low quantile tracks the program's
/// own cost and stays steady where the median drifts with the host.
pub const TIMING_QUANTILE: f64 = 0.1;

fn timing(xs: &[f64]) -> f64 {
    quantile(xs, TIMING_QUANTILE)
}

/// Tick-oracle fingerprints of the default and held-out seeds.
const STORED: &str = include_str!("../fingerprints.txt");

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep timing.
    pub seconds: f64,
    /// Report per-layer metrics from traced runs instead of end-to-end ones.
    pub trace: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every checked output matched the oracle.
    pub correct: bool,
    /// Link jobs whose output was checked.
    pub attempted: usize,
    /// Link jobs that failed (quarantined, or not matching the oracle).
    pub failed: usize,
    /// `(name, value, unit)` per metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What ran, as a JSON object.
    pub provenance: String,
}

/// Counts checked and failed link jobs against the expected output.
struct Checker {
    expected: Fingerprint,
    links: usize,
    replications: usize,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn check_against(&mut self, expected: &Fingerprint, got: &Fingerprint) {
        self.attempted += self.links * self.replications;
        self.failed += expected.failed_jobs(got, self.links, self.replications);
    }

    fn check(&mut self, got: &Fingerprint) {
        let expected = std::mem::take(&mut self.expected);
        self.check_against(&expected, got);
        self.expected = expected;
    }
}

/// Time [`SETUP_SAMPLES_PER_REP`] batches of set-ups, per set-up.
fn sample_setup(workload: Workload, seed: u64, out: &mut Vec<f64>) {
    for _ in 0..SETUP_SAMPLES_PER_REP {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(workload.setup(seed));
        }
        out.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Report {
    let workload = opts.workload;
    let mut setup_s = Vec::new();
    sample_setup(workload, opts.seed, &mut setup_s);
    let inputs = workload.inputs(opts.seed);
    let runner = Runner::with_threads(WORKERS);
    let (links, replications) = inputs.shape();

    // The first repetition runs in a fresh process, before the oracle:
    // its peak RSS is what a process running the workload needs, free
    // of the allocator state that earlier work leaves behind.
    let (first, output) = inputs.run(&runner);
    let first_fingerprint = output.fingerprint();
    drop(output);

    // The tick loop is the oracle; a seed with stored fingerprints also
    // checks the oracle itself.
    let oracle = inputs.traced(&runner, EngineBackend::Tick);
    let mut checker = Checker {
        expected: Fingerprint::default(),
        links,
        replications,
        attempted: 0,
        failed: 0,
    };
    let mut stored = parse_stored(STORED);
    let key = |seed| (workload.name().to_string(), seed);
    checker.expected = match stored.remove(&key(opts.seed)) {
        Some(own) => {
            checker.check_against(&own, &oracle.fingerprint);
            own
        }
        None => {
            // A seed without stored fingerprints is checked against this
            // build's tick loop, which a change to code both engines
            // share would move too; the default seed's stored output
            // pins that.
            let pinned = stored
                .remove(&key(DEFAULT_SEED))
                .expect("the default seed has stored fingerprints");
            let (_, output) = workload.inputs(DEFAULT_SEED).run(&runner);
            checker.check_against(&pinned, &output.fingerprint());
            oracle.fingerprint
        }
    };
    checker.check(&first_fingerprint);

    let mut samples = vec![first];
    let mut traced: Vec<Layers> = Vec::new();
    let mut ticks: Vec<Layers> = vec![oracle.layers];
    let start = Instant::now();
    while samples.len() < MIN_REPS || start.elapsed().as_secs_f64() < opts.seconds {
        sample_setup(workload, opts.seed, &mut setup_s);
        let (sample, output) = inputs.run(&runner);
        checker.check(&output.fingerprint());
        drop(output);
        eprintln!(
            "rep {}: wall_s {:.4} cpu_s {:.2}",
            samples.len(),
            sample.wall_s,
            sample.cpu_s
        );
        samples.push(sample);
        if opts.trace {
            let t = inputs.traced(&runner, EngineBackend::Event);
            checker.check(&t.fingerprint);
            traced.push(t.layers);
            let k = inputs.traced(&runner, EngineBackend::Tick);
            checker.check(&k.fingerprint);
            ticks.push(k.layers);
        }
    }

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let metrics = if opts.trace {
        layer_metrics(&traced, &ticks, timing(&walls))
    } else {
        let ok = 1.0 - checker.failed as f64 / checker.attempted as f64;
        vec![
            ("wall_s", timing(&walls), "s"),
            (
                "cpu_s",
                timing(&samples.iter().map(|s| s.cpu_s).collect::<Vec<_>>()),
                "s",
            ),
            ("setup_s", timing(&setup_s), "s"),
            ("peak_rss_mb", first.peak_rss_mb, "MB"),
            ("ok_frac", ok, "ratio"),
        ]
    };
    Report {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        provenance: provenance(opts, &inputs, samples.len(), traced.len(), setup_s.len()),
    }
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

/// Per-layer metrics from the median traced run and the median tick
/// run (by wall clock), so numbers measured together stay together.
fn layer_metrics(
    traced: &[Layers],
    ticks: &[Layers],
    untraced_wall_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let walls = |ls: &[Layers]| ls.iter().map(|l| l.wall_s).collect::<Vec<_>>();
    let l = &traced[median_index(&walls(traced))];
    let k = &ticks[median_index(&walls(ticks))];
    let hours = k.hours.unwrap_or_default();
    vec![
        ("engine.event_s", l.engine_s, "s"),
        ("engine.tick_s", k.engine_s, "s"),
        (
            "engine.event_over_tick",
            per(l.engine_busy_s, k.engine_busy_s),
            "ratio",
        ),
        (
            "engine.ns_per_session_tick",
            per(l.engine_busy_s * 1e9, l.session_ticks),
            "ns",
        ),
        (
            "engine.tick.congested_hours",
            k.congested_hours as f64,
            "count",
        ),
        (
            "engine.tick.congested_ms_per_hour",
            per(hours.congested_s * 1e3, hours.congested_hours as f64),
            "ms",
        ),
        (
            "engine.tick.uncongested_ms_per_hour",
            per(hours.uncongested_s * 1e3, hours.uncongested_hours as f64),
            "ms",
        ),
        (
            "engine.tick.congested_share",
            per(hours.congested_s, hours.congested_s + hours.uncongested_s),
            "ratio",
        ),
        ("engine.link_job_s.p50", quantile(&l.job_s, 0.5), "s"),
        ("engine.link_job_s.p90", quantile(&l.job_s, 0.9), "s"),
        ("engine.link_job_s.max", quantile(&l.job_s, 1.0), "s"),
        ("fleet.plan_s", l.plan_s, "s"),
        ("routing.prepass_s", l.prepass_s, "s"),
        ("routing.arrivals", l.arrivals as f64, "count"),
        (
            "routing.ns_per_arrival",
            per(l.prepass_s * 1e9, l.arrivals as f64),
            "ns",
        ),
        ("telemetry.apply_s", l.telemetry_s, "s"),
        ("telemetry.records_in", l.records_in as f64, "count"),
        (
            "telemetry.delivered_frac",
            per(l.delivered as f64, l.records_in as f64),
            "ratio",
        ),
        (
            "telemetry.ns_per_record",
            per(l.telemetry_busy_s * 1e9, l.records_in as f64),
            "ns",
        ),
        ("summary.from_run_s", l.from_run_s, "s"),
        (
            "summary.ns_per_session",
            per(l.from_run_busy_s * 1e9, l.sessions as f64),
            "ns",
        ),
        ("summary.merge_finalize_s", l.merge_finalize_s, "s"),
        ("analysis.estimate_s", l.estimate_s, "s"),
        ("runner.busy_frac", l.busy_frac, "ratio"),
        ("runner.tail_idle_s", l.tail_idle_s, "s"),
        ("runner.self_s", l.runner_self_s, "s"),
        ("trace.wall_s", l.wall_s, "s"),
        ("trace.self_s", l.trace_self_s, "s"),
        ("trace.unaccounted_s", l.unaccounted_s, "s"),
        (
            "trace.overhead_frac",
            timing(&walls(traced)) / untraced_wall_s - 1.0,
            "ratio",
        ),
    ]
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What ran: workload, seeds, backend, workers, source revision and a
/// configuration fingerprint.
fn provenance(
    opts: &Options,
    inputs: &Inputs,
    reps: usize,
    traced: usize,
    setup_samples: usize,
) -> String {
    let replication_seeds = match inputs {
        Inputs::Link(l) => vec![l.seed],
        Inputs::Fleet(f) => f.seeds.clone(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"plant_seed\": {PLANT_SEED}, \
         \"replication_seeds\": {replication_seeds:?}, \"backend\": \"event\", \"oracle\": \"tick\", \
         \"workers\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \"source_fnv\": \"{:016x}\", \
         \"config_fnv\": \"{:016x}\", \"seconds\": {}, \"reps\": {reps}, \"traced_reps\": {traced}, \
         \"setup_samples\": {setup_samples}, \"setup_batch\": {SETUP_BATCH}, \
         \"timing_quantile\": {TIMING_QUANTILE}}}}}",
        opts.workload.name(),
        opts.seed,
        inputs.workers(),
        git_rev(),
        source_fnv(),
        debug_fnv(inputs),
        opts.seconds,
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// in path order: names the program's source even without git.
fn source_fnv() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        if let Ok(bytes) = std::fs::read(&path) {
            h.bytes(path.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    h.finish()
}
