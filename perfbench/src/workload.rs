//! The three workloads: what each builds from the seed, the untraced
//! run that the end-to-end metrics time, and the traced decomposition
//! that times each layer from outside through its public functions.

use std::time::Instant;

use causal::estimators::BetweenWithin;
use repro_bench::{FailurePolicy, Runner};
use streamsim::fleet::{run_fleet_link_with, FleetLinkJob};
use streamsim::session::{LinkId, Metric};
use streamsim::sim::HourlyLinkStats;
use streamsim::{
    AllocationSchedule, EngineBackend, FleetDesign, FleetSim, LinkSim, LinkSpec, RoutingConfig,
    RoutingPolicy, SessionRecord, StreamConfig, TelemetryFaults,
};
use unbiased::fleet::{
    control_mean_summary, fleet_between_within_summary, link_level_effect_summary,
    user_level_effect_summary, FleetEffect, FleetLinkSummary, FleetSummary, DEFAULT_SKETCH_CAP,
};

use crate::fingerprint::{debug_fnv, records_fnv, Fingerprint, Fnv};
use crate::measure::{cpu_s, peak_rss_mb, reset_peak_rss};

/// Seed the benchmark runs when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for checking a claimed gain afterwards.
pub const HELD_OUT_SEED: u64 = 7919;
/// Worker threads of the fleet sweeps.
pub const WORKERS: usize = 2;
/// Links in each fleet.
pub const FLEET_LINKS: usize = 48;
/// Seed of the fleet's link population: the plant is fixed, as in the
/// fleet figures; the workload seed drives everything run on it.
pub const PLANT_SEED: u64 = 99;
/// An hour counts as congested when its mean utilization reaches this.
pub const CONGESTED_UTILIZATION: f64 = 0.98;

const FAULTY_DAYS: usize = 1;
const FAULTY_REPLICATIONS: usize = 3;
/// Even, so every link's daily switchback is balanced.
const ROUTED_DAYS: usize = 4;
const ROUTED_REPLICATIONS: usize = 1;
const ROUTED_K: usize = 3;
const P_HI: f64 = 0.95;
const P_LO: f64 = 0.05;

/// The metrics every fleet workload estimates effects on.
const ESTIMATE_METRICS: [Metric; 5] = [
    Metric::Throughput,
    Metric::MinRtt,
    Metric::PlayDelay,
    Metric::Bitrate,
    Metric::Quality,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One default 1 Gb/s, five-day congested link on one thread.
    LinkFiveDay,
    /// A link-level fleet with lossy telemetry under quarantine.
    FleetFaulty,
    /// A routed fleet of staggered switchbacks.
    FleetRouted,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::LinkFiveDay,
        Workload::FleetFaulty,
        Workload::FleetRouted,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinkFiveDay => "link_five_day",
            Workload::FleetFaulty => "fleet_faulty",
            Workload::FleetRouted => "fleet_routed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Build the workload's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::LinkFiveDay => {
                let cfg = StreamConfig::default();
                cfg.validate().expect("default stream config is valid");
                Inputs::Link(LinkInputs { cfg, seed })
            }
            Workload::FleetFaulty => {
                let (base, specs) =
                    repro_bench::fleet_population(FLEET_LINKS, FAULTY_DAYS, PLANT_SEED);
                let mut seeds = repro_bench::derive_seeds(seed, FAULTY_REPLICATIONS + 1);
                let fault_seed = seeds.pop().expect("derived a fault seed");
                let faults = TelemetryFaults {
                    drop_mcar: 0.02,
                    drop_congested: 0.2,
                    duplicate_p: 0.05,
                    corrupt_nan_p: 0.01,
                    reorder_window: 8,
                    ..TelemetryFaults::none(fault_seed)
                };
                faults.validate().expect("benchmark faults are valid");
                Inputs::Fleet(FleetInputs {
                    base,
                    specs,
                    design: FleetDesign::LinkLevel {
                        p_hi: P_HI,
                        p_lo: P_LO,
                    },
                    seeds,
                    faults: Some(faults),
                    routing: None,
                })
            }
            Workload::FleetRouted => {
                let (base, specs) =
                    repro_bench::fleet_population(FLEET_LINKS, ROUTED_DAYS, PLANT_SEED);
                let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, ROUTED_K);
                routing.validate().expect("benchmark routing is valid");
                Inputs::Fleet(FleetInputs {
                    base,
                    specs,
                    design: FleetDesign::StaggeredSwitchback {
                        p_hi: P_HI,
                        p_lo: P_LO,
                        period_days: 1,
                    },
                    seeds: repro_bench::derive_seeds(seed, ROUTED_REPLICATIONS),
                    faults: None,
                    routing: Some(routing),
                })
            }
        }
    }

    /// The benchmark's set-up: build the inputs and what the program
    /// builds from them before it runs (the link simulator, or each
    /// replication's fleet plan). Runs rebuild that state themselves,
    /// so it is dropped here; only its cost is of interest.
    pub fn setup(self, seed: u64) -> Inputs {
        let inputs = self.inputs(seed);
        match &inputs {
            Inputs::Link(l) => {
                std::hint::black_box(l.sim());
            }
            Inputs::Fleet(f) => {
                for &s in &f.seeds {
                    std::hint::black_box(FleetSim::new(&f.base, &f.specs, &f.design, s));
                }
            }
        }
        inputs
    }
}

/// Inputs of the single-link workload.
#[derive(Debug, Clone)]
pub struct LinkInputs {
    /// Link configuration.
    pub cfg: StreamConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl LinkInputs {
    fn sim(&self) -> LinkSim {
        LinkSim::new(
            self.cfg.clone(),
            LinkId::One,
            AllocationSchedule::Constant(0.5),
            self.seed,
        )
    }
}

/// Inputs of a fleet workload.
#[derive(Debug, Clone)]
pub struct FleetInputs {
    /// Base link configuration.
    pub base: StreamConfig,
    /// The sampled links.
    pub specs: Vec<LinkSpec>,
    /// Treatment design.
    pub design: FleetDesign,
    /// Replication seeds, one sweep slot each.
    pub seeds: Vec<u64>,
    /// Telemetry fault model, if collection is lossy.
    pub faults: Option<TelemetryFaults>,
    /// Arrival router, if links share one arrival stream.
    pub routing: Option<RoutingConfig>,
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// The single-link workload.
    Link(LinkInputs),
    /// A fleet workload.
    Fleet(FleetInputs),
}

/// End-to-end measurements of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Peak RSS during the run, MB.
    pub peak_rss_mb: f64,
}

/// One estimate, kept whole so its bits can be checked.
#[derive(Debug)]
pub enum Estimate {
    /// A fleet effect.
    Effect(expstats::Result<FleetEffect>),
    /// A between/within-link decomposition.
    Split(expstats::Result<BetweenWithin>),
}

impl Estimate {
    /// Whether the estimator returned a value.
    pub fn is_ok(&self) -> bool {
        match self {
            Estimate::Effect(r) => r.is_ok(),
            Estimate::Split(r) => r.is_ok(),
        }
    }

    /// FNV-1a over the estimate's bit patterns (or its error).
    pub fn fnv(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Estimate::Effect(Ok(e)) => {
                for x in [e.absolute, e.relative, e.ci95.0, e.ci95.1, e.se] {
                    h.float(x);
                }
                h.word(e.n_sessions as u64);
                h.word(e.n_clusters as u64);
            }
            Estimate::Split(Ok(s)) => {
                for d in [&s.within, &s.between] {
                    match d {
                        Some(d) => {
                            for x in [d.estimate, d.se, d.ci.0, d.ci.1, d.dof] {
                                h.float(x);
                            }
                        }
                        None => h.word(u64::MAX),
                    }
                }
                h.word(s.n_within as u64);
                h.word(s.n_between.0 as u64);
                h.word(s.n_between.1 as u64);
            }
            Estimate::Effect(Err(e)) => h.bytes(format!("{e:?}").as_bytes()),
            Estimate::Split(Err(e)) => h.bytes(format!("{e:?}").as_bytes()),
        }
        h.finish()
    }
}

/// Named estimates of one replication.
pub type Estimates = Vec<(String, Estimate)>;

/// The output of one run, as far as it is checked.
#[derive(Debug)]
pub enum Output {
    /// The single link's session records.
    Link(Vec<SessionRecord>),
    /// Per-replication summaries and their estimates.
    Fleet(Vec<FleetSummary>, Vec<Estimates>),
}

impl Output {
    /// Hashes of everything the run produced.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        match self {
            Output::Link(records) => {
                fp.insert("r0.link0.records".into(), records_fnv(records));
                fp.insert("r0.link0.sessions".into(), records.len() as u64);
            }
            Output::Fleet(summaries, estimates) => {
                for (r, (summary, estimates)) in summaries.iter().zip(estimates).enumerate() {
                    insert_fleet(&mut fp, r, summary, estimates);
                }
            }
        }
        fp
    }
}

fn insert_fleet(fp: &mut Fingerprint, r: usize, summary: &FleetSummary, estimates: &Estimates) {
    for link in &summary.links {
        fp.insert(format!("r{r}.link{}.summary", link.link), debug_fnv(link));
    }
    fp.insert(format!("r{r}.fleet"), debug_fnv(summary));
    for (name, e) in estimates {
        fp.insert(format!("r{r}.estimate.{name}"), e.fnv());
    }
}

impl Inputs {
    /// Links per replication and replications per run.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Inputs::Link(_) => (1, 1),
            Inputs::Fleet(f) => (f.specs.len(), f.seeds.len()),
        }
    }

    /// Worker threads a run actually uses.
    pub fn workers(&self) -> usize {
        match self {
            Inputs::Link(_) => 1,
            Inputs::Fleet(f) => WORKERS.min(f.specs.len() * f.seeds.len()).max(1),
        }
    }

    /// One untraced run on the event engine, timed.
    pub fn run(&self, runner: &Runner) -> (Sample, Output) {
        match self {
            Inputs::Link(l) => {
                let sim = l.sim();
                let (sample, (records, _hourly)) = measured(|| sim.run_with(EngineBackend::Event));
                (sample, Output::Link(records))
            }
            Inputs::Fleet(f) => {
                let (sample, (summaries, estimates)) = measured(|| {
                    let summaries = f.sweep(runner);
                    let estimates = summaries.iter().map(|s| f.estimates(s)).collect();
                    (summaries, estimates)
                });
                (sample, Output::Fleet(summaries, estimates))
            }
        }
    }
}

/// Run `f` between the end-to-end probes.
fn measured<R>(f: impl FnOnce() -> R) -> (Sample, R) {
    reset_peak_rss();
    let cpu0 = cpu_s();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_s() - cpu0;
    let sample = Sample {
        wall_s,
        cpu_s,
        peak_rss_mb: peak_rss_mb(),
    };
    (sample, out)
}

impl FleetInputs {
    /// The production sweep: one streaming summary per replication.
    pub fn sweep(&self, runner: &Runner) -> Vec<FleetSummary> {
        let runs = match &self.routing {
            None => runner.sweep_fleet_streaming_policy(
                &self.base,
                &self.specs,
                &self.design,
                &self.seeds,
                DEFAULT_SKETCH_CAP,
                EngineBackend::Event,
                self.faults.as_ref(),
                FailurePolicy::Quarantine {
                    max_failures: self.specs.len() * self.seeds.len(),
                },
            ),
            Some(routing) => runner.sweep_fleet_streaming_routed_with(
                &self.base,
                &self.specs,
                &self.design,
                routing,
                &self.seeds,
                DEFAULT_SKETCH_CAP,
                EngineBackend::Event,
            ),
        };
        runs.into_iter().map(|r| r.result).collect()
    }

    /// The estimates the design supports, per metric: link-level and
    /// user-level effects for a link-level design; for switchbacks,
    /// which assign no link arms, the user-level effect and the
    /// within-link (switchback) contrast with its between-link twin.
    pub fn estimates(&self, summary: &FleetSummary) -> Estimates {
        let links = summary.link_refs();
        let mut out = Vec::new();
        for metric in ESTIMATE_METRICS {
            let baseline = control_mean_summary(&links, metric);
            let user = Estimate::Effect(user_level_effect_summary(&links, metric, baseline));
            let other = match self.design {
                FleetDesign::StaggeredSwitchback { .. } => (
                    "within_between",
                    Estimate::Split(fleet_between_within_summary(&links, metric)),
                ),
                _ => (
                    "link_level",
                    Estimate::Effect(link_level_effect_summary(&links, metric, baseline)),
                ),
            };
            out.push((format!("user_level.{metric:?}"), user));
            out.push((format!("{}.{metric:?}", other.0), other.1));
        }
        out
    }
}

/// Where one traced run spent its time. Times are self-times in seconds
/// of the traced wall clock: a layer that ran on `w` pool workers counts
/// its busy seconds divided by `w`, so the self-times plus
/// `unaccounted_s` sum to `wall_s`.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced wall clock.
    pub wall_s: f64,
    /// `FleetSim::new`.
    pub plan_s: f64,
    /// `FleetSim::new_routed` minus `FleetSim::new`.
    pub prepass_s: f64,
    /// Routed arrivals the pre-pass produced.
    pub arrivals: u64,
    /// The engine (`LinkSim::run_with`, `run_fleet_link_with`).
    pub engine_s: f64,
    /// Engine busy seconds summed over link jobs.
    pub engine_busy_s: f64,
    /// Engine seconds of each link job.
    pub job_s: Vec<f64>,
    /// Session-ticks simulated (mean concurrency × ticks, per hour).
    pub session_ticks: f64,
    /// Link-hours at or above [`CONGESTED_UTILIZATION`].
    pub congested_hours: u64,
    /// `TelemetryFaults::apply`.
    pub telemetry_s: f64,
    /// Telemetry busy seconds summed over link jobs.
    pub telemetry_busy_s: f64,
    /// Records handed to the telemetry model.
    pub records_in: u64,
    /// Records it delivered.
    pub delivered: u64,
    /// `FleetLinkSummary::from_run`, including releasing the records.
    pub from_run_s: f64,
    /// Its busy seconds summed over link jobs.
    pub from_run_busy_s: f64,
    /// Sessions summarized.
    pub sessions: u64,
    /// `FleetSummary::fold`, `merge` and `finalize`.
    pub merge_finalize_s: f64,
    /// The estimators.
    pub estimate_s: f64,
    /// Σ job time ÷ (workers × pool wall).
    pub busy_frac: f64,
    /// Worker-seconds idle at the end of the pool, waiting on the last job.
    pub tail_idle_s: f64,
    /// The pool minus the layers it ran: scheduling, idling, glue.
    pub runner_self_s: f64,
    /// The trace's own work: hashing records for the oracle check and
    /// the extra unrouted plan that separates planning from routing.
    pub trace_self_s: f64,
    /// Wall clock in no span.
    pub unaccounted_s: f64,
    /// Per-hour tick-loop split (single link only).
    pub hours: Option<HourSplit>,
}

/// The tick loop's time split by congested and uncongested hours.
#[derive(Debug, Clone, Copy, Default)]
pub struct HourSplit {
    /// Hours at or above [`CONGESTED_UTILIZATION`].
    pub congested_hours: u64,
    /// Seconds spent in them.
    pub congested_s: f64,
    /// Hours below.
    pub uncongested_hours: u64,
    /// Seconds spent in them.
    pub uncongested_s: f64,
}

/// A traced run: per-layer times, and the output for checking.
#[derive(Debug)]
pub struct Traced {
    /// Where the time went.
    pub layers: Layers,
    /// Hashes of the run's output, records included.
    pub fingerprint: Fingerprint,
    /// Fleet summaries, for comparison with the untraced sweep.
    pub summaries: Vec<FleetSummary>,
}

fn ticks_per_hour(cfg: &StreamConfig) -> f64 {
    3600.0 / cfg.dt_s
}

fn hour_counts(hourly: &[HourlyLinkStats], cfg: &StreamConfig) -> (f64, u64) {
    let ticks = ticks_per_hour(cfg);
    let session_ticks = hourly.iter().map(|h| h.concurrent * ticks).sum();
    let congested = hourly
        .iter()
        .filter(|h| h.utilization >= CONGESTED_UTILIZATION)
        .count() as u64;
    (session_ticks, congested)
}

impl Inputs {
    /// A traced run on `backend`. On the tick backend this is the
    /// oracle; the single link's tick loop is then stepped hour by hour.
    pub fn traced(&self, runner: &Runner, backend: EngineBackend) -> Traced {
        match self {
            Inputs::Link(l) => l.traced(backend),
            Inputs::Fleet(f) => f.traced(runner, backend),
        }
    }
}

impl LinkInputs {
    fn traced(&self, backend: EngineBackend) -> Traced {
        let mut sim = self.sim();
        let start = Instant::now();
        let mut hours = None;
        let (records, hourly) = match backend {
            EngineBackend::Event => sim.run_with(EngineBackend::Event),
            EngineBackend::Tick => {
                // Step the reference loop one hour at a time; `run`
                // finishes any remaining ticks and flushes the last hour.
                let per_hour = ticks_per_hour(&self.cfg).round() as usize;
                let mut hour_s = Vec::with_capacity(self.cfg.days * 24);
                for _ in 0..self.cfg.days * 24 {
                    let t = Instant::now();
                    for _ in 0..per_hour {
                        sim.step();
                    }
                    hour_s.push(t.elapsed().as_secs_f64());
                }
                let t = Instant::now();
                let out = sim.run();
                if let Some(last) = hour_s.last_mut() {
                    *last += t.elapsed().as_secs_f64();
                }
                let mut split = HourSplit::default();
                for (h, s) in out.1.iter().zip(&hour_s) {
                    if h.utilization >= CONGESTED_UTILIZATION {
                        split.congested_hours += 1;
                        split.congested_s += s;
                    } else {
                        split.uncongested_hours += 1;
                        split.uncongested_s += s;
                    }
                }
                hours = Some(split);
                out
            }
        };
        // The engine is the traced run's only span.
        let engine_s = start.elapsed().as_secs_f64();
        let (session_ticks, congested_hours) = hour_counts(&hourly, &self.cfg);
        let layers = Layers {
            wall_s: engine_s,
            engine_s,
            engine_busy_s: engine_s,
            job_s: vec![engine_s],
            session_ticks,
            congested_hours,
            hours,
            ..Layers::default()
        };
        Traced {
            layers,
            fingerprint: Output::Link(records).fingerprint(),
            summaries: Vec::new(),
        }
    }
}

/// Per-worker state of the traced pool.
struct PoolAcc {
    summaries: Vec<FleetSummary>,
    fingerprint: Fingerprint,
    stats: JobStats,
    workers: Vec<WorkerStats>,
    merge_s: f64,
}

/// Busy seconds and counts summed over the jobs of one pool partial.
#[derive(Default)]
struct JobStats {
    engine_s: f64,
    job_s: Vec<f64>,
    session_ticks: f64,
    congested_hours: u64,
    telemetry_s: f64,
    records_in: u64,
    delivered: u64,
    from_run_s: f64,
    sessions: u64,
    fold_s: f64,
    hash_s: f64,
}

struct WorkerStats {
    busy_s: f64,
    last_end: Option<Instant>,
}

impl PoolAcc {
    fn new(replications: usize) -> PoolAcc {
        PoolAcc {
            summaries: (0..replications)
                .map(|_| FleetSummary::new(DEFAULT_SKETCH_CAP))
                .collect(),
            fingerprint: Fingerprint::default(),
            stats: JobStats::default(),
            workers: vec![WorkerStats {
                busy_s: 0.0,
                last_end: None,
            }],
            merge_s: 0.0,
        }
    }

    /// One link job, layer by layer, in the order `run_fleet_link_with`
    /// and the streaming sweep run them.
    fn run_job(
        &mut self,
        slot: usize,
        job: &FleetLinkJob,
        backend: EngineBackend,
        faults: Option<&TelemetryFaults>,
    ) {
        let start = Instant::now();
        // The job carries no faults, so this is the engine alone.
        let mut run = run_fleet_link_with(job, backend);
        let t = Instant::now();
        let s = &mut self.stats;
        let engine_s = (t - start).as_secs_f64();
        s.engine_s += engine_s;
        s.job_s.push(engine_s);
        let (session_ticks, congested) = hour_counts(&run.hourly, &job.cfg);
        s.session_ticks += session_ticks;
        s.congested_hours += congested;
        self.fingerprint.insert(
            format!("r{slot}.link{}.records", job.link),
            records_fnv(&run.sessions),
        );
        self.fingerprint.insert(
            format!("r{slot}.link{}.sessions", job.link),
            run.sessions.len() as u64,
        );
        s.hash_s += t.elapsed().as_secs_f64();
        if let Some(faults) = faults {
            let t = Instant::now();
            let records = std::mem::take(&mut run.sessions);
            s.records_in += records.len() as u64;
            let (delivered, stats) = faults.apply(job.link, records);
            s.delivered += delivered.len() as u64;
            run.sessions = delivered;
            run.telemetry = stats;
            s.telemetry_s += t.elapsed().as_secs_f64();
        }
        let t_sum = Instant::now();
        let summary = FleetLinkSummary::from_run(&run, DEFAULT_SKETCH_CAP);
        s.sessions += run.sessions.len() as u64;
        drop(run);
        let t_fold = Instant::now();
        s.from_run_s += (t_fold - t_sum).as_secs_f64();
        self.summaries[slot].fold(summary);
        s.fold_s += t_fold.elapsed().as_secs_f64();
        let end = Instant::now();
        let worker = &mut self.workers[0];
        worker.busy_s += (end - start).as_secs_f64();
        worker.last_end = Some(end);
    }

    fn merge(&mut self, other: PoolAcc) {
        let t = Instant::now();
        for (mine, theirs) in self.summaries.iter_mut().zip(other.summaries) {
            mine.merge(theirs);
        }
        for (label, hash) in other.fingerprint.entries() {
            self.fingerprint.insert(label.to_string(), hash);
        }
        let (s, o) = (&mut self.stats, other.stats);
        s.engine_s += o.engine_s;
        s.job_s.extend(o.job_s);
        s.session_ticks += o.session_ticks;
        s.congested_hours += o.congested_hours;
        s.telemetry_s += o.telemetry_s;
        s.records_in += o.records_in;
        s.delivered += o.delivered;
        s.from_run_s += o.from_run_s;
        s.sessions += o.sessions;
        s.fold_s += o.fold_s;
        s.hash_s += o.hash_s;
        self.workers.extend(other.workers);
        self.merge_s += other.merge_s + t.elapsed().as_secs_f64();
    }
}

impl FleetInputs {
    fn traced(&self, runner: &Runner, backend: EngineBackend) -> Traced {
        let start = Instant::now();
        let mut layers = Layers::default();

        // 1. Plan each replication, routing it for the routed fleet.
        let mut jobs: Vec<FleetLinkJob> = Vec::with_capacity(self.specs.len() * self.seeds.len());
        let mut pairs = Vec::with_capacity(self.seeds.len());
        let mut extra_plan_s = 0.0;
        for &seed in &self.seeds {
            let t = Instant::now();
            let plain = FleetSim::new(&self.base, &self.specs, &self.design, seed);
            let plan_s = t.elapsed().as_secs_f64();
            layers.plan_s += plan_s;
            let sim = match &self.routing {
                None => plain,
                Some(routing) => {
                    drop(plain);
                    let t = Instant::now();
                    let routed =
                        FleetSim::new_routed(&self.base, &self.specs, &self.design, routing, seed);
                    layers.prepass_s += t.elapsed().as_secs_f64() - plan_s;
                    extra_plan_s += plan_s;
                    routed
                }
            };
            let (seed_jobs, seed_pairs) = sim.into_parts();
            layers.arrivals += seed_jobs
                .iter()
                .map(|j| j.routed.as_ref().map_or(0, |a| a.len() as u64))
                .sum::<u64>();
            jobs.extend(seed_jobs);
            pairs.push(seed_pairs);
        }

        // 2-4. Engine, telemetry and summary per link job, folded per
        // worker and merged.
        let per_seed = self.specs.len();
        let faults = self.faults.as_ref();
        let pool_start = Instant::now();
        let acc = runner.map_fold(
            &jobs,
            || PoolAcc::new(self.seeds.len()),
            |acc, idx, job| acc.run_job(idx / per_seed, job, backend, faults),
            PoolAcc::merge,
        );
        let pool_s = pool_start.elapsed().as_secs_f64();

        // 5. Finalize, then estimate.
        let t = Instant::now();
        let mut summaries = acc.summaries;
        for (summary, p) in summaries.iter_mut().zip(pairs) {
            summary.finalize(p);
        }
        let finalize_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let estimates: Vec<Estimates> = summaries.iter().map(|s| self.estimates(s)).collect();
        layers.estimate_s = t.elapsed().as_secs_f64();
        layers.wall_s = start.elapsed().as_secs_f64();

        let w = runner.threads().min(jobs.len()).max(1) as f64;
        let s = acc.stats;
        let spans_busy = s.engine_s + s.telemetry_s + s.from_run_s + s.fold_s + s.hash_s;
        layers.engine_s = s.engine_s / w;
        layers.engine_busy_s = s.engine_s;
        layers.job_s = s.job_s;
        layers.session_ticks = s.session_ticks;
        layers.congested_hours = s.congested_hours;
        layers.telemetry_s = s.telemetry_s / w;
        layers.telemetry_busy_s = s.telemetry_s;
        layers.records_in = s.records_in;
        layers.delivered = s.delivered;
        layers.from_run_s = s.from_run_s / w;
        layers.from_run_busy_s = s.from_run_s;
        layers.sessions = s.sessions;
        layers.merge_finalize_s = s.fold_s / w + acc.merge_s + finalize_s;
        let job_busy: f64 = acc.workers.iter().map(|k| k.busy_s).sum();
        layers.busy_frac = job_busy / (w * pool_s);
        let last = acc.workers.iter().filter_map(|k| k.last_end).max();
        layers.tail_idle_s = acc
            .workers
            .iter()
            .filter_map(|k| Some((last? - k.last_end?).as_secs_f64()))
            .sum();
        layers.runner_self_s = pool_s - acc.merge_s - spans_busy / w;
        layers.trace_self_s = s.hash_s / w + extra_plan_s;
        layers.unaccounted_s = layers.wall_s
            - (layers.plan_s
                + layers.prepass_s
                + layers.engine_s
                + layers.telemetry_s
                + layers.from_run_s
                + layers.merge_finalize_s
                + layers.estimate_s
                + layers.runner_self_s
                + layers.trace_self_s);

        let mut fingerprint = acc.fingerprint;
        for (r, (summary, estimates)) in summaries.iter().zip(&estimates).enumerate() {
            insert_fleet(&mut fingerprint, r, summary, estimates);
        }
        Traced {
            layers,
            fingerprint,
            summaries,
        }
    }
}
