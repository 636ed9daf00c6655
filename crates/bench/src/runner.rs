//! Multi-seed parallel scenario runner.
//!
//! Replication sweeps are the workhorse of every figure and of the
//! replication-hungry tests: run the same scenario under many seeds,
//! collect per-seed metrics, aggregate. This module fans those
//! replications across `std::thread` workers while keeping the results
//! **bit-identical to sequential execution**:
//!
//! * every replication derives its own seed up front (either an
//!   explicit seed list or a SplitMix64 stream forked from a root
//!   seed), so no RNG state is shared between workers;
//! * results carry their job index and are put back in index order, so
//!   output order is the seed order regardless of which worker finished
//!   first.
//!
//! ```
//! use repro_bench::runner::Runner;
//!
//! let runner = Runner::new();
//! let runs = runner.sweep(&3u64, &[1, 2, 3], |mult, seed| seed * mult);
//! assert_eq!(runs.iter().map(|r| r.result).collect::<Vec<_>>(), vec![3, 6, 9]);
//! ```
//!
//! # Fleet sweeps
//!
//! A fleet experiment is described once, as a [`FleetSweep`]: the base
//! config, the link specs, the design and the replication seeds, plus
//! an optional shared arrival router, an optional telemetry fault model
//! and the engine backend ([`EngineBackend::Event`] unless overridden).
//! [`FleetSweep::new`] fills in the defaults; override the rest with
//! struct-update syntax. Two sinks run it:
//!
//! * [`Runner::fleet_records`] keeps every link's session records (one
//!   [`FleetRun`] per seed). Job panics propagate.
//! * [`Runner::fleet_summaries`] folds each link into a mergeable
//!   [`FleetSummary`] as soon as its job finishes, so memory scales with
//!   links, not sessions, and takes a [`FailurePolicy`] that can
//!   quarantine failing links.
//!
//! Both schedule every link×seed job as one flat work-stealing list:
//! 200 links × a handful of seeds saturates every core even when one
//! congested link dominates its replication. Per-link statistics are
//! computed wholly within one job and partials only concatenate links,
//! so results are bit-identical to running [`FleetSim`] per seed
//! sequentially, at any thread count and on either backend.
//!
//! ```no_run
//! use repro_bench::runner::{FailurePolicy, FleetSweep, Runner};
//! use streamsim::fleet::FleetDesign;
//! use streamsim::{RoutingConfig, RoutingPolicy};
//!
//! let (base, specs) = repro_bench::fleet_population(16, 1, 7);
//! let design = FleetDesign::LinkLevel { p_hi: 0.95, p_lo: 0.05 };
//! let routing = RoutingConfig::new(RoutingPolicy::LeastLoad, 3);
//! let sweep = FleetSweep {
//!     routing: Some(&routing),
//!     ..FleetSweep::new(&base, &specs, &design, &[1, 2])
//! };
//! let summaries = Runner::new().fleet_summaries(&sweep, 1024, FailurePolicy::FailFast);
//! assert_eq!(summaries.len(), 2);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use dessim::{require, SimRng};
use netsim::config::DumbbellConfig;
use netsim::{run_dumbbell, LabResult};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{
    run_fleet_link_with, FleetDesign, FleetLinkJob, FleetLinkRun, FleetRun, FleetSim, LinkSpec,
};
use streamsim::routing::RoutingConfig;
use streamsim::telemetry::TelemetryFaults;
use unbiased::fleet::{FleetLinkSummary, FleetSummary};

/// What a fleet sweep does when one link×seed job panics.
///
/// A 10k-link sweep is hours of work; a single poisoned link (bad spec,
/// telemetry-collector crash, simulator bug on one configuration)
/// shouldn't take the whole sweep down — but silently absorbing failures
/// would be worse. `Quarantine` caps how many losses are tolerable and
/// reports every one in the summary's
/// [`DegradedReport`](unbiased::fleet::DegradedReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Propagate the first job panic to the caller (the default, and
    /// the pre-existing behavior of every sweep).
    FailFast,
    /// Catch job panics and quarantine the affected links: the sweep
    /// completes on the surviving links, which are bit-identical to a
    /// clean sweep restricted to the same set. Once more than
    /// `max_failures` jobs have panicked (counted sweep-wide, across
    /// seeds), the next failure propagates — mass failure means the
    /// world is broken, not one link.
    Quarantine {
        /// Maximum tolerated job panics before failing fast after all.
        max_failures: usize,
    },
}

/// Best-effort stringification of a caught panic payload (`&str` and
/// `String` payloads cover `panic!`/`assert!`; anything else gets a
/// placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One replication's outcome, tagged with the seed that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun<R> {
    /// Seed the scenario ran under.
    pub seed: u64,
    /// Whatever the scenario function returned.
    pub result: R,
}

/// Derive `n` replication seeds from a root seed.
///
/// Uses the same SplitMix64 forking discipline as [`dessim::SimRng`]:
/// the stream depends only on `(root, n)`'s prefix, so extending a
/// sweep from 8 to 16 replications keeps the first 8 seeds (and hence
/// their results) unchanged.
pub fn derive_seeds(root: u64, n: usize) -> Vec<u64> {
    let mut rng = SimRng::new(root);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// A fixed-size pool specification for running scenario replications in
/// parallel.
///
/// `Runner` holds no threads itself; each sweep spins up scoped workers
/// that claim *chunks* of job indices off a shared atomic counter
/// (dynamic load balancing — congested-seed replications don't stall
/// the rest of the sweep, while sub-millisecond replications don't pay
/// one atomic RMW and one mutex round-trip each).
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
}

/// Smallest chunk a worker claims. 1 keeps the tail perfectly balanced
/// (an expensive final replication is never bundled with others); the
/// decay heuristic in [`Runner::map_fold`] only matters while plenty of
/// work remains.
const MIN_CHUNK: usize = 1;

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// Runner using all available cores.
    pub fn new() -> Runner {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Runner { threads }
    }

    /// Runner with an explicit worker count (`with_threads(1)` is exact
    /// sequential execution; useful for parity checks).
    pub fn with_threads(threads: usize) -> Runner {
        assert!(threads > 0, "runner needs at least one worker");
        Runner { threads }
    }

    /// Number of workers a sweep will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every job, in parallel, preserving job order in the
    /// output: [`Runner::map_fold`] into `(index, result)` pairs, sorted
    /// by index.
    ///
    /// A panic in any job propagates to the caller with its payload, as
    /// in [`Runner::map_fold`].
    pub fn map<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let mut done = self.map_fold(
            jobs,
            Vec::new,
            |done: &mut Vec<(usize, R)>, idx, job| done.push((idx, f(job))),
            Vec::extend,
        );
        done.sort_unstable_by_key(|&(idx, _)| idx);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Run `fold(acc, index, job)` over every job and reduce the
    /// per-worker partial accumulators with `merge`, never buffering
    /// per-job results.
    ///
    /// Work distribution is chunked work-stealing: each worker claims a
    /// contiguous index range sized by a decay heuristic —
    /// `remaining / (2 · workers)`, clamped to `MIN_CHUNK` — so early
    /// claims amortize the shared counter over many jobs while late
    /// claims shrink toward single jobs for tail balance. The worker
    /// count is clamped to the job count, so `threads > jobs` never
    /// spawns workers that could only spin on empty claims.
    ///
    /// Each worker folds the jobs it claims into its own accumulator
    /// (created by `init`); when the job list is drained the partials
    /// are merged pairwise. `merge` receives partials in a
    /// scheduler-dependent order, so it must be associative and
    /// order-insensitive for deterministic output (the fleet summary
    /// types guarantee exactly that: concatenation plus set-semantics
    /// sketch union). `fold` receives the job's index so one
    /// accumulator can hold slots for several logical groups (e.g. one
    /// fleet summary per seed).
    ///
    /// A panic in any job propagates to the caller, with that job's
    /// payload, once all workers have stopped picking up new work; when
    /// several workers panic, the first spawned one's payload wins.
    pub fn map_fold<J, A, I, F, M>(&self, jobs: &[J], init: I, fold: F, merge: M) -> A
    where
        J: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, &J) + Sync,
        M: Fn(&mut A, A) + Sync,
    {
        let n = jobs.len();
        let workers = self.threads.min(n).max(1);
        if workers == 1 {
            let mut acc = init();
            for (i, job) in jobs.iter().enumerate() {
                fold(&mut acc, i, job);
            }
            return acc;
        }

        let next = AtomicUsize::new(0);
        let partials: Mutex<Vec<A>> = Mutex::new(Vec::new());
        let panicked = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| {
                    let mut acc = init();
                    let mut claimed = false;
                    loop {
                        // The chunk size reads a possibly stale counter;
                        // the fetch_add below is the single source of
                        // truth for which indices this worker owns, so a
                        // stale read only mis-sizes the claim, never
                        // double-assigns.
                        let seen = next.load(Ordering::Relaxed);
                        if seen >= n {
                            break;
                        }
                        let chunk = ((n - seen) / (2 * workers)).max(MIN_CHUNK);
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, job) in jobs[start..end].iter().enumerate() {
                            fold(&mut acc, start + i, job);
                        }
                        claimed = true;
                    }
                    // Workers that never claimed work contribute nothing;
                    // dropping their empty accumulator keeps `merge` from
                    // having to handle identity elements.
                    if claimed {
                        partials.lock().unwrap().push(acc);
                    }
                }));
            }
            // Join every worker here: the scope's own join would replace
            // a job's panic payload with "a scoped thread panicked".
            let mut first = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first.get_or_insert(payload);
                }
            }
            first
        });
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        let mut it = partials.into_inner().unwrap().into_iter();
        let mut acc = it.next().unwrap_or_else(&init);
        for partial in it {
            merge(&mut acc, partial);
        }
        acc
    }

    /// Run `scenario(cfg, seed)` once per seed, in parallel; results
    /// come back in seed-list order and are identical to running the
    /// seeds sequentially.
    pub fn sweep<C, R, F>(&self, cfg: &C, seeds: &[u64], scenario: F) -> Vec<SeedRun<R>>
    where
        C: Sync,
        R: Send,
        F: Fn(&C, u64) -> R + Sync,
    {
        self.map(seeds, |&seed| SeedRun {
            seed,
            result: scenario(cfg, seed),
        })
    }

    /// Sweep a (parameter × seed) grid as one flat parallel job list.
    ///
    /// The ablation figures sweep a handful of configurations across
    /// replication seeds each; scheduling the full cross product at once
    /// keeps all workers busy even when one parameter's replications are
    /// slow. Results come back grouped per parameter (input order), each
    /// group in seed order and bit-identical to a nested sequential
    /// loop.
    pub fn sweep_grid<P, R, F>(&self, params: &[P], seeds: &[u64], f: F) -> Vec<Vec<SeedRun<R>>>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Sync,
    {
        let jobs: Vec<(usize, u64)> = params
            .iter()
            .enumerate()
            .flat_map(|(pi, _)| seeds.iter().map(move |&s| (pi, s)))
            .collect();
        let flat = self.map(&jobs, |&(pi, seed)| SeedRun {
            seed,
            result: f(&params[pi], seed),
        });
        let mut grouped: Vec<Vec<SeedRun<R>>> = Vec::with_capacity(params.len());
        let mut it = flat.into_iter();
        for _ in 0..params.len() {
            grouped.push(it.by_ref().take(seeds.len()).collect());
        }
        grouped
    }

    /// Sweep the lab dumbbell scenario: each replication reruns
    /// `run_dumbbell` with the config's seed replaced by the
    /// replication seed.
    pub fn sweep_dumbbell(&self, cfg: &DumbbellConfig, seeds: &[u64]) -> Vec<SeedRun<LabResult>> {
        self.sweep(cfg, seeds, |cfg, seed| {
            let mut cfg = cfg.clone();
            cfg.seed = seed;
            run_dumbbell(&cfg).expect("sweep config must be valid")
        })
    }

    /// Run a fleet sweep and keep every link's session records: one
    /// [`FleetRun`] per replication seed, links in spec order.
    ///
    /// Any job panic (including a crash scripted by
    /// [`TelemetryFaults::crash_links`]) propagates to the caller; the
    /// record sink has no quarantine, because a quarantined link has no
    /// records to return.
    pub fn fleet_records(&self, sweep: &FleetSweep) -> Vec<SeedRun<FleetRun>> {
        self.run_fleet(
            sweep,
            Vec::new,
            |links: &mut Vec<(usize, FleetLinkRun)>, pos, job| {
                links.push((pos, run_fleet_link_with(job, sweep.backend)));
            },
            Vec::extend,
            |mut links, pairs| {
                // Partials concatenate in schedule order; the spec
                // position restores the sequential layout.
                links.sort_unstable_by_key(|&(pos, _)| pos);
                let links = links.into_iter().map(|(_, link)| link).collect();
                FleetRun { links, pairs }
            },
        )
    }

    /// Run a fleet sweep with bounded memory: every finished link job is
    /// folded into its seed's [`FleetSummary`] on the worker that ran it
    /// and its session records are dropped, so peak memory scales with
    /// links × seeds, not sessions. `sketch_cap` bounds the per-metric
    /// quantile sketches (see `unbiased::fleet::DEFAULT_SKETCH_CAP`).
    ///
    /// Under [`FailurePolicy::Quarantine`], each job runs inside
    /// `catch_unwind`: a panicking link lands in its seed summary's
    /// [`DegradedReport`](unbiased::fleet::DegradedReport) (with the
    /// panic message) and contributes nothing to the statistics. The
    /// surviving links' summary is bit-identical to a clean sweep's
    /// summary restricted to the same links. Accumulator state is only
    /// mutated *after* a job completes, so a caught panic cannot leave a
    /// partially-folded link behind (`AssertUnwindSafe` is sound here).
    ///
    /// Panics on the caller's thread, before any routing or worker
    /// runs, if `sketch_cap` is 0.
    pub fn fleet_summaries(
        &self,
        sweep: &FleetSweep,
        sketch_cap: usize,
        policy: FailurePolicy,
    ) -> Vec<SeedRun<FleetSummary>> {
        if let Err(e) = require(sketch_cap > 0, "sketch_cap") {
            panic!("Runner::fleet_summaries: {e}");
        }
        let failures = AtomicUsize::new(0);
        let fold = |summary: &mut FleetSummary, _pos, job: &FleetLinkJob| match policy {
            FailurePolicy::FailFast => {
                let run = run_fleet_link_with(job, sweep.backend);
                summary.fold(FleetLinkSummary::from_run(&run, sketch_cap));
            }
            FailurePolicy::Quarantine { max_failures } => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_fleet_link_with(job, sweep.backend)
                }));
                match outcome {
                    Ok(run) => summary.fold(FleetLinkSummary::from_run(&run, sketch_cap)),
                    Err(payload) => {
                        let seen = failures.fetch_add(1, Ordering::Relaxed) + 1;
                        if seen > max_failures {
                            std::panic::resume_unwind(payload);
                        }
                        summary.fold_quarantined(job.link, panic_message(&*payload));
                    }
                }
            }
        };
        self.run_fleet(
            sweep,
            || FleetSummary::new(sketch_cap),
            fold,
            FleetSummary::merge,
            |mut summary, pairs| {
                summary.finalize(pairs);
                summary
            },
        )
    }

    /// The fleet executor behind both sinks: every link×seed job of the
    /// sweep goes through [`Runner::map_fold`] as one flat work-stealing
    /// list, folded into one accumulator per seed. `fold` also receives
    /// the job's position within its seed; `finish` turns each seed's
    /// accumulator and pair matching into its result, in seed order.
    fn run_fleet<A, R, I, F, M, Z>(
        &self,
        sweep: &FleetSweep,
        init: I,
        fold: F,
        merge: M,
        finish: Z,
    ) -> Vec<SeedRun<R>>
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, usize, &FleetLinkJob) + Sync,
        M: Fn(&mut A, A) + Sync,
        Z: Fn(A, Vec<(usize, usize)>) -> R,
    {
        let per_seed = sweep.specs.len();
        let (jobs, per_seed_pairs) = sweep.jobs();
        let accs = self.map_fold(
            &jobs,
            || sweep.seeds.iter().map(|_| init()).collect::<Vec<_>>(),
            // Jobs are laid out seed-major, exactly `per_seed` each
            // (asserted in `FleetSweep::jobs`).
            |accs, idx, job| fold(&mut accs[idx / per_seed], idx % per_seed, job),
            |accs, partial| {
                for (mine, theirs) in accs.iter_mut().zip(partial) {
                    merge(mine, theirs);
                }
            },
        );
        sweep
            .seeds
            .iter()
            .zip(accs)
            .zip(per_seed_pairs)
            .map(|((&seed, acc), pairs)| SeedRun {
                seed,
                result: finish(acc, pairs),
            })
            .collect()
    }

    /// Kept with its exact signature for the frozen benchmark
    /// (`perfbench/src/workload.rs`), its only caller: an unrouted
    /// [`Runner::fleet_summaries`].
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_fleet_streaming_policy(
        &self,
        base: &StreamConfig,
        specs: &[LinkSpec],
        design: &FleetDesign,
        seeds: &[u64],
        sketch_cap: usize,
        backend: EngineBackend,
        faults: Option<&TelemetryFaults>,
        policy: FailurePolicy,
    ) -> Vec<SeedRun<FleetSummary>> {
        self.fleet_summaries(
            &FleetSweep {
                faults,
                backend,
                ..FleetSweep::new(base, specs, design, seeds)
            },
            sketch_cap,
            policy,
        )
    }

    /// Kept with its exact signature for the frozen benchmark
    /// (`perfbench/src/workload.rs`), its only caller: a routed,
    /// fault-free, fail-fast [`Runner::fleet_summaries`].
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_fleet_streaming_routed_with(
        &self,
        base: &StreamConfig,
        specs: &[LinkSpec],
        design: &FleetDesign,
        routing: &RoutingConfig,
        seeds: &[u64],
        sketch_cap: usize,
        backend: EngineBackend,
    ) -> Vec<SeedRun<FleetSummary>> {
        self.fleet_summaries(
            &FleetSweep {
                routing: Some(routing),
                backend,
                ..FleetSweep::new(base, specs, design, seeds)
            },
            sketch_cap,
            FailurePolicy::FailFast,
        )
    }
}

/// A fleet experiment to sweep across replication seeds; see the
/// [module docs](self) for how to build and run one.
#[derive(Debug, Clone, Copy)]
pub struct FleetSweep<'a> {
    /// Configuration every link spec is applied to.
    pub base: &'a StreamConfig,
    /// The plant: one spec per link.
    pub specs: &'a [LinkSpec],
    /// The design realized per replication seed.
    pub design: &'a FleetDesign,
    /// Replication seeds; results come back in this order.
    pub seeds: &'a [u64],
    /// Shared arrival router ([`FleetSim::new_routed`]); `None` gives
    /// every link its own arrival stream.
    pub routing: Option<&'a RoutingConfig>,
    /// Telemetry fault model applied to every link's record stream
    /// after the simulation (see [`streamsim::telemetry`]).
    pub faults: Option<&'a TelemetryFaults>,
    /// Engine backend. Session records are bit-identical across
    /// backends (see `streamsim::engine`), so this only moves
    /// wall-clock.
    pub backend: EngineBackend,
}

impl<'a> FleetSweep<'a> {
    /// An unrouted, fault-free sweep on [`EngineBackend::Event`].
    pub fn new(
        base: &'a StreamConfig,
        specs: &'a [LinkSpec],
        design: &'a FleetDesign,
        seeds: &'a [u64],
    ) -> FleetSweep<'a> {
        FleetSweep {
            base,
            specs,
            design,
            seeds,
            routing: None,
            faults: None,
            backend: EngineBackend::Event,
        }
    }

    /// The flat seed-major link×seed job list plus each seed's pair
    /// matching. The executor regroups jobs in `specs.len()` strides,
    /// so a plan that emitted a different job count (e.g. a future
    /// design sitting out an odd link) would silently misalign every
    /// subsequent seed — assert the invariant per seed here instead.
    ///
    /// Panics on any input [`FleetSim::new`] rejects.
    fn jobs(&self) -> (Vec<FleetLinkJob>, Vec<Vec<(usize, usize)>>) {
        let mut per_seed_pairs = Vec::with_capacity(self.seeds.len());
        let mut jobs = Vec::with_capacity(self.seeds.len() * self.specs.len());
        for &seed in self.seeds {
            let mut sim = match self.routing {
                None => FleetSim::new(self.base, self.specs, self.design, seed),
                Some(r) => FleetSim::new_routed(self.base, self.specs, self.design, r, seed),
            };
            if let Some(faults) = self.faults {
                sim = sim.with_faults(faults);
            }
            let (seed_jobs, pairs) = sim.into_parts();
            assert_eq!(
                seed_jobs.len(),
                self.specs.len(),
                "fleet seed {seed}: plan emitted {} jobs for {} specs — seed-major regrouping would misalign results",
                seed_jobs.len(),
                self.specs.len()
            );
            per_seed_pairs.push(pairs);
            jobs.extend(seed_jobs);
        }
        (jobs, per_seed_pairs)
    }
}

/// Cross-seed summary of one scalar metric: mean across replications
/// with a Student-t confidence interval on that mean.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedCi {
    /// Mean across replications.
    pub mean: f64,
    /// Confidence interval for the mean at the requested level.
    pub ci: (f64, f64),
    /// Standard error of the mean.
    pub se: f64,
    /// Replications used (non-finite metric values are dropped).
    pub n: usize,
}

/// Aggregate one scalar metric across replications into a mean ± CI
/// (via `expstats::mean_ci`). Non-finite per-seed values are dropped;
/// errors if fewer than two finite replications remain.
pub fn metric_ci<R>(
    runs: &[SeedRun<R>],
    level: f64,
    metric: impl Fn(&R) -> f64,
) -> expstats::Result<SeedCi> {
    let mut vals = metric_across_seeds(runs, metric);
    vals.retain(|v| v.is_finite());
    let d = expstats::mean_ci(&vals, level)?;
    Ok(SeedCi {
        mean: d.estimate,
        ci: d.ci,
        se: d.se,
        n: vals.len(),
    })
}

/// Extract one scalar metric from every replication (e.g. for a mean ±
/// CI across seeds via `expstats`).
pub fn metric_across_seeds<R>(runs: &[SeedRun<R>], metric: impl Fn(&R) -> f64) -> Vec<f64> {
    runs.iter().map(|r| metric(&r.result)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let runner = Runner::with_threads(4);
        let jobs: Vec<u64> = (0..100).collect();
        assert_eq!(
            runner.map(&jobs, |j| j * 2),
            (0..100).map(|j| j * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_with_more_threads_than_jobs() {
        // Regression: worker count is clamped to the job count, and the
        // chunked claim loop hands every job out exactly once — no empty
        // claims, no lost slots — even when threads vastly exceed jobs.
        use std::sync::atomic::AtomicUsize;
        for jobs_n in [1usize, 2, 3, 5] {
            let runner = Runner::with_threads(16);
            let jobs: Vec<u64> = (0..jobs_n as u64).collect();
            let calls = AtomicUsize::new(0);
            let out = runner.map(&jobs, |&j| {
                calls.fetch_add(1, Ordering::Relaxed);
                j + 1
            });
            assert_eq!(out, (1..=jobs_n as u64).collect::<Vec<_>>());
            assert_eq!(calls.into_inner(), jobs_n, "each job runs exactly once");
        }
        // Empty job lists return immediately.
        let out = Runner::with_threads(8).map(&Vec::<u64>::new(), |&j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_claims_cover_all_jobs() {
        // Many cheap jobs across few workers: the decay heuristic must
        // still cover every index exactly once and preserve order.
        use std::sync::atomic::AtomicUsize;
        let runner = Runner::with_threads(3);
        let jobs: Vec<u64> = (0..1777).collect();
        let calls = AtomicUsize::new(0);
        let out = runner.map(&jobs, |&j| {
            calls.fetch_add(1, Ordering::Relaxed);
            j * 3
        });
        assert_eq!(out, (0..1777).map(|j| j * 3).collect::<Vec<_>>());
        assert_eq!(calls.into_inner(), 1777);
    }

    #[test]
    fn map_fold_matches_sequential_fold() {
        let jobs: Vec<u64> = (0..1000).collect();
        // Commutative fold (sum + count) so any partial merge order is
        // exact.
        let run = |threads: usize| {
            Runner::with_threads(threads).map_fold(
                &jobs,
                || (0u64, 0usize),
                |acc, idx, &j| {
                    acc.0 += j * (idx as u64 + 1);
                    acc.1 += 1;
                },
                |acc, other| {
                    acc.0 += other.0;
                    acc.1 += other.1;
                },
            )
        };
        let seq = run(1);
        assert_eq!(seq.1, 1000);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), seq);
        }
        // Empty job list returns the identity accumulator.
        let empty =
            Runner::with_threads(4).map_fold(&Vec::<u64>::new(), || 7u64, |_, _, _| {}, |_, _| {});
        assert_eq!(empty, 7);
    }

    #[test]
    fn map_fold_receives_every_index_once() {
        let jobs: Vec<u64> = (0..333).collect();
        let mut seen = Runner::with_threads(5).map_fold(
            &jobs,
            Vec::new,
            |acc: &mut Vec<usize>, idx, _| acc.push(idx),
            |acc, other| acc.extend(other),
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..333).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn map_fold_panic_propagates() {
        Runner::with_threads(2).map_fold(
            &[1u64, 2, 3, 4],
            || 0u64,
            |acc, _, &j| {
                assert!(j != 3, "boom");
                *acc += j;
            },
            |acc, other| *acc += other,
        );
    }

    #[test]
    fn sweep_grid_matches_nested_sequential() {
        let params = [2.0f64, 3.0, 5.0];
        let seeds = derive_seeds(11, 4);
        let f = |p: &f64, seed: u64| {
            let mut rng = SimRng::new(seed);
            rng.uniform01() * p
        };
        let grid = Runner::with_threads(4).sweep_grid(&params, &seeds, f);
        assert_eq!(grid.len(), params.len());
        for (p, group) in params.iter().zip(&grid) {
            let seq: Vec<SeedRun<f64>> = seeds
                .iter()
                .map(|&s| SeedRun {
                    seed: s,
                    result: f(p, s),
                })
                .collect();
            assert_eq!(group, &seq);
        }
    }

    #[test]
    fn sweep_matches_sequential() {
        let seeds = derive_seeds(42, 32);
        let scenario = |mult: &u64, seed: u64| {
            // Seed-dependent pseudo-work with seed-dependent duration,
            // so workers finish out of order.
            let mut rng = SimRng::new(seed);
            let spins = 10 + (seed % 1000);
            let mut acc = 0.0;
            for _ in 0..spins {
                acc += rng.uniform01();
            }
            acc * *mult as f64
        };
        let par = Runner::with_threads(8).sweep(&3u64, &seeds, scenario);
        let seq = Runner::with_threads(1).sweep(&3u64, &seeds, scenario);
        assert_eq!(par, seq);
    }

    #[test]
    fn derive_seeds_prefix_stable() {
        let short = derive_seeds(7, 8);
        let long = derive_seeds(7, 16);
        assert_eq!(short[..], long[..8]);
        // Distinct seeds throughout.
        let mut sorted = long.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), long.len());
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        Runner::with_threads(2).map(&[1u64, 2, 3, 4], |&j| {
            assert!(j != 3, "boom");
            j
        });
    }

    #[test]
    fn metric_ci_drops_non_finite_and_matches_mean() {
        let runs: Vec<SeedRun<f64>> = [10.0, 12.0, f64::NAN, 14.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| SeedRun {
                seed: i as u64,
                result: v,
            })
            .collect();
        let ci = metric_ci(&runs, 0.95, |&v| v).unwrap();
        assert_eq!(ci.n, 3);
        assert!((ci.mean - 12.0).abs() < 1e-12);
        assert!(ci.ci.0 < 12.0 && 12.0 < ci.ci.1);
        // All-NaN input errors instead of returning NaN.
        let bad: Vec<SeedRun<f64>> = vec![
            SeedRun {
                seed: 0,
                result: f64::NAN,
            },
            SeedRun {
                seed: 1,
                result: f64::NAN,
            },
        ];
        assert!(metric_ci(&bad, 0.95, |&v| v).is_err());
    }

    #[test]
    fn metric_extraction() {
        let runs = vec![
            SeedRun {
                seed: 1,
                result: 2.0f64,
            },
            SeedRun {
                seed: 2,
                result: 4.0f64,
            },
        ];
        assert_eq!(metric_across_seeds(&runs, |r| r * 10.0), vec![20.0, 40.0]);
    }
}
