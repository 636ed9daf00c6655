//! Conformance harness for the fleet determinism contracts.
//!
//! A biased A/B estimate means congestion interference only if the
//! simulator is deterministic, so every valid fleet world must keep four
//! contracts:
//!
//! 1. **Backends** ([`check_backends`]): the tick loop and the event
//!    engine deliver the same session records (`SessionRecord`'s bitwise
//!    `==`) and telemetry ledgers, link by link, after telemetry faults.
//! 2. **Workers** ([`check_workers`]): a sweep's summaries are identical
//!    at the world's worker count and at one worker.
//! 3. **Oracle** ([`check_oracle`]): every summary-path estimator matches
//!    its record-path twin to 1e-9 relative, and fails exactly when its
//!    twin fails.
//! 4. **Quarantine** ([`check_quarantine`]): a quarantined sweep's
//!    survivors equal a tick-loop fold over the same links, and its
//!    degraded report names exactly the crashed links.
//!
//! A fifth check, [`check_invalid`], corrupts one field of a valid world:
//! the sweep must panic naming that field, at a construction site, at 1,
//! 2 and 4 workers.
//!
//! [`World::draw`] builds a random valid world from one seed: a one-day
//! `StreamConfig`, a link population, any design, any routing, any mix
//! of telemetry faults, replication seeds and a worker count. A failing
//! random case prints `World::draw(<seed>)`; pass that seed to the
//! checkers to rerun it. The pinned cases below are fixed worlds run
//! through the same checkers. The weekly deep-fuzz run raises the random
//! case count through `PROPTEST_CASES`.

use std::any::Any;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dessim::{ConfigError, SimRng};
use proptest::ProptestConfig;
use repro_bench::runner::{derive_seeds, FailurePolicy, FleetSweep, Runner, SeedRun};
use streamsim::config::StreamConfig;
use streamsim::engine::EngineBackend;
use streamsim::fleet::{FleetDesign, FleetLinkRun, FleetRun, FleetSim, LinkPopulation, LinkSpec};
use streamsim::session::{Metric, SessionRecord};
use streamsim::telemetry::{OutageWindow, TelemetryFaults};
use streamsim::{RoutingConfig, RoutingPolicy};
use unbiased::fleet::{
    aggregation_comparison, aggregation_comparison_summary, control_mean, control_mean_summary,
    ground_truth_tte_from_runs, ground_truth_tte_from_summaries, link_level_effect,
    link_level_effect_summary, paired_effect, paired_effect_summary, user_level_effect,
    user_level_effect_summary, DegradedReport, FleetEffect, FleetLinkSummary, FleetSummary,
    DEFAULT_SKETCH_CAP,
};

/// Relative tolerance between the record and summary paths.
const TOL: f64 = 1e-9;

/// The oracle's metrics: the direct effect, congestion, and a metric
/// that is NaN for every cancelled session.
const METRICS: [Metric; 3] = [Metric::Bitrate, Metric::Throughput, Metric::PlayDelay];

const LINK_LEVEL: FleetDesign = FleetDesign::LinkLevel {
    p_hi: 0.95,
    p_lo: 0.05,
};
const PAIRS: FleetDesign = FleetDesign::StratifiedPairs {
    p_hi: 0.95,
    p_lo: 0.05,
};

/// One simulated day at the default congestion regime scaled to
/// `capacity_bps` (peak demand about 1.2× capacity at a 1500-s watch).
fn one_day(capacity_bps: f64, mean_watch_s: f64) -> StreamConfig {
    StreamConfig {
        days: 1,
        capacity_bps,
        peak_arrivals_per_s: 0.24 * (capacity_bps / 1e9),
        mean_watch_s,
        ..Default::default()
    }
}

/// A fleet experiment plus the sweeps the checkers share.
#[derive(Clone)]
struct World {
    population: LinkPopulation,
    specs: Vec<LinkSpec>,
    base: StreamConfig,
    design: FleetDesign,
    routing: Option<RoutingConfig>,
    faults: Option<TelemetryFaults>,
    seeds: Vec<u64>,
    workers: usize,
    sketch_cap: usize,
    runs: Runs,
}

/// A world's sweeps, each run on first use.
#[derive(Default)]
struct Runs {
    tick: OnceCell<Vec<FleetRun>>,
    event: OnceCell<Vec<SeedRun<FleetRun>>>,
    summaries: OnceCell<Vec<SeedRun<FleetSummary>>>,
    sequential: OnceCell<Vec<SeedRun<FleetSummary>>>,
}

impl Clone for Runs {
    /// A copied world is edited next, so it starts without sweeps.
    fn clone(&self) -> Runs {
        Runs::default()
    }
}

impl World {
    /// An unrouted, fault-free world over `LinkPopulation::moderate`.
    fn new(
        base: StreamConfig,
        n_links: usize,
        population_seed: u64,
        design: FleetDesign,
        seeds: Vec<u64>,
        workers: usize,
    ) -> World {
        let population = LinkPopulation::moderate(base.clone(), n_links, population_seed);
        World {
            specs: population.sample(),
            population,
            base,
            design,
            routing: None,
            faults: None,
            seeds,
            workers,
            sketch_cap: DEFAULT_SKETCH_CAP,
            runs: Runs::default(),
        }
    }

    /// A random valid world, a pure function of `seed`. The seed's low
    /// four bits pick the design (bits 0–1), routing (bit 2) and
    /// telemetry faults (bit 3); the rest is drawn from the whole seed.
    fn draw(seed: u64) -> World {
        let mut rng = SimRng::new(seed);
        let capacity_bps = rng.uniform(4e6, 15e6);
        let base = StreamConfig {
            peak_arrivals_per_s: 0.24 * (capacity_bps / 1e9) * rng.uniform(0.4, 1.3),
            rebuffer_bias: rng.uniform(0.8, 1.5),
            ..one_day(capacity_bps, rng.uniform(600.0, 1800.0))
        };
        let n = 2 + rng.below(5) as usize;
        let (p_hi, p_lo) = (rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.5));
        let design = match seed % 4 {
            0 => FleetDesign::UserLevel {
                p: [0.0, 1.0, p_hi][rng.below(3) as usize],
            },
            1 => FleetDesign::LinkLevel { p_hi, p_lo },
            2 => FleetDesign::StratifiedPairs { p_hi, p_lo },
            _ => FleetDesign::StaggeredSwitchback {
                p_hi,
                p_lo,
                period_days: 1 + rng.below(2) as usize,
            },
        };
        let routing = (seed & 4 != 0).then(|| {
            let policy = RoutingPolicy::ALL[rng.below(3) as usize];
            RoutingConfig::new(policy, 1 + rng.below(n as u64) as usize)
        });
        let faults = (seed & 8 != 0).then(|| {
            let mut knob = |hi: f64| {
                if rng.bernoulli(0.5) {
                    rng.uniform(0.0, hi)
                } else {
                    0.0
                }
            };
            let (drop_mcar, drop_congested) = (knob(0.2), knob(0.5));
            let (duplicate_p, corrupt_nan_p) = (knob(0.2), knob(0.05));
            let start_s = rng.uniform(0.0, 80_000.0);
            TelemetryFaults {
                drop_mcar,
                drop_congested,
                duplicate_p,
                corrupt_nan_p,
                reorder_window: rng.below(7) as usize,
                outage: rng.bernoulli(0.5).then(|| OutageWindow {
                    start_s,
                    end_s: start_s + rng.uniform(0.0, 7_200.0),
                }),
                crash_links: (0..rng.below(3))
                    .map(|_| rng.below(n as u64) as usize)
                    .collect(),
                seed: rng.next_u64(),
            }
        });
        let seeds = derive_seeds(rng.next_u64(), 1 + rng.below(3) as usize);
        let workers = [2, 4][rng.below(2) as usize];
        let sketch_cap = [64, 256, DEFAULT_SKETCH_CAP][rng.below(3) as usize];
        let population_seed = rng.next_u64();
        let base = StreamConfig {
            dt_s: [1.0, 2.0, 3.0, 4.0][rng.below(4) as usize],
            ..base
        };
        World {
            routing,
            faults,
            sketch_cap,
            ..World::new(base, n, population_seed, design, seeds, workers)
        }
    }

    /// The same world at another worker count. The sweeps that do not
    /// depend on it (tick records, one-worker summaries) carry over.
    fn with_workers(&self, workers: usize) -> World {
        let runs = Runs {
            tick: self.runs.tick.clone(),
            sequential: self.runs.sequential.clone(),
            ..Runs::default()
        };
        World {
            workers,
            runs,
            ..self.clone()
        }
    }

    fn sweep(&self) -> FleetSweep<'_> {
        FleetSweep {
            routing: self.routing.as_ref(),
            faults: self.faults.as_ref(),
            ..FleetSweep::new(&self.base, &self.specs, &self.design, &self.seeds)
        }
    }

    /// The links whose collection job is scripted to crash, sorted.
    fn crashed(&self) -> Vec<usize> {
        let crash_links = self.faults.as_ref().map_or(&[][..], |f| &f.crash_links);
        (0..self.specs.len())
            .filter(|l| crash_links.contains(l))
            .collect()
    }

    /// The record sweeps' faults: the world's minus the crashes, since a
    /// crashed link has no records.
    fn record_faults(&self) -> Option<TelemetryFaults> {
        self.faults.as_ref().map(|f| TelemetryFaults {
            crash_links: Vec::new(),
            ..f.clone()
        })
    }

    /// `FailFast`, or a quarantine budget that fits every scripted crash.
    fn policy(&self) -> FailurePolicy {
        match self.crashed().len() * self.seeds.len() {
            0 => FailurePolicy::FailFast,
            max_failures => FailurePolicy::Quarantine { max_failures },
        }
    }

    /// The oracle: tick-loop records from one `FleetSim` per seed, no
    /// runner (each seed on its own thread).
    fn tick(&self) -> &[FleetRun] {
        self.runs.tick.get_or_init(|| {
            let faults = self.record_faults();
            let (base, specs, design) = (&self.base, &self.specs, &self.design);
            let sims = self.seeds.iter().map(|&seed| {
                let sim = match &self.routing {
                    None => FleetSim::new(base, specs, design, seed),
                    Some(r) => FleetSim::new_routed(base, specs, design, r, seed),
                };
                match &faults {
                    Some(f) => sim.with_faults(f),
                    None => sim,
                }
            });
            let runs: Vec<FleetRun> = std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (sims.map(|sim| scope.spawn(|| sim.run_with(EngineBackend::Tick)))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            runs.iter().for_each(|run| self.assert_layout(run));
            runs
        })
    }

    /// Event-engine records through the runner at the world's workers.
    fn event(&self) -> &[SeedRun<FleetRun>] {
        self.runs.event.get_or_init(|| {
            let faults = self.record_faults();
            let sweep = FleetSweep {
                faults: faults.as_ref(),
                ..self.sweep()
            };
            let runs = Runner::with_threads(self.workers).fleet_records(&sweep);
            assert!(runs.iter().map(|r| r.seed).eq(self.seeds.iter().copied()));
            runs.iter().for_each(|run| self.assert_layout(&run.result));
            runs
        })
    }

    /// Summaries at the world's worker count (`sequential = false`) or at
    /// one worker.
    fn summaries(&self, sequential: bool) -> &[SeedRun<FleetSummary>] {
        let (cell, workers) = match sequential {
            false => (&self.runs.summaries, self.workers),
            true => (&self.runs.sequential, 1),
        };
        cell.get_or_init(|| {
            Runner::with_threads(workers).fleet_summaries(
                &self.sweep(),
                self.sketch_cap,
                self.policy(),
            )
        })
    }

    /// Every link comes back once, in link order, and the pairs are a
    /// disjoint matching of treated and control clusters, one pair per
    /// two links under `StratifiedPairs`.
    fn assert_layout(&self, run: &FleetRun) {
        let n = self.specs.len();
        assert!(run.links.iter().map(|l| l.link).eq(0..n), "link order");
        let mut seen = vec![false; n];
        for &(t, c) in &run.pairs {
            assert!(!seen[t] && !seen[c], "matching must be disjoint");
            (seen[t], seen[c]) = (true, true);
            let arms = (run.links[t].treated_cluster, run.links[c].treated_cluster);
            assert_eq!(arms, (Some(true), Some(false)), "pair ({t}, {c}) arms");
        }
        if matches!(self.design, FleetDesign::StratifiedPairs { .. }) {
            assert_eq!(run.pairs.len(), n / 2, "pair count");
        }
    }
}

/// Names the failing world while a random case unwinds, so it can be
/// rerun from its seed.
struct Reproduce {
    seed: u64,
    corruption: u64,
}

impl Drop for Reproduce {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let Reproduce { seed, corruption } = self;
            eprintln!("failing world: World::draw({seed:#x}), corruption {corruption}");
        }
    }
}

/// Panics at the first record where `a` and `b` differ.
fn assert_records_eq(a: &[SessionRecord], b: &[SessionRecord], what: &str) {
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        let (x, y) = (a.get(i), b.get(i));
        panic!(
            "{what}: record {i} of {}/{} differs:\n{x:?}\n{y:?}",
            a.len(),
            b.len()
        );
    }
}

/// (i) Tick records (sequential, no runner) equal event records (the
/// runner at the world's worker count), link by link, with their
/// telemetry ledgers. The two sides also differ in worker count.
fn check_backends(w: &World) {
    for (tick, event) in w.tick().iter().zip(w.event()) {
        let event = &event.result;
        assert_eq!(tick.pairs, event.pairs, "seed pairs");
        for (t, e) in tick.links.iter().zip(&event.links) {
            let what = format!("link {}", t.link);
            assert_records_eq(&t.sessions, &e.sessions, &what);
            assert_eq!(t.telemetry, e.telemetry, "{what}: ledger");
            assert_eq!(t.treated_cluster, e.treated_cluster, "{what}: arm");
        }
    }
}

/// (ii) Summaries, degraded reports included, are identical at the
/// world's worker count and at one worker.
fn check_workers(w: &World) {
    for (many, one) in w.summaries(false).iter().zip(w.summaries(true)) {
        assert_eq!(many.seed, one.seed);
        let what = format!("seed {}: {} workers vs 1", one.seed, w.workers);
        assert!(many.result == one.result, "{what}: summaries differ");
    }
}

/// Below this magnitude a value is zero up to round-off: a standard
/// error of a constant reads about 1e-15 on one path and 7e-16 on the
/// other.
const ROUND_OFF: f64 = 1e-14;

/// `a` and `b` agree to [`TOL`] relative, or are both zero up to
/// [`ROUND_OFF`]. Two NaNs (a mean undefined on both paths) agree too;
/// [`check_oracle`] counts only finite agreements.
fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= TOL * scale || scale <= ROUND_OFF || (a.is_nan() && b.is_nan())
}

/// Asserts that the two paths' effects agree, and returns whether they
/// are finite.
fn assert_effects_close(record: &FleetEffect, summary: &FleetEffect, what: &str) -> bool {
    let fields = [
        ("relative", record.relative, summary.relative),
        ("se", record.se, summary.se),
        ("ci low", record.ci95.0, summary.ci95.0),
        ("ci high", record.ci95.1, summary.ci95.1),
    ];
    for (name, a, b) in fields {
        assert!(close(a, b), "{what} {name}: {a} vs {b}");
    }
    let counts = |e: &FleetEffect| (e.n_sessions, e.n_clusters);
    assert_eq!(counts(record), counts(summary), "{what} counts");
    fields.iter().all(|&(_, a, _)| a.is_finite())
}

/// Both paths' results, or `None` when both failed; one failing alone
/// breaks the contract.
fn both<T, E: std::fmt::Debug>(
    what: &str,
    record: Result<T, E>,
    summary: Result<T, E>,
) -> Option<(T, T)> {
    match (record, summary) {
        (Ok(r), Ok(s)) => Some((r, s)),
        (Err(_), Err(_)) => None,
        (r, s) => panic!("{what}: record {:?} vs summary {:?}", r.err(), s.err()),
    }
}

/// (iii) The record path (tick records over the surviving links) and
/// the summary path agree on the control mean and on the user-level,
/// link-level, aggregation-comparison and paired estimates; and, for a
/// `UserLevel` world with p ∈ {0, 1}, on the ground-truth TTE against
/// its flipped twin. Returns how many of these estimates, per seed and
/// metric, were Ok and finite on both paths; [`check_oracle_complete`]
/// requires all of them.
fn check_oracle(w: &World) -> usize {
    let mut finite = 0;
    let crashed = w.crashed();
    let survives = |l: usize| !crashed.contains(&l);
    for (run, summary) in w.tick().iter().zip(w.summaries(false)) {
        let (seed, summary) = (summary.seed, &summary.result);
        let links: Vec<&FleetLinkRun> = run.links.iter().filter(|l| survives(l.link)).collect();
        let slinks = summary.link_refs();
        // The record twin of a summary whose quarantined links drop their
        // pairs out of the paired estimate.
        let paired_run = FleetRun {
            links: run.links.clone(),
            pairs: (run.pairs.iter().copied())
                .filter(|&(t, c)| survives(t) && survives(c))
                .collect(),
        };
        for metric in METRICS {
            let (base, sbase) = (
                control_mean(&links, metric),
                control_mean_summary(&slinks, metric),
            );
            assert!(
                close(base, sbase),
                "{metric:?} control mean: {base} vs {sbase}"
            );
            finite += usize::from(base.is_finite());
            let effects = [
                (
                    "user-level",
                    user_level_effect(&links, metric, base),
                    user_level_effect_summary(&slinks, metric, sbase),
                ),
                (
                    "link-level",
                    link_level_effect(&links, metric, base),
                    link_level_effect_summary(&slinks, metric, sbase),
                ),
                (
                    "paired",
                    paired_effect(&paired_run, metric, base),
                    paired_effect_summary(summary, metric, sbase),
                ),
            ];
            for (name, r, s) in effects {
                let what = format!("seed {seed} {metric:?} {name}");
                if let Some((r, s)) = both(&what, r, s) {
                    finite += usize::from(assert_effects_close(&r, &s, &what));
                }
            }
            let what = format!("seed {seed} {metric:?} aggregation");
            let r = aggregation_comparison(&links, metric, base);
            let s = aggregation_comparison_summary(&slinks, metric, sbase);
            if let Some((r, s)) = both(&what, r, s) {
                let parts = [
                    ("iid", &r.iid, &s.iid),
                    ("CRV1", &r.clustered, &s.clustered),
                    ("link means", &r.link_means, &s.link_means),
                ];
                let ok =
                    parts.map(|(name, r, s)| assert_effects_close(r, s, &format!("{what} {name}")));
                finite += usize::from(ok.iter().all(|&f| f));
            }
        }
    }

    let FleetDesign::UserLevel { p } = w.design else {
        return finite;
    };
    if p != 0.0 && p != 1.0 {
        return finite;
    }
    let twin = World {
        design: FleetDesign::UserLevel { p: 1.0 - p },
        ..w.clone()
    };
    let (treated, control) = if p == 1.0 { (w, &twin) } else { (&twin, w) };
    let survivors = |run: &FleetRun| FleetRun {
        links: run
            .links
            .iter()
            .filter(|l| survives(l.link))
            .cloned()
            .collect(),
        pairs: Vec::new(),
    };
    let arms = treated.tick().iter().zip(control.tick());
    let summaries = treated
        .summaries(false)
        .iter()
        .zip(control.summaries(false));
    for ((rt, rc), (st, sc)) in arms.zip(summaries) {
        let (rt, rc) = (survivors(rt), survivors(rc));
        for metric in METRICS {
            let what = format!("seed {} {metric:?} ground truth", st.seed);
            let r = ground_truth_tte_from_runs(&rt, &rc, metric);
            let s = ground_truth_tte_from_summaries(&st.result, &sc.result, metric);
            if let Some((r, s)) = both(&what, r, s) {
                assert!(close(r, s), "{what}: {r} vs {s}");
                finite += usize::from(r.is_finite());
            }
        }
    }
    finite
}

/// [`check_oracle`] on a world where every estimate exists, Ok and
/// finite on both paths for every seed and metric: the control mean,
/// user-level, link-level and aggregation comparison, plus the paired
/// estimate under `StratifiedPairs`. An all-treated `UserLevel` world has
/// no control arm, so only its ground truth exists.
fn check_oracle_complete(w: &World) {
    let per_metric = match w.design {
        FleetDesign::UserLevel { p: 1.0 } => 1,
        FleetDesign::StratifiedPairs { .. } => 5,
        _ => 4,
    };
    let expected = w.seeds.len() * METRICS.len() * per_metric;
    assert_eq!(check_oracle(w), expected, "Ok and finite estimates");
}

/// (iv) The summaries' survivors equal a fold of the tick records over
/// the same links, and the degraded report names exactly the crashed
/// links with the crash message.
fn check_quarantine(w: &World) {
    let crashed = w.crashed();
    for (tick, summary) in w.tick().iter().zip(w.summaries(false)) {
        let report = &summary.result.degraded;
        let lost: Vec<usize> = report.quarantined.iter().map(|q| q.link).collect();
        assert_eq!(lost, crashed, "seed {}: quarantined links", summary.seed);
        for q in &report.quarantined {
            assert!(q.reason.contains("crashed"), "reason kept: {:?}", q.reason);
        }
        let mut expected = FleetSummary::new(w.sketch_cap);
        for link in tick.links.iter().filter(|l| !crashed.contains(&l.link)) {
            expected.fold(FleetLinkSummary::from_run(link, w.sketch_cap));
        }
        expected.finalize(tick.pairs.clone());
        let mut survivors = summary.result.clone();
        survivors.degraded = DegradedReport::default();
        assert!(survivors == expected, "seed {}: survivors", summary.seed);
    }
}

fn run_all(w: &World) {
    check_backends(w);
    check_workers(w);
    check_oracle(w);
    check_quarantine(w);
}

fn panic_text(payload: &(dyn Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// `sweep` panics, and its message contains every piece of `expect`.
fn expect_panic<R>(sweep: impl FnOnce() -> R, expect: &[&str], what: &str) {
    let Err(payload) = catch_unwind(AssertUnwindSafe(sweep)) else {
        panic!("{what}: no panic, expected {expect:?}");
    };
    let text = panic_text(&*payload);
    for part in expect {
        assert!(text.contains(part), "{what}: panic {text:?} lacks {part:?}");
    }
}

/// The world's population sample and summary sweep (where every input
/// enters) panic with `expect` at 1, 2 and 4 workers.
fn expect_rejected(w: &World, expect: &[&str]) {
    for workers in [1, 2, 4] {
        let sweep = || {
            let specs = w.population.sample();
            let sweep = FleetSweep {
                specs: &specs,
                ..w.sweep()
            };
            Runner::with_threads(workers).fleet_summaries(&sweep, w.sketch_cap, w.policy())
        };
        expect_panic(sweep, expect, &format!("{workers} workers"));
    }
}

/// The text of a `ConfigError` naming `field`.
fn out_of_range(field: &'static str) -> String {
    ConfigError { field }.to_string()
}

/// Asserts that `validate` names `field`, and returns the text a
/// construction site's panic carries.
fn names(validate: Result<(), ConfigError>, field: &'static str) -> String {
    assert_eq!(validate, Err(ConfigError { field }));
    out_of_range(field)
}

/// (v) Corrupt one field of the valid world `w`, of the kind
/// `corruption` (0–7) picks and drawn from `rng`: a public `validate()`
/// must name it, and the sweep must panic naming it, from the
/// construction site that takes the input, at every worker count.
fn check_invalid(w: &World, corruption: u64, rng: &mut SimRng) {
    let mut bad = w.clone();
    let (site, text) = match corruption {
        0 => {
            type Field = fn(&mut StreamConfig) -> &mut f64;
            // Every float field; zero is out of range for the first
            // eight only.
            let fields: [(&'static str, Field); 10] = [
                ("capacity_bps", |c| &mut c.capacity_bps),
                ("base_rtt_s", |c| &mut c.base_rtt_s),
                ("peak_arrivals_per_s", |c| &mut c.peak_arrivals_per_s),
                ("mean_watch_s", |c| &mut c.mean_watch_s),
                ("mean_patience_s", |c| &mut c.mean_patience_s),
                ("rebuffer_bias", |c| &mut c.rebuffer_bias),
                ("dt_s", |c| &mut c.dt_s),
                ("access_median_bps", |c| &mut c.access_median_bps),
                ("queue_capacity_s", |c| &mut c.queue_capacity_s),
                ("access_sigma", |c| &mut c.access_sigma),
            ];
            let i = rng.below(11) as usize;
            let field = if i == 10 {
                bad.base.days = 0;
                "days"
            } else {
                let choices = [f64::NAN, 0.0, -rng.uniform(0.1, 10.0)];
                let v = match choices[rng.below(3) as usize] {
                    0.0 if i >= 8 => -1.0,
                    v => v,
                };
                *fields[i].1(&mut bad.base) = v;
                fields[i].0
            };
            ("FleetSim::new", names(bad.base.validate(), field))
        }
        1 => {
            let field = match &mut bad.design {
                FleetDesign::UserLevel { p } => {
                    *p = 1.5;
                    "p"
                }
                FleetDesign::LinkLevel { p_hi, .. }
                | FleetDesign::StratifiedPairs { p_hi, .. }
                | FleetDesign::StaggeredSwitchback { p_hi, .. } => {
                    *p_hi = 1.5;
                    "p_hi"
                }
            };
            ("FleetSim::new", out_of_range(field))
        }
        2 => {
            let (p_hi, p_lo) = (0.9, 0.1);
            bad.design = FleetDesign::StaggeredSwitchback {
                p_hi,
                p_lo,
                period_days: 0,
            };
            ("FleetSim::new", out_of_range("period_days"))
        }
        3 => {
            let policy = RoutingPolicy::ALL[rng.below(3) as usize];
            let routing = RoutingConfig::new(policy, 0);
            let text = names(routing.validate(), "k");
            bad.routing = Some(routing);
            ("FleetSim::new_routed", text)
        }
        4 => {
            let mut faults = bad.record_faults().unwrap_or(TelemetryFaults::none(1));
            type Knob = fn(&mut TelemetryFaults) -> &mut f64;
            let knobs: [(&'static str, Knob); 4] = [
                ("drop_mcar", |f| &mut f.drop_mcar),
                ("drop_congested", |f| &mut f.drop_congested),
                ("duplicate_p", |f| &mut f.duplicate_p),
                ("corrupt_nan_p", |f| &mut f.corrupt_nan_p),
            ];
            let (field, knob) = knobs[rng.below(4) as usize];
            *knob(&mut faults) = rng.uniform(1.01, 2.0);
            let text = names(faults.validate(), field);
            bad.faults = Some(faults);
            ("FleetSim::with_faults", text)
        }
        5 => {
            type Sigma = fn(&mut LinkPopulation) -> &mut f64;
            let sigmas: [(&str, Sigma); 3] = [
                ("capacity_sigma", |p| &mut p.capacity_sigma),
                ("demand_sigma", |p| &mut p.demand_sigma),
                ("watch_sigma", |p| &mut p.watch_sigma),
            ];
            let (field, sigma) = sigmas[rng.below(3) as usize];
            *sigma(&mut bad.population) = -rng.uniform(0.01, 1.0);
            ("LinkPopulation::sample", out_of_range(field))
        }
        6 => {
            bad.sketch_cap = 0;
            ("Runner::fleet_summaries", out_of_range("sketch_cap"))
        }
        _ => {
            let mut faults = bad.record_faults().unwrap_or(TelemetryFaults::none(1));
            faults.outage = Some(OutageWindow {
                start_s: 40_000.0,
                end_s: 30_000.0,
            });
            let text = names(faults.validate(), "outage");
            bad.faults = Some(faults);
            ("FleetSim::with_faults", text)
        }
    };
    expect_rejected(&bad, &[site, &text]);
}

/// Random valid worlds keep every contract, and a corrupted copy of
/// each is rejected. Case `k` runs design `k mod 4`, and corruption kind
/// `k mod 8`; cases 0–3 route with lossy telemetry, 4–7 do neither, and
/// later cases (a raised `PROPTEST_CASES`) take one of the two.
#[test]
fn fuzzed_worlds_keep_every_contract() {
    let mut rng = SimRng::new(0xC0F0);
    for k in 0..u64::from(ProptestConfig::with_cases(8).cases) {
        let mix = [0b1100, 0b0000, 0b0100, 0b1000][(k / 4 % 4) as usize];
        let seed = (rng.next_u64() & !0xF) | mix | (k % 4);
        let corruption = k % 8;
        let _rerun = Reproduce { seed, corruption };
        let w = World::draw(seed);
        run_all(&w);
        check_invalid(&w, corruption, &mut SimRng::new(!seed));
    }
}

/// A NaN buffer is rejected at construction at every worker count.
#[test]
fn non_finite_base_is_rejected() {
    let mut w = World::new(one_day(30e6, 1500.0), 2, 99, LINK_LEVEL, vec![5], 1);
    w.base.queue_capacity_s = f64::NAN;
    let field = "config field out of range: queue_capacity_s";
    expect_rejected(&w, &["FleetSim::new", field]);
}

/// A job's panic reaches the caller with its own message at 1, 2 and 4
/// workers: a scripted crash under `FailFast` in both sinks and a
/// quarantine budget overrun. A zero sketch capacity is named before
/// any job runs.
#[test]
fn sweep_panics_keep_their_message() {
    let crashing = |crash_links: Vec<usize>, n_links| World {
        faults: Some(TelemetryFaults {
            crash_links,
            ..TelemetryFaults::none(0)
        }),
        ..World::new(one_day(30e6, 1500.0), n_links, 99, LINK_LEVEL, vec![5], 1)
    };
    let (clean, one, three) = (
        crashing(vec![], 4),
        crashing(vec![3], 4),
        crashing(vec![0, 2, 4], 5),
    );
    let crash = ["telemetry collection for link 3 crashed"];
    let budget = |max_failures| FailurePolicy::Quarantine { max_failures };
    for workers in [1, 2, 4] {
        let runner = Runner::with_threads(workers);
        let what = format!("{workers} workers");
        let fail_fast = FailurePolicy::FailFast;
        expect_panic(
            || runner.fleet_summaries(&one.sweep(), 64, fail_fast),
            &crash,
            &what,
        );
        expect_panic(|| runner.fleet_records(&one.sweep()), &crash, &what);
        let over = || runner.fleet_summaries(&three.sweep(), 64, budget(2));
        expect_panic(over, &["crashed"], &what);
        let no_sketch = || runner.fleet_summaries(&clean.sweep(), 0, fail_fast);
        let zero_cap = out_of_range("sketch_cap");
        expect_panic(no_sketch, &["Runner::fleet_summaries", &zero_cap], &what);
    }
    // A budget equal to the failure count survives.
    let ok = Runner::with_threads(2).fleet_summaries(&three.sweep(), 64, budget(3));
    assert_eq!(
        (ok[0].result.degraded.len(), ok[0].result.links.len()),
        (3, 2)
    );
}

/// The 16-link × 3-seed fleets: link-level and stratified pairs (eight
/// pairs), summaries against records.
#[test]
fn pinned_oracle_16x3() {
    let base = one_day(15e6, 1200.0);
    let (seeds, paired_seeds) = (derive_seeds(77, 3), derive_seeds(123, 3));
    check_oracle_complete(&World::new(base.clone(), 16, 31, LINK_LEVEL, seeds, 4));
    check_oracle_complete(&World::new(base, 16, 31, PAIRS, paired_seeds, 4));
}

/// 12 links: both backends at 4 workers, and, on a second seed set,
/// the summaries against the records.
#[test]
fn pinned_12_links() {
    let base = one_day(15e6, 1200.0);
    let (seeds, oracle_seeds) = (derive_seeds(99, 2), derive_seeds(7, 2));
    check_backends(&World::new(base.clone(), 12, 31, LINK_LEVEL, seeds, 4));
    check_oracle_complete(&World::new(base, 12, 31, LINK_LEVEL, oracle_seeds, 4));
}

/// Seed-major jobs regroup exactly when 3 seeds × 5 links do not divide
/// 4 workers: records at 4 and at 1 worker against the tick loop, and
/// paired summaries against the tick fold.
#[test]
fn pinned_regroup_boundary() {
    let base = one_day(15e6, 1200.0);
    let (seeds, paired_seeds) = (derive_seeds(77, 3), derive_seeds(33, 3));
    let w = World::new(base.clone(), 5, 31, LINK_LEVEL, seeds, 4);
    check_backends(&w);
    check_backends(&w.with_workers(1));
    check_quarantine(&World {
        sketch_cap: 64,
        ..World::new(base, 5, 7, PAIRS, paired_seeds, 4)
    });
}

/// Stratified pairs on 6 links at 3 workers: a valid matching (checked
/// on every record sweep), and every link busy.
#[test]
fn pinned_pairs_layout() {
    let w = World::new(one_day(15e6, 1200.0), 6, 5, PAIRS, derive_seeds(9, 2), 3);
    let links = w.event().iter().flat_map(|r| &r.result.links);
    assert!(links.clone().all(|l| !l.sessions.is_empty()));
}

/// Summaries at 2 and at 4 workers equal the sequential sweep, unrouted
/// and routed least-load k = 3.
#[test]
fn pinned_schedule_independence() {
    for routing in [None, Some(RoutingConfig::new(RoutingPolicy::LeastLoad, 3))] {
        let w = World {
            routing,
            sketch_cap: 128,
            ..World::new(
                one_day(15e6, 1200.0),
                8,
                5,
                LINK_LEVEL,
                derive_seeds(9, 2),
                4,
            )
        };
        check_workers(&w);
        check_workers(&w.with_workers(2));
    }
}

/// Every routing policy at k = 3 on both backends, and weighted-random
/// k = 2 summaries against records.
#[test]
fn pinned_routed_fleets() {
    let base = one_day(15e6, 1200.0);
    for policy in RoutingPolicy::ALL {
        check_backends(&World {
            routing: Some(RoutingConfig::new(policy, 3)),
            ..World::new(base.clone(), 6, 11, LINK_LEVEL, vec![42], 2)
        });
    }
    check_oracle_complete(&World {
        routing: Some(RoutingConfig::new(RoutingPolicy::WeightedRandom, 2)),
        ..World::new(base, 8, 31, LINK_LEVEL, derive_seeds(77, 2), 4)
    });
}

/// The ground-truth TTE of a 4-link user-level world, against its
/// all-control twin.
#[test]
fn pinned_ground_truth() {
    let all_treated = FleetDesign::UserLevel { p: 1.0 };
    check_oracle_complete(&World {
        sketch_cap: 256,
        ..World::new(one_day(15e6, 1200.0), 4, 31, all_treated, vec![42], 2)
    });
}

/// Lossy telemetry on 3 links, unrouted and routed least-load k = 3:
/// every contract.
#[test]
fn pinned_faulty_sweeps() {
    let faults = TelemetryFaults {
        drop_mcar: 0.1,
        drop_congested: 0.4,
        duplicate_p: 0.1,
        corrupt_nan_p: 0.02,
        reorder_window: 5,
        ..TelemetryFaults::none(3)
    };
    for routing in [None, Some(RoutingConfig::new(RoutingPolicy::LeastLoad, 3))] {
        let w = World {
            routing,
            faults: Some(faults.clone()),
            sketch_cap: 128,
            ..World::new(one_day(30e6, 1500.0), 3, 99, LINK_LEVEL, vec![21], 2)
        };
        run_all(&w);
        assert!(w.summaries(false)[0].result.telemetry.loss_fraction() > 0.0);
    }
}

/// Quarantined sweeps: crashes on links 1 and 4 of 6 at 3 workers, and
/// one crash among lossy telemetry at 2 and 4 workers.
#[test]
fn pinned_quarantine() {
    let base = one_day(30e6, 1500.0);
    check_quarantine(&World {
        faults: Some(TelemetryFaults {
            crash_links: vec![1, 4],
            ..TelemetryFaults::none(7)
        }),
        ..World::new(base.clone(), 6, 99, LINK_LEVEL, derive_seeds(4242, 2), 3)
    });
    let faults = TelemetryFaults {
        drop_mcar: 0.05,
        drop_congested: 0.3,
        duplicate_p: 0.05,
        reorder_window: 3,
        crash_links: vec![2],
        ..TelemetryFaults::none(13)
    };
    let w = World {
        faults: Some(faults),
        sketch_cap: 256,
        ..World::new(base, 5, 99, LINK_LEVEL, derive_seeds(11, 2), 4)
    };
    check_workers(&w);
    check_workers(&w.with_workers(2));
    for run in w.summaries(true) {
        assert_eq!((run.result.degraded.len(), run.result.links.len()), (1, 4));
        assert!(run.result.telemetry.loss_fraction() > 0.0);
    }
}

/// A quarantined pair member drops its pair, and only its pair, from the
/// paired estimate.
#[test]
fn pinned_paired_quarantine() {
    let w = World {
        faults: Some(TelemetryFaults {
            crash_links: vec![1],
            ..TelemetryFaults::none(7)
        }),
        sketch_cap: 256,
        ..World::new(one_day(30e6, 1500.0), 6, 99, PAIRS, vec![4242], 2)
    };
    check_oracle_complete(&w);
    check_quarantine(&w);
    let (run, summary) = (&w.tick()[0], &w.summaries(false)[0].result);
    assert!(
        run.pairs.iter().any(|&(t, c)| t == 1 || c == 1),
        "link 1 is paired"
    );
    let links: Vec<&FleetLinkRun> = run.links.iter().collect();
    let base = control_mean(&links, Metric::Bitrate);
    let full = paired_effect(run, Metric::Bitrate, base).unwrap();
    let survived = paired_effect_summary(summary, Metric::Bitrate, base).unwrap();
    assert_eq!(survived.n_clusters + 1, full.n_clusters);
    assert!(survived.relative.is_finite());
}
