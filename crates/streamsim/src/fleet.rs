//! The fleet layer: N heterogeneous congested links under one
//! experiment.
//!
//! The paper's designs are defined over a *population* of links — its
//! switchbacks, paired links, and cross-link aggregation all assume many
//! heterogeneous bottlenecks running at once — while [`crate::sim::LinkSim`]
//! models exactly one. This module scales the same allocation-free tick
//! pipeline out to a fleet:
//!
//! * [`LinkPopulation`] is a seeded distribution model over link
//!   parameters (capacity, base RTT, client count, per-client demand),
//!   sampled once into a vector of [`LinkSpec`]s — the fixed "plant"
//!   the experiment runs on;
//! * [`FleetDesign`] decides how treatment is allocated *across* the
//!   fleet: session-level Bernoulli everywhere (the naïve design),
//!   link-level (cluster) randomization, stratified paired-link matching
//!   on a baseline covariate, or staggered per-link switchbacks;
//! * [`FleetSim`] derives one independent RNG stream per link and steps
//!   each link with its own [`AllocationSchedule`]. Links are fully
//!   independent given their seeds, so a fleet run decomposes into
//!   [`FleetLinkJob`]s that a parallel runner can schedule as flat
//!   link×seed work items ([`run_fleet_link`] is the per-job kernel) —
//!   `repro_bench::FleetSweep` does exactly that, bit-identical
//!   to the sequential [`FleetSim::run`].
//!
//! Cross-link *statistical* coupling — a session choosing between
//! links — is the [`FleetSim::new_routed`] mode: a shared, seeded
//! arrival stream ([`crate::routing`]) routes each session to one of k
//! candidate links, re-introducing the spillover *between clusters*
//! that real CDN routing creates. Per-link simulation RNG streams stay
//! independent either way, and the unrouted constructor consumes
//! exactly the pre-routing draw sequence, so unrouted fleets are
//! bit-identical to the engine before the routing layer existed.

use crate::config::StreamConfig;
use crate::engine::{ArrivalSource, EngineBackend};
use crate::routing::{self, RoutedArrival, RoutingConfig};
use crate::scenario::AllocationSchedule;
use crate::session::{LinkId, SessionRecord};
use crate::sim::{HourlyLinkStats, LinkSim};
use crate::telemetry::{TelemetryFaults, TelemetryStats};
use dessim::{require, ConfigError, SimRng};
use std::sync::Arc;

/// One sampled link of the fleet: heterogeneity multipliers relative to
/// the population's base [`StreamConfig`] plus the absolute fields they
/// imply.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Fleet-wide link index (0-based, stable across designs/seeds).
    pub link: usize,
    /// Link capacity, bits/second.
    pub capacity_bps: f64,
    /// Base (uncongested) RTT, seconds.
    pub base_rtt_s: f64,
    /// Client-count multiplier on the base peak arrival rate (already
    /// includes the capacity-proportional component, so a value equal to
    /// `capacity_bps / base.capacity_bps` means "typically loaded").
    pub arrival_scale: f64,
    /// Per-client demand multiplier on the base mean watch duration.
    pub watch_scale: f64,
}

impl LinkSpec {
    /// Check the spec is physically meaningful: every field finite and
    /// strictly positive. A NaN or zero capacity would otherwise flow
    /// silently into offered-load covariates and session outcomes.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        require(positive(self.capacity_bps), "capacity_bps")?;
        require(positive(self.base_rtt_s), "base_rtt_s")?;
        require(positive(self.arrival_scale), "arrival_scale")?;
        require(positive(self.watch_scale), "watch_scale")
    }

    /// Materialize this link's [`StreamConfig`] from the population base.
    pub(crate) fn config(&self, base: &StreamConfig) -> StreamConfig {
        StreamConfig {
            capacity_bps: self.capacity_bps,
            base_rtt_s: self.base_rtt_s,
            peak_arrivals_per_s: base.peak_arrivals_per_s * self.arrival_scale,
            mean_watch_s: base.mean_watch_s * self.watch_scale,
            ..base.clone()
        }
    }

    /// Baseline congestion covariate: expected peak offered load relative
    /// to capacity, normalized so a link with base parameters scores 1.0.
    /// Offered load scales with arrivals × per-client demand; capacity
    /// divides it out. This is computable *before* running the link, so
    /// designs may stratify on it (see [`FleetDesign::StratifiedPairs`]).
    pub fn offered_load_index(&self, base: &StreamConfig) -> f64 {
        self.arrival_scale * self.watch_scale / (self.capacity_bps / base.capacity_bps)
    }
}

/// A seeded distribution model over link parameters.
///
/// Capacity is lognormal around the base (real peering links span orders
/// of magnitude; Buzna & Carvalho show fairness/efficiency outcomes
/// hinge on exactly this heterogeneity), base RTT is uniform over a
/// range, and offered load is capacity-proportional with two mean-one
/// lognormal jitters: client count (`demand_sigma`) and per-client
/// watch time (`watch_sigma`). The jitters make some links reliably
/// congested and others not — the across-link variation the fleet
/// designs must cope with.
#[derive(Debug, Clone)]
pub struct LinkPopulation {
    /// Template configuration; per-link fields are scaled off it.
    pub base: StreamConfig,
    /// Number of links to sample.
    pub n_links: usize,
    /// Log-scale sigma of capacity heterogeneity.
    pub capacity_sigma: f64,
    /// Uniform range of base RTTs, seconds.
    pub rtt_range_s: (f64, f64),
    /// Log-scale sigma of the mean-one client-count jitter.
    pub demand_sigma: f64,
    /// Log-scale sigma of the mean-one per-client watch-time jitter.
    pub watch_sigma: f64,
    /// Seed of the population draw (fixed across replication seeds: the
    /// fleet is the plant, not part of the randomization).
    pub seed: u64,
}

impl LinkPopulation {
    /// A moderately heterogeneous fleet: capacities spanning roughly
    /// 0.4–2.5× the base, RTTs 10–60 ms, ±30% client-count and ±20%
    /// watch-time jitter.
    pub fn moderate(base: StreamConfig, n_links: usize, seed: u64) -> LinkPopulation {
        LinkPopulation {
            base,
            n_links,
            capacity_sigma: 0.45,
            rtt_range_s: (0.010, 0.060),
            demand_sigma: 0.25,
            watch_sigma: 0.18,
            seed,
        }
    }

    /// Validate the population parameters: a non-empty fleet, a finite
    /// positive base capacity, finite non-negative sigmas and a finite,
    /// positive, ordered RTT range. Degenerate inputs would otherwise
    /// surface only as NaN covariates deep in the analysis.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let sigma = |s: f64| s >= 0.0 && s.is_finite();
        let capacity = self.base.capacity_bps;
        let (rtt_lo, rtt_hi) = self.rtt_range_s;
        require(capacity > 0.0 && capacity.is_finite(), "base.capacity_bps")?;
        require(self.n_links > 0, "n_links")?;
        require(sigma(self.capacity_sigma), "capacity_sigma")?;
        require(
            rtt_lo > 0.0 && rtt_lo <= rtt_hi && rtt_hi.is_finite(),
            "rtt_range_s",
        )?;
        require(sigma(self.demand_sigma), "demand_sigma")?;
        require(sigma(self.watch_sigma), "watch_sigma")
    }

    /// Sample the fleet. Deterministic in `self.seed`; link `i`'s draw
    /// depends only on the seed and `i`'s position in the stream, so
    /// growing `n_links` keeps the existing links' parameters unchanged.
    ///
    /// Panics on degenerate parameters (see `LinkPopulation::validate`).
    pub fn sample(&self) -> Vec<LinkSpec> {
        if let Err(e) = self.validate() {
            panic!("LinkPopulation::sample: {e}");
        }
        let mut rng = SimRng::new(self.seed);
        (0..self.n_links)
            .map(|link| {
                let cap_mult = rng.lognormal(0.0, self.capacity_sigma);
                let base_rtt_s = rng.uniform(self.rtt_range_s.0, self.rtt_range_s.1);
                // Mean-one jitters so the *expected* load tracks capacity.
                let clients = rng.lognormal(
                    -0.5 * self.demand_sigma * self.demand_sigma,
                    self.demand_sigma,
                );
                let watch_scale =
                    rng.lognormal(-0.5 * self.watch_sigma * self.watch_sigma, self.watch_sigma);
                LinkSpec {
                    link,
                    capacity_bps: self.base.capacity_bps * cap_mult,
                    base_rtt_s,
                    arrival_scale: cap_mult * clients,
                    watch_scale,
                }
            })
            .collect()
    }
}

/// How treatment is allocated across the fleet — the design taxonomy of
/// the paper generalized to N links.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetDesign {
    /// Session-level Bernoulli(`p`) on every link: the standard A/B test
    /// the paper shows is biased under congestion interference (treated
    /// and control sessions share every bottleneck).
    UserLevel {
        /// Per-session treatment probability.
        p: f64,
    },
    /// Link-level (cluster) randomization: each link is independently
    /// assigned treated (allocation `p_hi`) or control (`p_lo`) with
    /// probability one half. Li et al. (2023) formalize why this
    /// cluster-level randomization recovers the TTE that unit-level
    /// randomization cannot.
    LinkLevel {
        /// Allocation on treated links (paper: 0.95 rather than 1.0, so
        /// spillover stays estimable).
        p_hi: f64,
        /// Allocation on control links (paper: 0.05).
        p_lo: f64,
    },
    /// Stratified paired-link matching: links are sorted by the baseline
    /// covariate [`LinkSpec::offered_load_index`], adjacent links are
    /// paired, and a coin per pair sends one to `p_hi` and the other to
    /// `p_lo` — the §4 paired design scaled out, with matching on the
    /// covariate instead of hand-picked twins. With an odd link count
    /// the link with the median covariate sits out (schedule 0.0,
    /// excluded from [`FleetPlan::pairs`]).
    StratifiedPairs {
        /// Allocation on the treated side of each pair.
        p_hi: f64,
        /// Allocation on the control side of each pair.
        p_lo: f64,
    },
    /// Staggered switchbacks: every link alternates between `p_hi` and
    /// `p_lo` in blocks of `period_days`, with link `i` phase-shifted by
    /// `i mod 2·period_days` days so the fleet is never all-treated or
    /// all-control on the same day (the stagger averages out fleet-wide
    /// day shocks that a synchronized switchback confounds with the arm).
    StaggeredSwitchback {
        /// Allocation on treated days.
        p_hi: f64,
        /// Allocation on control days.
        p_lo: f64,
        /// Days per switchback block (≥ 1).
        period_days: usize,
    },
}

/// The realized fleet assignment a design produces for one seed.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Per-link allocation schedule, index-aligned with the specs.
    pub schedules: Vec<AllocationSchedule>,
    /// Cluster arm per link: `Some(true)` = treated cluster, `Some(false)`
    /// = control cluster, `None` = no link-level arm (user-level and
    /// switchback designs, or a stratified odd link sitting out).
    pub cluster_treated: Vec<Option<bool>>,
    /// Matched pairs as `(treated link, control link)`; empty for
    /// non-paired designs.
    pub pairs: Vec<(usize, usize)>,
}

impl FleetDesign {
    /// Every allocation (`p`, `p_hi`, `p_lo`) in [0, 1] and a switchback
    /// period of at least one day; a valid design realizes only valid
    /// schedules.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        match *self {
            FleetDesign::UserLevel { p } => require(ok(p), "p"),
            FleetDesign::LinkLevel { p_hi, p_lo } | FleetDesign::StratifiedPairs { p_hi, p_lo } => {
                require(ok(p_hi), "p_hi").and(require(ok(p_lo), "p_lo"))
            }
            FleetDesign::StaggeredSwitchback {
                p_hi,
                p_lo,
                period_days,
            } => require(ok(p_hi), "p_hi")
                .and(require(ok(p_lo), "p_lo"))
                .and(require(period_days >= 1, "period_days")),
        }
    }

    /// Realize the design over `specs` for one assignment seed.
    pub fn plan(&self, specs: &[LinkSpec], base: &StreamConfig, seed: u64) -> FleetPlan {
        let n = specs.len();
        let mut rng = SimRng::new(seed);
        match *self {
            FleetDesign::UserLevel { p } => FleetPlan {
                schedules: vec![AllocationSchedule::Constant(p); n],
                cluster_treated: vec![None; n],
                pairs: Vec::new(),
            },
            FleetDesign::LinkLevel { p_hi, p_lo } => {
                let arms: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
                FleetPlan {
                    schedules: arms
                        .iter()
                        .map(|&t| AllocationSchedule::Constant(if t { p_hi } else { p_lo }))
                        .collect(),
                    cluster_treated: arms.into_iter().map(Some).collect(),
                    pairs: Vec::new(),
                }
            }
            FleetDesign::StratifiedPairs { p_hi, p_lo } => {
                // Sort by the baseline covariate, pair neighbours. Ties
                // are broken by link index (total_cmp on the covariate
                // first keeps the order deterministic for equal draws).
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    specs[a]
                        .offered_load_index(base)
                        .total_cmp(&specs[b].offered_load_index(base))
                        .then(a.cmp(&b))
                });
                // Odd fleet: the median link sits out, keeping both tails
                // of the covariate distribution inside the matching.
                if order.len() % 2 == 1 {
                    order.remove(order.len() / 2);
                }
                let mut schedules = vec![AllocationSchedule::Constant(0.0); n];
                let mut cluster_treated = vec![None; n];
                let mut pairs = Vec::with_capacity(order.len() / 2);
                for w in order.chunks_exact(2) {
                    let (a, b) = (w[0], w[1]);
                    let a_treated = rng.bernoulli(0.5);
                    let (t, c) = if a_treated { (a, b) } else { (b, a) };
                    schedules[t] = AllocationSchedule::Constant(p_hi);
                    schedules[c] = AllocationSchedule::Constant(p_lo);
                    cluster_treated[t] = Some(true);
                    cluster_treated[c] = Some(false);
                    pairs.push((t, c));
                }
                FleetPlan {
                    schedules,
                    cluster_treated,
                    pairs,
                }
            }
            FleetDesign::StaggeredSwitchback {
                p_hi,
                p_lo,
                period_days,
            } => {
                assert!(
                    period_days >= 1,
                    "switchback period must be at least one day"
                );
                let days = base.days.max(1);
                let schedules = (0..n)
                    .map(|i| {
                        let phase = i % (2 * period_days);
                        let plan: Vec<bool> = (0..days)
                            .map(|d| ((d + phase) / period_days) % 2 == 0)
                            .collect();
                        AllocationSchedule::switchback(&plan, p_hi, p_lo)
                    })
                    .collect();
                FleetPlan {
                    schedules,
                    cluster_treated: vec![None; n],
                    pairs: Vec::new(),
                }
            }
        }
    }
}

/// One link's slice of a fleet run: everything [`run_fleet_link`] needs,
/// self-contained so link×seed jobs can be scheduled on any worker.
#[derive(Debug, Clone)]
pub struct FleetLinkJob {
    /// Fleet-wide link index.
    pub link: usize,
    /// Fully materialized link configuration.
    pub cfg: StreamConfig,
    /// This link's allocation schedule.
    pub schedule: AllocationSchedule,
    /// Cluster arm, when the design assigns one.
    pub treated_cluster: Option<bool>,
    /// Baseline covariate cached from the spec.
    pub offered_load: f64,
    /// Independent per-link simulation seed.
    pub seed: u64,
    /// Telemetry fault model applied to this link's record stream after
    /// the simulation (see [`crate::telemetry`]); `None` = perfect
    /// collection. The fault RNG derives from the fault seed and link
    /// index only, never from [`FleetLinkJob::seed`].
    pub faults: Option<TelemetryFaults>,
    /// This link's slice of the shared routed arrival stream
    /// ([`FleetSim::new_routed`]); `None` = the link draws its own
    /// arrivals from [`FleetLinkJob::seed`]. Shared so cloning jobs for
    /// a parallel sweep does not duplicate the stream.
    pub routed: Option<Arc<Vec<RoutedArrival>>>,
}

/// One link's outcome within a fleet run.
#[derive(Debug, Clone)]
pub struct FleetLinkRun {
    /// Fleet-wide link index.
    pub link: usize,
    /// Cluster arm, when the design assigns one.
    pub treated_cluster: Option<bool>,
    /// Baseline covariate ([`LinkSpec::offered_load_index`]).
    pub offered_load: f64,
    /// Expected treated fraction under this link's schedule (mean
    /// allocation over the run's days) — the denominator side of the
    /// sample-ratio-mismatch guardrail.
    pub expected_allocation: f64,
    /// The allocation schedule the link actually ran (carried so
    /// temporal estimators — switchbacks with carryover burn-in — can
    /// reconstruct each day's arm without re-deriving the plan).
    pub schedule: AllocationSchedule,
    /// Session records as *delivered* by the telemetry pipeline (equal
    /// to the simulator's output when the job carries no faults).
    pub sessions: Vec<SessionRecord>,
    /// Hourly link statistics (measured in-network, not subject to the
    /// record-stream fault model).
    pub hourly: Vec<HourlyLinkStats>,
    /// Per-arm telemetry accounting for this link.
    pub telemetry: TelemetryStats,
}

/// A whole fleet's outcome: per-link runs (in link order) plus the
/// realized pairing, when the design produced one.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-link outcomes, index-aligned with the sampled specs.
    pub links: Vec<FleetLinkRun>,
    /// Matched `(treated, control)` pairs (stratified design only).
    pub pairs: Vec<(usize, usize)>,
}

impl FleetRun {
    /// Total session count across the fleet.
    #[cfg(test)]
    fn total_sessions(&self) -> usize {
        self.links.iter().map(|l| l.sessions.len()).sum()
    }
}

/// Run one link of a fleet to its horizon on the event engine. This is
/// the kernel the parallel runner schedules; [`FleetSim::run`] maps it
/// sequentially.
pub fn run_fleet_link(job: &FleetLinkJob) -> FleetLinkRun {
    run_fleet_link_with(job, EngineBackend::Event)
}

/// [`run_fleet_link`] on a selected engine backend ([`EngineBackend::Tick`]
/// is the oracle). Session records — and therefore every fleet
/// estimator — are bit-identical across backends (see
/// [`crate::engine`]); hourly statistics agree to ≤1e-9.
pub fn run_fleet_link_with(job: &FleetLinkJob, backend: EngineBackend) -> FleetLinkRun {
    if let Some(faults) = &job.faults {
        assert!(
            !faults.should_crash(job.link),
            "telemetry collection for link {} crashed (scripted by TelemetryFaults::crash_links)",
            job.link
        );
    }
    let sim = LinkSim::new(job.cfg.clone(), LinkId::One, job.schedule.clone(), job.seed);
    let source = match &job.routed {
        None => ArrivalSource::Demand,
        Some(list) => ArrivalSource::Routed { list, next: 0 },
    };
    let (sessions, hourly) = sim.run_from(source, backend);
    let days = job.cfg.days.max(1);
    let expected_allocation =
        (0..days).map(|d| job.schedule.allocation(d)).sum::<f64>() / days as f64;
    let (sessions, telemetry) = match &job.faults {
        Some(faults) => faults.apply(job.link, sessions),
        None => {
            let stats = TelemetryStats::clean(&sessions);
            (sessions, stats)
        }
    };
    FleetLinkRun {
        link: job.link,
        treated_cluster: job.treated_cluster,
        offered_load: job.offered_load,
        expected_allocation,
        schedule: job.schedule.clone(),
        sessions,
        hourly,
        telemetry,
    }
}

/// A fleet of heterogeneous links under one design and one replication
/// seed.
///
/// Seed discipline: the replication seed forks (via the usual SplitMix64
/// expansion in [`SimRng`]) one assignment seed — consumed by
/// [`FleetDesign::plan`], so re-randomizing designs draw fresh cluster
/// coins per replication — and then one simulation seed per link, in
/// link order. Links therefore never share RNG state, which is what
/// makes [`FleetSim::run`] and a parallel link×seed sweep bit-identical.
#[derive(Debug, Clone)]
pub struct FleetSim {
    jobs: Vec<FleetLinkJob>,
    pairs: Vec<(usize, usize)>,
}

impl FleetSim {
    /// Build the fleet world: realize `design` over `specs` and derive
    /// per-link seeds from `seed`.
    ///
    /// Panics if `base` fails [`StreamConfig::validate`], `specs` is
    /// empty, `design` has an allocation outside [0, 1] or a zero
    /// switchback period, or any spec fails `LinkSpec::validate`. This
    /// is where the fleet's inputs enter, so they are checked once here,
    /// not per link simulator.
    pub fn new(
        base: &StreamConfig,
        specs: &[LinkSpec],
        design: &FleetDesign,
        seed: u64,
    ) -> FleetSim {
        FleetSim::build(base, specs, design, seed).0
    }

    /// The shared constructor body: builds the fleet exactly as the
    /// unrouted path always has (same draw sequence from `seed`) and
    /// also returns the root RNG so [`FleetSim::new_routed`] can derive
    /// the router's stream as *additional* draws — the unrouted
    /// sequence is a strict prefix, which is what the golden
    /// bit-identity oracle pins.
    fn build(
        base: &StreamConfig,
        specs: &[LinkSpec],
        design: &FleetDesign,
        seed: u64,
    ) -> (FleetSim, SimRng) {
        if let Err(e) = base
            .validate()
            .and(require(!specs.is_empty(), "specs"))
            .and(design.validate())
        {
            panic!("FleetSim::new: {e}");
        }
        for spec in specs {
            if let Err(e) = spec.validate() {
                panic!("FleetSim::new: link {}: {e}", spec.link);
            }
        }
        let mut root = SimRng::new(seed);
        let assignment_seed = root.next_u64();
        let plan = design.plan(specs, base, assignment_seed);
        debug_assert_eq!(plan.schedules.len(), specs.len());
        let jobs = specs
            .iter()
            .zip(plan.schedules)
            .zip(plan.cluster_treated)
            .map(|((spec, schedule), treated_cluster)| FleetLinkJob {
                link: spec.link,
                cfg: spec.config(base),
                schedule,
                treated_cluster,
                offered_load: spec.offered_load_index(base),
                seed: root.next_u64(),
                faults: None,
                routed: None,
            })
            .collect();
        (
            FleetSim {
                jobs,
                pairs: plan.pairs,
            },
            root,
        )
    }

    /// Build a *routed* fleet world: the same plan and per-link seeds as
    /// [`FleetSim::new`], plus a shared arrival stream routed across the
    /// links by `routing` (see [`crate::routing`]). The router's seed is
    /// one extra draw from the root stream, taken *after* every per-link
    /// seed, so the assignment and link seeds match the unrouted fleet
    /// for the same `seed` — only where sessions arrive changes.
    ///
    /// Panics on an invalid [`RoutingConfig`] (plus everything
    /// [`FleetSim::new`] panics on).
    pub fn new_routed(
        base: &StreamConfig,
        specs: &[LinkSpec],
        design: &FleetDesign,
        routing: &RoutingConfig,
        seed: u64,
    ) -> FleetSim {
        if let Err(e) = routing.validate() {
            panic!("FleetSim::new_routed: {e}");
        }
        let (mut fleet, mut root) = FleetSim::build(base, specs, design, seed);
        let router_seed = root.next_u64();
        let schedules: Vec<AllocationSchedule> =
            fleet.jobs.iter().map(|job| job.schedule.clone()).collect();
        let streams = routing::route_fleet(base, specs, &schedules, routing, router_seed);
        for (job, stream) in fleet.jobs.iter_mut().zip(streams) {
            job.routed = Some(Arc::new(stream));
        }
        fleet
    }

    /// Attach a telemetry fault model to every link job. The sim seeds
    /// are untouched — the physical world is identical to the fault-free
    /// fleet; only its *observation* changes.
    ///
    /// Panics if `faults` fails [`TelemetryFaults::validate`].
    pub fn with_faults(mut self, faults: &TelemetryFaults) -> FleetSim {
        if let Err(e) = faults.validate() {
            panic!("FleetSim::with_faults: {e}");
        }
        for job in &mut self.jobs {
            job.faults = Some(faults.clone());
        }
        self
    }

    /// Decompose into jobs plus the realized pairing (for parallel
    /// schedulers that regroup results themselves).
    pub fn into_parts(self) -> (Vec<FleetLinkJob>, Vec<(usize, usize)>) {
        (self.jobs, self.pairs)
    }

    /// Run every link sequentially on the event engine (the parity
    /// oracle for the parallel sweep).
    pub fn run(self) -> FleetRun {
        self.run_with(EngineBackend::Event)
    }

    /// [`FleetSim::run`] on a selected engine backend
    /// ([`EngineBackend::Tick`] is the oracle).
    pub fn run_with(self, backend: EngineBackend) -> FleetRun {
        let links = self
            .jobs
            .iter()
            .map(|job| run_fleet_link_with(job, backend))
            .collect();
        FleetRun {
            links,
            pairs: self.pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny, fast fleet base: one day, small links, congestion regime
    /// matching the defaults (peak demand ≈ 1.2× capacity).
    fn small_base() -> StreamConfig {
        StreamConfig {
            days: 1,
            capacity_bps: 30e6,
            peak_arrivals_per_s: 0.24 * 0.03,
            mean_watch_s: 1500.0,
            ..Default::default()
        }
    }

    fn small_pop(n: usize) -> LinkPopulation {
        LinkPopulation::moderate(small_base(), n, 99)
    }

    #[test]
    fn population_sampling_is_deterministic_and_prefix_stable() {
        let a = small_pop(8).sample();
        let b = small_pop(8).sample();
        assert_eq!(a, b);
        let longer = small_pop(12).sample();
        assert_eq!(a[..], longer[..8], "growing the fleet keeps old links");
        let other = LinkPopulation {
            seed: 100,
            ..small_pop(8)
        }
        .sample();
        assert_ne!(a, other);
    }

    #[test]
    fn population_heterogeneity_is_real() {
        let specs = small_pop(64).sample();
        let caps: Vec<f64> = specs.iter().map(|s| s.capacity_bps).collect();
        let max = caps.iter().cloned().fold(f64::MIN, f64::max);
        let min = caps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "capacity spread {min}..{max}");
        let base = small_base();
        let loads: Vec<f64> = specs.iter().map(|s| s.offered_load_index(&base)).collect();
        let lmax = loads.iter().cloned().fold(f64::MIN, f64::max);
        let lmin = loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(lmax / lmin > 1.5, "load spread {lmin}..{lmax}");
        // Mean-one jitters keep the typical link near unit load.
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!((0.6..1.6).contains(&mean), "mean load index {mean}");
    }

    #[test]
    fn user_level_plan_is_uniform() {
        let base = small_base();
        let specs = small_pop(6).sample();
        let plan = FleetDesign::UserLevel { p: 0.4 }.plan(&specs, &base, 7);
        assert_eq!(plan.schedules.len(), 6);
        assert!(plan.cluster_treated.iter().all(Option::is_none));
        assert!(plan.pairs.is_empty());
        for s in &plan.schedules {
            assert_eq!(s.allocation(0), 0.4);
        }
    }

    #[test]
    fn link_level_plan_assigns_clusters() {
        let base = small_base();
        let specs = small_pop(40).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let plan = design.plan(&specs, &base, 3);
        let treated = plan
            .cluster_treated
            .iter()
            .filter(|a| **a == Some(true))
            .count();
        // Bernoulli(0.5) over 40 links: both arms present with margin.
        assert!((8..=32).contains(&treated), "treated clusters {treated}");
        for (arm, s) in plan.cluster_treated.iter().zip(&plan.schedules) {
            let expect = if arm.unwrap() { 0.95 } else { 0.05 };
            assert_eq!(s.allocation(2), expect);
        }
        // Different assignment seeds re-randomize.
        let plan2 = design.plan(&specs, &base, 4);
        assert_ne!(plan.cluster_treated, plan2.cluster_treated);
    }

    #[test]
    fn stratified_pairs_form_perfect_matching_on_even_fleets() {
        let base = small_base();
        let specs = small_pop(20).sample();
        let design = FleetDesign::StratifiedPairs {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let plan = design.plan(&specs, &base, 11);
        assert_eq!(plan.pairs.len(), 10);
        let mut seen = vec![0usize; 20];
        for &(t, c) in &plan.pairs {
            seen[t] += 1;
            seen[c] += 1;
            assert_eq!(plan.cluster_treated[t], Some(true));
            assert_eq!(plan.cluster_treated[c], Some(false));
            assert_eq!(plan.schedules[t].allocation(0), 0.95);
            assert_eq!(plan.schedules[c].allocation(0), 0.05);
        }
        assert!(seen.iter().all(|&c| c == 1), "perfect matching: {seen:?}");
        // Pair partners are covariate neighbours: within each pair the
        // covariate gap is at most the full spread divided by pair count
        // … loosely — just check pairs are closer than random by
        // asserting each pair's gap is below the population's IQR.
        let mut loads: Vec<f64> = specs.iter().map(|s| s.offered_load_index(&base)).collect();
        loads.sort_by(f64::total_cmp);
        let iqr = loads[14] - loads[5];
        for &(t, c) in &plan.pairs {
            let gap =
                (specs[t].offered_load_index(&base) - specs[c].offered_load_index(&base)).abs();
            assert!(gap <= iqr, "pair ({t},{c}) gap {gap} vs IQR {iqr}");
        }
    }

    #[test]
    fn stratified_pairs_odd_fleet_sits_one_out() {
        let base = small_base();
        let specs = small_pop(7).sample();
        let plan = FleetDesign::StratifiedPairs {
            p_hi: 0.9,
            p_lo: 0.1,
        }
        .plan(&specs, &base, 5);
        assert_eq!(plan.pairs.len(), 3);
        let unpaired = plan.cluster_treated.iter().filter(|a| a.is_none()).count();
        assert_eq!(unpaired, 1);
        // The sitting-out link is untreated.
        let idx = plan
            .cluster_treated
            .iter()
            .position(Option::is_none)
            .unwrap();
        assert_eq!(plan.schedules[idx].allocation(0), 0.0);
    }

    #[test]
    fn staggered_switchback_phases_differ() {
        let base = StreamConfig {
            days: 4,
            ..small_base()
        };
        let specs = small_pop(4).sample();
        let plan = FleetDesign::StaggeredSwitchback {
            p_hi: 0.95,
            p_lo: 0.05,
            period_days: 1,
        }
        .plan(&specs, &base, 1);
        // Link 0: T C T C; link 1: C T C T (phase shift of one day).
        assert_eq!(plan.schedules[0].allocation(0), 0.95);
        assert_eq!(plan.schedules[0].allocation(1), 0.05);
        assert_eq!(plan.schedules[1].allocation(0), 0.05);
        assert_eq!(plan.schedules[1].allocation(1), 0.95);
        // Every day has both arms somewhere in the fleet.
        for d in 0..4 {
            let treated = plan
                .schedules
                .iter()
                .filter(|s| s.allocation(d) > 0.5)
                .count();
            assert!(treated > 0 && treated < 4, "day {d}: {treated}");
        }
    }

    #[test]
    fn fleet_run_is_deterministic_and_links_are_independent() {
        let base = small_base();
        let specs = small_pop(3).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let a = FleetSim::new(&base, &specs, &design, 42).run();
        let b = FleetSim::new(&base, &specs, &design, 42).run();
        assert!(same_records(&a, &b));
        let c = FleetSim::new(&base, &specs, &design, 43).run();
        assert!(!same_records(&a, &c));
        // Every link produced sessions and a full day of hourly stats.
        for l in &a.links {
            assert!(
                !l.sessions.is_empty(),
                "link {} produced no sessions",
                l.link
            );
            assert_eq!(l.hourly.len(), 24);
        }
    }

    /// Both runs delivered the same records (`SessionRecord`'s bitwise
    /// `==`), link by link.
    fn same_records(a: &FleetRun, b: &FleetRun) -> bool {
        a.links.len() == b.links.len()
            && a.links
                .iter()
                .zip(&b.links)
                .all(|(x, y)| x.sessions == y.sessions)
    }

    fn routing_cfg(policy: crate::routing::RoutingPolicy, k: usize) -> RoutingConfig {
        RoutingConfig::new(policy, k)
    }

    #[test]
    fn routed_fleet_is_deterministic_and_produces_sessions() {
        let base = small_base();
        let specs = small_pop(4).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let routing = routing_cfg(crate::routing::RoutingPolicy::LeastLoad, 2);
        let a = FleetSim::new_routed(&base, &specs, &design, &routing, 42).run();
        let b = FleetSim::new_routed(&base, &specs, &design, &routing, 42).run();
        assert!(same_records(&a, &b));
        assert!(a.total_sessions() > 100, "routed fleet too quiet");
        // Routing redistributes the same superposed demand, so the
        // fleet-wide session count stays in the unrouted ballpark.
        let unrouted = FleetSim::new(&base, &specs, &design, 42).run();
        let (ra, ru) = (a.total_sessions() as f64, unrouted.total_sessions() as f64);
        assert!(
            (ra / ru - 1.0).abs() < 0.25,
            "routed {ra} vs unrouted {ru} sessions"
        );
    }

    #[test]
    fn routed_fleet_tick_event_parity() {
        let base = small_base();
        let specs = small_pop(4).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        for policy in crate::routing::RoutingPolicy::ALL {
            let routing = routing_cfg(policy, 3);
            let tick = FleetSim::new_routed(&base, &specs, &design, &routing, 77)
                .run_with(EngineBackend::Tick);
            let event = FleetSim::new_routed(&base, &specs, &design, &routing, 77)
                .run_with(EngineBackend::Event);
            assert!(same_records(&tick, &event), "{policy:?}");
        }
    }

    #[test]
    fn routed_seed_discipline_is_a_prefix_of_unrouted() {
        // Same seed ⇒ same assignment and same per-link sim seeds; the
        // router stream is an extra draw, never an insertion.
        let base = small_base();
        let specs = small_pop(5).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let routing = routing_cfg(crate::routing::RoutingPolicy::WeightedRandom, 2);
        let unrouted = FleetSim::new(&base, &specs, &design, 9);
        let routed = FleetSim::new_routed(&base, &specs, &design, &routing, 9);
        for (u, r) in unrouted.jobs.iter().zip(&routed.jobs) {
            assert_eq!(u.seed, r.seed, "link {} sim seed", u.link);
            assert_eq!(u.treated_cluster, r.treated_cluster, "link {} arm", u.link);
            assert!(u.routed.is_none());
            assert!(r.routed.is_some());
        }
    }

    #[test]
    fn user_level_treated_fraction_matches_p() {
        let base = small_base();
        let specs = small_pop(4).sample();
        let run = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p: 0.3 }, 9).run();
        let (mut treated, mut total) = (0usize, 0usize);
        for l in &run.links {
            treated += l.sessions.iter().filter(|s| s.treated).count();
            total += l.sessions.len();
        }
        let frac = treated as f64 / total as f64;
        assert!((frac - 0.3).abs() < 0.04, "treated fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "LinkPopulation::sample: config field out of range: n_links")]
    fn empty_population_rejected() {
        let mut pop = small_pop(4);
        pop.n_links = 0;
        let _ = pop.sample();
    }

    #[test]
    #[should_panic(expected = "demand_sigma")]
    fn degenerate_population_sigma_rejected() {
        let mut pop = small_pop(4);
        pop.demand_sigma = f64::NAN;
        let _ = pop.sample();
    }

    #[test]
    fn population_rejects_non_finite_floats() {
        type Field = fn(&mut LinkPopulation) -> &mut f64;
        let fields: [(&str, Field); 6] = [
            ("base.capacity_bps", |p| &mut p.base.capacity_bps),
            ("capacity_sigma", |p| &mut p.capacity_sigma),
            ("rtt_range_s", |p| &mut p.rtt_range_s.0),
            ("rtt_range_s", |p| &mut p.rtt_range_s.1),
            ("demand_sigma", |p| &mut p.demand_sigma),
            ("watch_sigma", |p| &mut p.watch_sigma),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut pop = small_pop(4);
                *field(&mut pop) = bad;
                assert_eq!(
                    pop.validate(),
                    Err(ConfigError { field: name }),
                    "{name} = {bad}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rtt_range_s")]
    fn inverted_rtt_range_rejected() {
        let mut pop = small_pop(4);
        pop.rtt_range_s = (0.060, 0.010);
        let _ = pop.sample();
    }

    #[test]
    #[should_panic(expected = "FleetSim::new: config field out of range: specs")]
    fn empty_specs_rejected() {
        let _ = FleetSim::new(&small_base(), &[], &FleetDesign::UserLevel { p: 0.5 }, 1);
    }

    #[test]
    #[should_panic(expected = "FleetSim::new: config field out of range: period_days")]
    fn zero_switchback_period_rejected() {
        let design = FleetDesign::StaggeredSwitchback {
            p_hi: 0.95,
            p_lo: 0.05,
            period_days: 0,
        };
        let _ = FleetSim::new(&small_base(), &small_pop(2).sample(), &design, 1);
    }

    #[test]
    fn design_validate_names_the_allocation_field() {
        let bad = [
            (FleetDesign::UserLevel { p: 1.5 }, "p"),
            (
                FleetDesign::LinkLevel {
                    p_hi: 0.9,
                    p_lo: -0.1,
                },
                "p_lo",
            ),
            (
                FleetDesign::StratifiedPairs {
                    p_hi: f64::NAN,
                    p_lo: 0.1,
                },
                "p_hi",
            ),
            (
                FleetDesign::StaggeredSwitchback {
                    p_hi: 0.9,
                    p_lo: 1.1,
                    period_days: 1,
                },
                "p_lo",
            ),
        ];
        for (design, field) in bad {
            assert_eq!(design.validate(), Err(ConfigError { field }), "{design:?}");
        }
    }

    #[test]
    #[should_panic(expected = "FleetSim::new: link 1: config field out of range: capacity_bps")]
    fn non_finite_spec_rejected() {
        let mut specs = small_pop(2).sample();
        specs[1].capacity_bps = f64::NAN;
        let _ = FleetSim::new(&small_base(), &specs, &FleetDesign::UserLevel { p: 0.5 }, 1);
    }

    #[test]
    #[should_panic(expected = "watch_scale")]
    fn negative_spec_scale_rejected() {
        let mut specs = small_pop(2).sample();
        specs[0].watch_scale = -0.5;
        let _ = FleetSim::new(&small_base(), &specs, &FleetDesign::UserLevel { p: 0.5 }, 1);
    }

    #[test]
    fn faults_change_observation_not_the_world() {
        let base = small_base();
        let specs = small_pop(3).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let clean = FleetSim::new(&base, &specs, &design, 21).run();
        let faults = TelemetryFaults {
            drop_mcar: 0.15,
            duplicate_p: 0.1,
            reorder_window: 4,
            ..TelemetryFaults::none(77)
        };
        let faulty = FleetSim::new(&base, &specs, &design, 21)
            .with_faults(&faults)
            .run();
        for (c, f) in clean.links.iter().zip(&faulty.links) {
            // Hourly (in-network) stats untouched by record-stream faults.
            assert_eq!(c.hourly.len(), f.hourly.len());
            for (a, b) in c.hourly.iter().zip(&f.hourly) {
                assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            }
            // Delivered records are an ordered subsequence of the clean run.
            assert!(f.sessions.len() < c.sessions.len());
            let mut clean_iter = c.sessions.iter();
            for s in &f.sessions {
                assert!(
                    clean_iter.any(|cs| cs.arrival_s.to_bits() == s.arrival_s.to_bits()),
                    "delivered record not an in-order member of the clean stream"
                );
            }
            assert_eq!(f.telemetry.sent_total() as usize, c.sessions.len());
            assert_eq!(f.telemetry.delivered_total() as usize, f.sessions.len());
            // Clean runs carry a pass-through ledger.
            assert_eq!(c.telemetry.sent, c.telemetry.delivered);
        }
        // Same seeds, same faults: byte-identical observation.
        let again = FleetSim::new(&base, &specs, &design, 21)
            .with_faults(&faults)
            .run();
        for (a, b) in faulty.links.iter().zip(&again.links) {
            assert_eq!(a.sessions.len(), b.sessions.len());
            assert_eq!(a.telemetry, b.telemetry);
        }
    }

    #[test]
    fn expected_allocation_reflects_the_schedule() {
        let base = small_base();
        let specs = small_pop(4).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = FleetSim::new(&base, &specs, &design, 13).run();
        for l in &run.links {
            let expect = if l.treated_cluster == Some(true) {
                0.95
            } else {
                0.05
            };
            assert_eq!(l.expected_allocation, expect);
        }
    }

    #[test]
    #[should_panic(expected = "crashed")]
    fn scripted_crash_link_panics() {
        let base = small_base();
        let specs = small_pop(2).sample();
        let sim = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p: 0.5 }, 1).with_faults(
            &TelemetryFaults {
                crash_links: vec![1],
                ..TelemetryFaults::none(0)
            },
        );
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "FleetSim::with_faults: config field out of range: drop_mcar")]
    fn invalid_faults_rejected() {
        let base = small_base();
        let specs = small_pop(2).sample();
        let _ = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p: 0.5 }, 1).with_faults(
            &TelemetryFaults {
                drop_mcar: 2.0,
                ..TelemetryFaults::none(0)
            },
        );
    }

    #[test]
    fn cluster_links_carry_their_arm_allocation() {
        let base = small_base();
        let specs = small_pop(6).sample();
        let design = FleetDesign::LinkLevel {
            p_hi: 0.95,
            p_lo: 0.05,
        };
        let run = FleetSim::new(&base, &specs, &design, 17).run();
        for l in &run.links {
            let frac = l.sessions.iter().filter(|s| s.treated).count() as f64
                / l.sessions.len().max(1) as f64;
            match l.treated_cluster {
                Some(true) => assert!(frac > 0.85, "link {}: {frac}", l.link),
                Some(false) => assert!(frac < 0.15, "link {}: {frac}", l.link),
                None => unreachable!("link-level design assigns every link"),
            }
        }
    }
}
