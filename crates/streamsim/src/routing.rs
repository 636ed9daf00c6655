//! Cross-link session routing: the shared arrival layer that couples
//! fleet links together.
//!
//! The unrouted fleet gives every link an independent arrival process,
//! so link-level cluster randomization is unbiased *by construction* —
//! no session's experience depends on any other link's arm. Real CDNs
//! are not like that: each arriving session picks among k candidate
//! servers, so a treatment that changes one link's offered load (bitrate
//! capping does exactly that) changes *where future sessions go*, which
//! couples clusters through the router — the stochastic-congestion
//! spillover regime of Li–Johari–Kuang–Wager, with Schapira–Shahaf's
//! oblivious random-walk routing as the load-blind baseline policy.
//!
//! The router is a sequential pre-pass over the fleet's shared arrival
//! stream: one non-homogeneous Poisson process at the *sum* of the
//! per-link peak rates (the per-link demands share the same diurnal
//! shape, so the superposition is itself a `DiurnalDemand`), consumed
//! tick by tick from one seeded [`SimRng`]. Each arrival draws a home
//! link (weights ∝ `arrival_scale^imbalance`), considers the ring
//! segment of `k` candidates starting at its home, and the
//! [`RoutingPolicy`] picks the destination. The arrival's treatment
//! Bernoulli (under the *destination's* allocation schedule) and its
//! forked per-session RNG are drawn immediately, in stream order, so
//! the routed arrival stream — and therefore the whole routed fleet —
//! is a pure function of the router seed. Per-link *simulation* RNG
//! streams stay independent and untouched; the unrouted path does not
//! consume the router's stream at all, which is what keeps unrouted
//! fleets bit-identical to the pre-routing engine (pinned by
//! `tests/golden_unrouted.rs`).
//!
//! The load signal [`RoutingPolicy::LeastLoad`] reads is the router's
//! own demand estimate: each routed arrival deposits its expected
//! steady-state demand rate — the top ladder rung, or the treatment cap
//! for capped sessions — onto its destination. Crucially the estimate
//! is *slow*: it starts from the long-run demand forecast (warm start)
//! and decays on the traffic-engineering timescale (a fixed one-week
//! memory — real CDN routing reacts to demand shifts over
//! hours-to-days, not per-session). That
//! treated-vs-control deposit asymmetry is the interference channel:
//! under a *static* cluster split the capped links look persistently
//! cheap, the slow estimate drifts, and the router steers extra
//! sessions onto treated links for the whole horizon — eroding exactly
//! the cross-cluster independence that link-level designs rely on. A
//! fast-alternating switchback outpaces the router's memory: each
//! link's average deposit is the same, the slow estimate barely moves,
//! and the within-link contrast survives. With `k = 1` every session
//! stays on its home link and the coupling vanishes (the zero-spillover
//! endpoint of the `fleet_routing_spillover` figure).

use crate::config::{StreamConfig, CAP_BPS, LADDER_BPS};
use crate::demand::DiurnalDemand;
use crate::fleet::LinkSpec;
use crate::scenario::AllocationSchedule;
use dessim::{require, ConfigError, SimRng};

/// How a routed session chooses among its k candidate links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Steer toward lightly-utilized candidates: each candidate is
    /// chosen with probability ∝ (capacity / load estimate)², so
    /// steering *strength* scales with the utilization gap (a hard
    /// per-session argmin would herd the entire shared stream onto
    /// whichever candidate looks marginally lighter — real traffic
    /// engineering splits flows in proportion to headroom). The policy
    /// that *reacts* to treatment-induced load differences — the
    /// strongest spillover channel.
    LeastLoad,
    /// Send to a candidate with probability proportional to its
    /// capacity. Load-blind, so clusters stay uncoupled in
    /// distribution, but the shared stream still correlates arrival
    /// counts across links.
    WeightedRandom,
    /// Oblivious random walk à la Schapira–Shahaf: start at a uniform
    /// candidate, take two ±1 steps on the candidate ring. Load-blind
    /// and capacity-blind.
    RandomWalkOblivious,
}

impl RoutingPolicy {
    /// All policies, in report order.
    pub const ALL: [RoutingPolicy; 3] = [
        RoutingPolicy::LeastLoad,
        RoutingPolicy::WeightedRandom,
        RoutingPolicy::RandomWalkOblivious,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::LeastLoad => "least-load",
            RoutingPolicy::WeightedRandom => "weighted-random",
            RoutingPolicy::RandomWalkOblivious => "random-walk (oblivious)",
        }
    }
}

/// Configuration of the shared arrival router.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingConfig {
    /// Destination-choice policy.
    pub policy: RoutingPolicy,
    /// Number of candidate links each session considers (clamped to the
    /// fleet size at routing time). `k = 1` pins every session to its
    /// home link: the zero-spillover endpoint.
    pub k: usize,
    /// Exponent on the per-link `arrival_scale` home weights: 0 spreads
    /// homes uniformly, 1 reproduces each link's natural share, larger
    /// values concentrate demand on the heavy links.
    pub imbalance: f64,
}

/// Time constant (seconds) of the router's demand-estimate EWMA: one
/// week, the traffic-engineering timescale (peering shifts and DNS
/// steering react to sustained demand changes, not individual
/// sessions). Deposits decay as `exp(-dt / ROUTER_MEMORY_S)`, so arm
/// patterns that alternate faster than this — a daily switchback —
/// average out of the router's view while static splits shift it
/// persistently.
const ROUTER_MEMORY_S: f64 = 7.0 * 86_400.0;

impl RoutingConfig {
    /// A router with natural home weights (`imbalance = 1`).
    pub fn new(policy: RoutingPolicy, k: usize) -> RoutingConfig {
        RoutingConfig {
            policy,
            k,
            imbalance: 1.0,
        }
    }

    /// Check the parameters are usable: `k ≥ 1` and a finite
    /// non-negative imbalance exponent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require(self.k >= 1, "k")?;
        require(
            self.imbalance >= 0.0 && self.imbalance.is_finite(),
            "imbalance",
        )
    }
}

/// One session the router has already placed: the global tick it
/// arrives at, its pre-drawn treatment Bernoulli (under the destination
/// link's schedule) and its forked, unconsumed per-session RNG stream.
/// The engine converts these into span arrivals when the link runs.
#[derive(Debug, Clone)]
pub struct RoutedArrival {
    pub(crate) tick: u32,
    pub(crate) treated: bool,
    pub(crate) rng: SimRng,
}

/// Expected steady-state demand rate a routed arrival deposits on its
/// destination's load estimate: the top ladder rung, truncated to the
/// treatment cap for capped sessions. Treatment lowering this deposit
/// is *the* spillover mechanism under [`RoutingPolicy::LeastLoad`].
fn load_proxy_bps(treated: bool) -> f64 {
    let top = LADDER_BPS[LADDER_BPS.len() - 1];
    if treated {
        CAP_BPS.min(top)
    } else {
        top
    }
}

/// Run the shared arrival router over the whole horizon: one seeded
/// sequential pass producing each link's scheduled arrival stream
/// (sorted by tick). Deterministic in `(base, specs, schedules,
/// routing, seed)`; the caller owns the seed discipline and has
/// already validated `routing`.
pub(crate) fn route_fleet(
    base: &StreamConfig,
    specs: &[LinkSpec],
    schedules: &[AllocationSchedule],
    routing: &RoutingConfig,
    seed: u64,
) -> Vec<Vec<RoutedArrival>> {
    assert_eq!(specs.len(), schedules.len());
    let n = specs.len();
    let k = routing.k.min(n);
    let dt = base.dt_s;
    let n_ticks = (base.horizon_s() / dt).round() as u64;

    // Superposed fleet demand: per-link diurnal processes share the
    // hourly shape, so their sum is one DiurnalDemand at Σ peak_i.
    let total_peak: f64 = specs
        .iter()
        .map(|s| base.peak_arrivals_per_s * s.arrival_scale)
        .sum();
    let demand = DiurnalDemand::paper_week(total_peak);

    // Cumulative home weights (∝ arrival_scale^imbalance).
    let weights: Vec<f64> = specs
        .iter()
        .map(|s| s.arrival_scale.powf(routing.imbalance))
        .collect();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(acc);
    }
    let w_total = acc;

    // Per-link demand estimate with lazy exponential decay at the
    // traffic-engineering time constant (applied in powers when the
    // load is next read, so arrival-free ticks cost nothing). Warm
    // start at each link's steady-state uncapped forecast
    // `λ_i · top · τ` — without it the first day's deposits alone
    // would set the relative loads and the cold router would chase the
    // arm pattern even when it alternates.
    let decay = (-dt / ROUTER_MEMORY_S).exp();
    let top = load_proxy_bps(false);
    // Average diurnal demand runs at roughly 0.4× peak; only the shared
    // scale matters (scores are compared across links), the per-link
    // proportions come from the home weights.
    let avg_rate = 0.4 * total_peak;
    let mut loads: Vec<f64> = weights
        .iter()
        .map(|w| (w / w_total) * avg_rate * top * ROUTER_MEMORY_S)
        .collect();
    let mut loads_tick = 0u64;

    let mut rng = SimRng::new(seed);
    let mut out: Vec<Vec<RoutedArrival>> = vec![Vec::new(); n];
    for tick in 0..n_ticks {
        let t = tick as f64 * dt;
        let m = demand.arrivals(t, dt, &mut rng);
        if m == 0 {
            continue;
        }
        let elapsed = (tick - loads_tick) as i32;
        if elapsed > 0 {
            let d = decay.powi(elapsed);
            for load in &mut loads {
                *load *= d;
            }
        }
        loads_tick = tick;
        let day = DiurnalDemand::day_index(t);
        for _ in 0..m {
            let u = rng.uniform01() * w_total;
            let home = cum.partition_point(|&c| c <= u).min(n - 1);
            let dest = if k <= 1 {
                home
            } else {
                match routing.policy {
                    RoutingPolicy::LeastLoad => {
                        // Smoothed least-load: candidate weight
                        // ∝ 1/utilization² (loads are warm-started, so
                        // never zero). Steering scales with the gap
                        // instead of latching onto the argmin.
                        weighted_pick(home, k, n, &mut rng, |cand| {
                            let util = loads[cand] / specs[cand].capacity_bps;
                            (1.0 / util) * (1.0 / util)
                        })
                    }
                    RoutingPolicy::WeightedRandom => {
                        weighted_pick(home, k, n, &mut rng, |cand| specs[cand].capacity_bps)
                    }
                    RoutingPolicy::RandomWalkOblivious => {
                        let mut pos = ((rng.uniform01() * k as f64) as usize).min(k - 1);
                        for _ in 0..2 {
                            pos = if rng.bernoulli(0.5) {
                                (pos + 1) % k
                            } else {
                                (pos + k - 1) % k
                            };
                        }
                        (home + pos) % n
                    }
                }
            };
            let treated = rng.bernoulli(schedules[dest].allocation(day));
            let child = rng.fork();
            loads[dest] += load_proxy_bps(treated);
            out[dest].push(RoutedArrival {
                tick: tick as u32,
                treated,
                rng: child,
            });
        }
    }
    out
}

/// Draw one of the `k` candidates `home, home + 1, …` (mod `n`) with
/// probability proportional to `weight`: sum the weights, draw `u`
/// uniform on the total, then subtract weights in candidate order until
/// `u ≤ 0`. The last candidate absorbs any float round-off.
fn weighted_pick(
    home: usize,
    k: usize,
    n: usize,
    rng: &mut SimRng,
    weight: impl Fn(usize) -> f64,
) -> usize {
    let total: f64 = (0..k).map(|j| weight((home + j) % n)).sum();
    let mut u = rng.uniform01() * total;
    let mut pick = home;
    for j in 0..k {
        let cand = (home + j) % n;
        pick = cand;
        u -= weight(cand);
        if u <= 0.0 {
            break;
        }
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StreamConfig {
        StreamConfig {
            days: 1,
            capacity_bps: 30e6,
            peak_arrivals_per_s: 0.24 * 0.03,
            mean_watch_s: 1500.0,
            ..Default::default()
        }
    }

    fn specs(n: usize) -> Vec<LinkSpec> {
        crate::fleet::LinkPopulation::moderate(base(), n, 99).sample()
    }

    fn schedules(n: usize) -> Vec<AllocationSchedule> {
        (0..n)
            .map(|i| AllocationSchedule::Constant(if i % 2 == 0 { 0.95 } else { 0.05 }))
            .collect()
    }

    fn shape(streams: &[Vec<RoutedArrival>]) -> Vec<Vec<(u32, bool)>> {
        streams
            .iter()
            .map(|s| s.iter().map(|a| (a.tick, a.treated)).collect())
            .collect()
    }

    #[test]
    fn deterministic_in_seed() {
        let (b, s, sch) = (base(), specs(4), schedules(4));
        let cfg = RoutingConfig::new(RoutingPolicy::LeastLoad, 2);
        let a = route_fleet(&b, &s, &sch, &cfg, 7);
        let c = route_fleet(&b, &s, &sch, &cfg, 7);
        assert_eq!(shape(&a), shape(&c));
        let d = route_fleet(&b, &s, &sch, &cfg, 8);
        assert_ne!(shape(&a), shape(&d));
    }

    #[test]
    fn streams_sorted_and_within_horizon() {
        let (b, s, sch) = (base(), specs(5), schedules(5));
        let n_ticks = (b.horizon_s() / b.dt_s).round() as u32;
        for policy in RoutingPolicy::ALL {
            let cfg = RoutingConfig::new(policy, 3);
            let streams = route_fleet(&b, &s, &sch, &cfg, 11);
            assert_eq!(streams.len(), 5);
            for stream in &streams {
                assert!(stream.windows(2).all(|w| w[0].tick <= w[1].tick));
                assert!(stream.iter().all(|a| a.tick < n_ticks));
            }
            assert!(streams.iter().map(Vec::len).sum::<usize>() > 0);
        }
    }

    #[test]
    fn k1_pins_home_identically_across_policies() {
        // With one candidate no policy draws extra randomness, so all
        // three produce the same stream bit-for-bit.
        let (b, s, sch) = (base(), specs(4), schedules(4));
        let streams: Vec<_> = RoutingPolicy::ALL
            .iter()
            .map(|&p| shape(&route_fleet(&b, &s, &sch, &RoutingConfig::new(p, 1), 13)))
            .collect();
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[0], streams[2]);
    }

    #[test]
    fn imbalance_concentrates_homes() {
        let (b, mut s, sch) = (base(), specs(4), schedules(4));
        // Make link 0 the heavy one explicitly.
        s[0].arrival_scale = 3.0;
        for spec in &mut s[1..] {
            spec.arrival_scale = 0.5;
        }
        let count0 = |imb: f64| {
            let cfg = RoutingConfig {
                imbalance: imb,
                ..RoutingConfig::new(RoutingPolicy::WeightedRandom, 1)
            };
            route_fleet(&b, &s, &sch, &cfg, 17)[0].len()
        };
        assert!(count0(2.0) > count0(0.0));
    }

    #[test]
    fn least_load_avoids_small_link() {
        let (b, mut s, sch) = (base(), specs(2), schedules(2));
        s[0].capacity_bps = 1e6;
        s[1].capacity_bps = 100e6;
        s[0].arrival_scale = 1.0;
        s[1].arrival_scale = 1.0;
        let cfg = RoutingConfig::new(RoutingPolicy::LeastLoad, 2);
        let streams = route_fleet(&b, &s, &sch, &cfg, 19);
        assert!(
            streams[1].len() > streams[0].len() * 3,
            "least-load should steer to the big link: {} vs {}",
            streams[1].len(),
            streams[0].len()
        );
    }

    #[test]
    fn rejects_degenerate_config() {
        assert_eq!(
            RoutingConfig::new(RoutingPolicy::LeastLoad, 0).validate(),
            Err(ConfigError { field: "k" })
        );
        for imbalance in [f64::NAN, f64::INFINITY, -1.0] {
            let bad = RoutingConfig {
                imbalance,
                ..RoutingConfig::new(RoutingPolicy::LeastLoad, 2)
            };
            assert_eq!(bad.validate(), Err(ConfigError { field: "imbalance" }));
        }
    }

    #[test]
    fn slow_memory_chases_static_arms_but_not_alternating_ones() {
        // The interference mechanism in one test: under a *static*
        // 95/5 split the capped link's deposits run ~3× lighter, the
        // slow demand estimate drifts, and least-load steers extra
        // sessions onto the treated link. Under a daily-alternating
        // (staggered switchback) split each link's average deposit is
        // identical, so the slow router sees no persistent difference
        // and the steering differential collapses.
        let b = StreamConfig { days: 4, ..base() };
        let mut s = specs(2);
        // Identical twins so routing is the only asymmetry.
        s[1] = s[0].clone();
        let static_sch = vec![
            AllocationSchedule::Constant(0.95),
            AllocationSchedule::Constant(0.05),
        ];
        let alt_sch = vec![
            AllocationSchedule::PerDay(vec![0.95, 0.05, 0.95, 0.05]),
            AllocationSchedule::PerDay(vec![0.05, 0.95, 0.05, 0.95]),
        ];
        let cfg = RoutingConfig::new(RoutingPolicy::LeastLoad, 2);
        let skew = |sch: &[AllocationSchedule]| {
            let streams = route_fleet(&b, &s, sch, &cfg, 23);
            let (a, c) = (streams[0].len() as f64, streams[1].len() as f64);
            (a - c).abs() / (a + c)
        };
        let static_skew = skew(&static_sch);
        let alt_skew = skew(&alt_sch);
        assert!(
            static_skew > 0.15,
            "static split should draw the router toward the capped link: skew {static_skew}"
        );
        assert!(
            alt_skew < static_skew / 2.0,
            "alternation should average out of the router's slow memory: \
             {alt_skew} vs {static_skew}"
        );
    }
}
