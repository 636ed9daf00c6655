//! Shared scenario configurations for the figure/table modules of the
//! `figures` program (`src/bin/figures/`).
//!
//! Scaling note: the lab figures run the packet simulator at 200 Mb/s
//! (instead of 10 Gb/s) and the streaming figures run the fluid simulator
//! at 1 Gb/s over 5 days (instead of 100 Gb/s). Shapes, not absolute
//! magnitudes, are the reproduction target.

pub mod figharness;
pub mod json;
pub mod runner;

pub use figharness::{FigCell, FigureReport};
pub use runner::{
    derive_seeds, metric_across_seeds, metric_ci, FailurePolicy, FleetSweep, Runner, SeedCi,
    SeedRun,
};

use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use streamsim::config::StreamConfig;

/// Lab dumbbell shared by the §3 figures: 200 Mb/s, 20 ms RTT, ten
/// applications.
pub fn lab_config(apps: Vec<AppConfig>, seed: u64) -> DumbbellConfig {
    DumbbellConfig {
        bottleneck_bps: 200e6,
        base_rtt: SimDuration::from_millis(20),
        buffer_bdp: 1.0,
        mss_bytes: 1500,
        apps,
        duration: SimDuration::from_secs(30),
        warmup: SimDuration::from_secs(10),
        seed,
        ..Default::default()
    }
}

/// `n` single-connection apps, the first `k` with the given marker
/// toggled via the closure.
pub fn mixed_apps(n: usize, k: usize, make: impl Fn(bool) -> AppConfig) -> Vec<AppConfig> {
    (0..n).map(|i| make(i < k)).collect()
}

/// A plain unpaced app of the given CC.
pub fn plain(cc: CcKind) -> AppConfig {
    AppConfig::plain(cc)
}

/// Per-app means of one arm of a lab run; NaN for an empty arm.
#[derive(Debug, Clone, Copy)]
pub struct ArmMeans {
    /// Mean goodput per app, bits/s.
    pub throughput_bps: f64,
    /// Mean retransmitted fraction of bytes per app.
    pub retx_fraction: f64,
}

impl ArmMeans {
    fn of(apps: &[netsim::AppMetrics]) -> ArmMeans {
        let mean = |f: fn(&netsim::AppMetrics) -> f64| {
            if apps.is_empty() {
                f64::NAN
            } else {
                apps.iter().map(f).sum::<f64>() / apps.len() as f64
            }
        };
        ArmMeans {
            throughput_bps: mean(|a| a.throughput_bps),
            retx_fraction: mean(|a| a.retx_fraction),
        }
    }
}

/// One scenario of a §3 k-sweep: `k` of the ten apps treated.
#[derive(Debug, Clone, Copy)]
pub struct KPoint {
    /// Number of treated apps.
    pub k: usize,
    /// Means over the `k` treated apps.
    pub treated: ArmMeans,
    /// Means over the `10 - k` control apps.
    pub control: ArmMeans,
}

/// The §3 k-sweep: for each k in 0..=10, a [`lab_config`] dumbbell of
/// ten apps whose first k are `make(true)`, seed `seed_base + k`, a
/// `buffer_bdp`-deep bottleneck buffer, shortened under quick mode. The
/// eleven runs are independent, so they go through the parallel
/// scenario runner. The endpoints are `points[0].control` (nobody
/// treated) and `points[10].treated` (everybody treated).
pub fn lab_k_sweep(
    seed_base: u64,
    buffer_bdp: f64,
    make: impl Fn(bool) -> AppConfig + Sync,
) -> Vec<KPoint> {
    let ks: Vec<usize> = (0..=10).collect();
    Runner::new().map(&ks, |&k| {
        let mut cfg = lab_config(mixed_apps(10, k, &make), seed_base + k as u64);
        cfg.buffer_bdp = buffer_bdp;
        figharness::quicken_lab(&mut cfg);
        let res = netsim::run_dumbbell(&cfg).unwrap();
        KPoint {
            k,
            treated: ArmMeans::of(&res.apps[..k]),
            control: ArmMeans::of(&res.apps[k..]),
        }
    })
}

/// Streaming world for the §4/§5 figures. `scale` shrinks capacity and
/// arrivals together (1.0 = the full 5-day, 1 Gb/s run; the figures
/// default to 0.35 for minute-scale runtimes).
pub fn paired_config(scale: f64, days: usize) -> StreamConfig {
    StreamConfig {
        days,
        capacity_bps: 1e9 * scale,
        peak_arrivals_per_s: 0.24 * scale,
        ..Default::default()
    }
}

/// Base configuration of one fleet link: a scaled-down reliably
/// congested bottleneck (peak offered demand ≈ 1.2× capacity, the same
/// regime as the paired-link world) cheap enough that a 200-link fleet
/// sweeps in minutes.
pub fn fleet_base(days: usize) -> StreamConfig {
    StreamConfig {
        days,
        capacity_bps: 30e6,
        peak_arrivals_per_s: 0.24 * 0.03,
        ..Default::default()
    }
}

/// The standard heterogeneous fleet of the fleet figures: capacities,
/// RTTs, client counts and per-client demand drawn from
/// [`streamsim::fleet::LinkPopulation::moderate`] around [`fleet_base`].
/// Returns the base config plus the sampled specs (fixed per `seed`, so
/// every figure runs the same plant).
pub fn fleet_population(
    n_links: usize,
    days: usize,
    seed: u64,
) -> (StreamConfig, Vec<streamsim::fleet::LinkSpec>) {
    let base = fleet_base(days);
    let specs = streamsim::fleet::LinkPopulation::moderate(base.clone(), n_links, seed).sample();
    (base, specs)
}

/// Congestion strata the fleet figures report per-stratum tables over:
/// terciles on a real fleet, halves on the ≤16-link quick fleet (a
/// 5-link tercile often realizes fewer than two cluster coins per arm).
/// Shared by both fleet figures so they always stratify identically.
pub fn fleet_strata_count(n_links: usize) -> usize {
    if n_links >= 60 {
        3
    } else {
        2
    }
}

/// Row labels matching [`fleet_strata_count`], ascending offered load.
pub fn fleet_strata_labels(n_links: usize) -> &'static [&'static str] {
    if fleet_strata_count(n_links) == 3 {
        &["low load", "mid load", "high load"]
    } else {
        &["low load", "high load"]
    }
}

/// Per-seed counterfactual ground-truth TTE of each metric: the
/// `template` fleet (its plant, seeds and routing; its design is
/// ignored) rerun all-treated and all-control, one sweep per
/// counterfactual. A routed template routes the counterfactuals too,
/// so the router sees their allocations. `truths[m][i]` is the relative
/// TTE of `metrics[m]` at seed `i`, NaN where it is not estimable.
pub fn fleet_ground_truths(
    runner: &Runner,
    template: &FleetSweep,
    metrics: &[streamsim::session::Metric],
) -> Vec<Vec<f64>> {
    let all = |p| {
        let design = streamsim::fleet::FleetDesign::UserLevel { p };
        let sweep = FleetSweep {
            design: &design,
            ..*template
        };
        runner.fleet_summaries(
            &sweep,
            unbiased::fleet::DEFAULT_SKETCH_CAP,
            FailurePolicy::FailFast,
        )
    };
    let (all_t, all_c) = (all(1.0), all(0.0));
    metrics
        .iter()
        .map(|&m| {
            all_t
                .iter()
                .zip(&all_c)
                .map(|(t, c)| {
                    unbiased::fleet::ground_truth_tte_from_summaries(&t.result, &c.result, m)
                        .unwrap_or(f64::NAN)
                })
                .collect()
        })
        .collect()
}

/// Replications whose within-seed 95% CI covers that seed's ground
/// truth, rendered as `k/n`; a failed estimate or a non-finite truth
/// counts as not covering.
pub fn coverage_cell<'a>(
    effects: impl ExactSizeIterator<Item = &'a Result<unbiased::fleet::FleetEffect, String>>,
    truths: &[f64],
) -> FigCell {
    let n = effects.len();
    let covered = effects
        .zip(truths)
        .filter(|(e, &t)| t.is_finite() && e.as_ref().is_ok_and(|e| e.covers(t)))
        .count();
    FigCell::text(format!("{covered}/{n}"))
}

/// The metric set reported in the Figure 5 table.
pub fn figure5_metrics() -> Vec<streamsim::session::Metric> {
    use streamsim::session::Metric;
    vec![
        Metric::Throughput,
        Metric::MinRtt,
        Metric::PlayDelay,
        Metric::Bitrate,
        Metric::Quality,
        Metric::RebufferSessions,
        Metric::CancelledStarts,
        Metric::RetxFraction,
    ]
}

/// Normalize a series to its maximum (the paper's time-series plots are
/// "normalized to the largest hourly average").
pub fn normalize_to_max(xs: &[f64]) -> Vec<f64> {
    let max = xs.iter().cloned().fold(f64::MIN, f64::max);
    if max <= 0.0 {
        return xs.to_vec();
    }
    xs.iter().map(|x| x / max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_config_valid() {
        let cfg = lab_config(vec![plain(CcKind::Reno); 10], 1);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_flows(), 10);
    }

    #[test]
    fn paired_config_valid() {
        assert!(paired_config(0.35, 5).validate().is_ok());
    }

    #[test]
    fn normalize_caps_at_one() {
        let n = normalize_to_max(&[1.0, 4.0, 2.0]);
        assert_eq!(n, vec![0.25, 1.0, 0.5]);
    }

    #[test]
    fn mixed_apps_counts() {
        let apps = mixed_apps(10, 3, |t| {
            if t {
                AppConfig {
                    connections: 2,
                    cc: CcKind::Reno,
                    paced: false,
                }
            } else {
                plain(CcKind::Reno)
            }
        });
        assert_eq!(apps.iter().filter(|a| a.connections == 2).count(), 3);
    }
}
