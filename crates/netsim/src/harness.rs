//! High-level entry point: run one dumbbell experiment and return
//! per-application metrics.

use crate::config::DumbbellConfig;
use crate::metrics::{AppMetrics, FlowCounters, FlowMetrics};
use crate::network::{Event, Network};
use crate::packet::FlowId;
use crate::queue::QueueStats;
use dessim::{ConfigError, SimDuration, SimRng, SimTime, Simulation};

/// Result of one lab run.
#[derive(Debug, Clone)]
pub struct LabResult {
    /// Per-application metrics over the measurement window.
    pub apps: Vec<AppMetrics>,
    /// Per-flow metrics over the measurement window.
    pub flows: Vec<FlowMetrics>,
    /// Bottleneck queue statistics over the whole run.
    pub queue: QueueStats,
    /// Total events processed (performance diagnostics).
    pub events: u64,
    /// Length of the measurement window in seconds.
    pub window_secs: f64,
}

impl LabResult {
    /// Aggregate throughput across all applications (bits/s).
    pub fn total_throughput_bps(&self) -> f64 {
        self.apps.iter().map(|a| a.throughput_bps).sum()
    }
}

/// Run a dumbbell experiment to completion.
///
/// Flows start at staggered times within the first second (seeded), the
/// warm-up period is excluded from measurement, and metrics cover
/// `[warmup, duration]`.
pub fn run_dumbbell(cfg: &DumbbellConfig) -> Result<LabResult, ConfigError> {
    cfg.validate()?;
    let net = Network::new(cfg);
    let mut sim = Simulation::new(net);

    // Staggered starts, independent of the network's internal streams.
    let mut start_rng = SimRng::new(cfg.seed ^ 0x5157_ab1e);
    let max_stagger = cfg.warmup.as_secs_f64().min(1.0);
    for i in 0..cfg.total_flows() {
        let offset = SimDuration::from_secs_f64(start_rng.uniform01() * max_stagger);
        sim.schedule(SimTime::ZERO + offset, Event::FlowStart(FlowId(i)));
    }
    sim.schedule(SimTime::ZERO + cfg.warmup, Event::WarmupSnapshot);
    sim.run_until(SimTime::ZERO + cfg.duration);

    let window_secs = (cfg.duration - cfg.warmup).as_secs_f64();
    let snaps: Vec<FlowCounters> = sim
        .model
        .warmup_counters
        .clone()
        .expect("warm-up snapshot must have fired before the horizon");

    let flows: Vec<FlowMetrics> = sim
        .model
        .senders()
        .iter()
        .zip(&snaps)
        .map(|(s, snap)| {
            FlowMetrics::from_window(
                s.flow(),
                s.app(),
                snap,
                &s.counters,
                cfg.mss_bytes,
                window_secs,
            )
        })
        .collect();

    let apps = cfg
        .apps
        .iter()
        .enumerate()
        .map(|(i, app_cfg)| {
            let app_flows: Vec<FlowMetrics> =
                flows.iter().filter(|f| f.app.0 == i).cloned().collect();
            AppMetrics::aggregate(crate::packet::AppId(i), app_cfg, app_flows)
        })
        .collect();

    Ok(LabResult {
        apps,
        flows,
        queue: sim.model.queue_stats(),
        events: sim.processed(),
        window_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppConfig, CcKind};

    fn base_cfg() -> DumbbellConfig {
        DumbbellConfig {
            bottleneck_bps: 50e6,
            base_rtt: SimDuration::from_millis(20),
            buffer_bdp: 1.0,
            mss_bytes: 1500,
            duration: SimDuration::from_secs(12),
            warmup: SimDuration::from_secs(4),
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = base_cfg(); // no apps
        assert_eq!(
            run_dumbbell(&cfg).err(),
            Some(ConfigError { field: "apps" })
        );
    }

    #[test]
    fn utilization_high_with_enough_flows() {
        let mut cfg = base_cfg();
        cfg.apps = vec![AppConfig::plain(CcKind::Reno); 4];
        let res = run_dumbbell(&cfg).unwrap();
        let total = res.total_throughput_bps();
        assert!(total > 0.85 * 50e6, "total {total}");
        assert!(total <= 1.02 * 50e6, "total {total}");
    }

    #[test]
    fn two_connection_app_gets_double_share() {
        // The Figure 2a mechanism: an app with two Reno connections gets
        // roughly twice the throughput of single-connection apps.
        // Windows must be large enough that Reno's loss-synchronization
        // noise averages out; average over two seeds for robustness.
        let mut ratios = Vec::new();
        for seed in [7, 8] {
            let mut cfg = base_cfg();
            cfg.bottleneck_bps = 200e6;
            cfg.apps = vec![
                AppConfig {
                    connections: 2,
                    cc: CcKind::Reno,
                    paced: false,
                },
                AppConfig::plain(CcKind::Reno),
                AppConfig::plain(CcKind::Reno),
                AppConfig::plain(CcKind::Reno),
            ];
            cfg.duration = SimDuration::from_secs(40);
            cfg.warmup = SimDuration::from_secs(10);
            cfg.seed = seed;
            let res = run_dumbbell(&cfg).unwrap();
            let two_conn = res.apps[0].throughput_bps;
            let singles: f64 = res.apps[1..].iter().map(|a| a.throughput_bps).sum::<f64>() / 3.0;
            ratios.push(two_conn / singles);
        }
        let ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (1.4..2.8).contains(&ratio),
            "expected ~2x share for the 2-connection app, got {ratio:.2} ({ratios:?})"
        );
    }

    #[test]
    fn per_app_flow_attribution() {
        let mut cfg = base_cfg();
        cfg.apps = vec![
            AppConfig {
                connections: 2,
                cc: CcKind::Reno,
                paced: false,
            },
            AppConfig::plain(CcKind::Cubic),
        ];
        let res = run_dumbbell(&cfg).unwrap();
        assert_eq!(res.apps.len(), 2);
        assert_eq!(res.apps[0].flows.len(), 2);
        assert_eq!(res.apps[1].flows.len(), 1);
        assert_eq!(res.flows.len(), 3);
    }

    #[test]
    fn window_length_reported() {
        let mut cfg = base_cfg();
        cfg.apps = vec![AppConfig::plain(CcKind::Reno)];
        let res = run_dumbbell(&cfg).unwrap();
        assert!((res.window_secs - 8.0).abs() < 1e-9);
        assert!(res.events > 0);
    }
}
