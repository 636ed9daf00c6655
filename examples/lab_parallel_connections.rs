//! The paper's §3.1 lab experiment on the packet simulator: applications
//! using one vs two TCP connections over a shared dumbbell bottleneck.
//!
//! Run with: `cargo run --example lab_parallel_connections --release`

use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use netsim::run_dumbbell;

fn experiment(k_treated: usize, seed: u64) -> (f64, f64) {
    let apps: Vec<AppConfig> = (0..10)
        .map(|i| AppConfig {
            connections: if i < k_treated { 2 } else { 1 },
            cc: CcKind::Reno,
            paced: false,
        })
        .collect();
    let cfg = DumbbellConfig {
        bottleneck_bps: 100e6,
        base_rtt: SimDuration::from_millis(20),
        apps,
        duration: SimDuration::from_secs(25),
        warmup: SimDuration::from_secs(8),
        seed,
        ..Default::default()
    };
    let res = run_dumbbell(&cfg).expect("valid configuration");
    let mean = |slice: &[netsim::AppMetrics]| {
        slice.iter().map(|a| a.throughput_bps).sum::<f64>() / slice.len().max(1) as f64
    };
    (mean(&res.apps[..k_treated]), mean(&res.apps[k_treated..]))
}

fn main() {
    println!("10 applications on a 100 Mb/s dumbbell; k of them use 2 TCP connections\n");
    println!("  k   2-conn mean    1-conn mean    A/B says");
    for k in [1, 3, 5, 7, 9] {
        let (t, c) = experiment(k, 11 + k as u64);
        println!(
            " {k:2}   {:7.1} Mb/s   {:7.1} Mb/s   {:+.0}%",
            t / 1e6,
            c / 1e6,
            100.0 * (t / c - 1.0)
        );
    }
    let (_, all_one) = experiment(0, 30);
    let (all_two, _) = experiment(10, 31);
    println!("\n  all-1-conn mean: {:.1} Mb/s", all_one / 1e6);
    println!("  all-2-conn mean: {:.1} Mb/s", all_two / 1e6);
    println!(
        "  total treatment effect: {:+.0}%",
        100.0 * (all_two / all_one - 1.0)
    );
    println!("\nEvery A/B test promises ~+100%; deploying to everyone delivers ~0%.");
}
