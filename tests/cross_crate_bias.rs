//! Integration: the packet simulator (netsim) + causal estimators show
//! the §3.1 bias end to end, and the closed-form model predicts the
//! simulated magnitudes.

use causal::potential::{FairShare, PotentialOutcomes};
use dessim::SimDuration;
use netsim::config::{AppConfig, CcKind, DumbbellConfig};
use netsim::run_dumbbell;

fn lab(k_two_conn: usize, seed: u64) -> netsim::LabResult {
    let apps: Vec<AppConfig> = (0..10)
        .map(|i| AppConfig {
            connections: if i < k_two_conn { 2 } else { 1 },
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
    run_dumbbell(&cfg).expect("valid config")
}

#[test]
fn packet_sim_matches_fair_share_model_prediction() {
    // Closed-form model: with k of n apps doubled, treated get
    // 2C/(n+k), control C/(n+k).
    let model = FairShare {
        n: 10,
        capacity: 100e6,
        weight_treated: 2.0,
        weight_control: 1.0,
    };
    let k = 3;
    let res = lab(k, 5);
    let treated: f64 = res.apps[..k].iter().map(|a| a.throughput_bps).sum::<f64>() / k as f64;
    let control: f64 =
        res.apps[k..].iter().map(|a| a.throughput_bps).sum::<f64>() / (10 - k) as f64;
    let assign = causal::Assignment::from_vec((0..10).map(|i| i < k).collect());
    let predicted_t = model.mean_treated(&assign);
    let predicted_c = model.mean_control(&assign);
    // The packet simulator should land within 30% of the fluid
    // prediction for each arm (TCP fairness is approximate).
    assert!(
        (treated / predicted_t - 1.0).abs() < 0.3,
        "treated {treated:.0} vs predicted {predicted_t:.0}"
    );
    assert!(
        (control / predicted_c - 1.0).abs() < 0.3,
        "control {control:.0} vs predicted {predicted_c:.0}"
    );
}

#[test]
fn ab_contrast_large_but_tte_zero_in_packet_sim() {
    let mixed = lab(5, 6);
    let t: f64 = mixed.apps[..5]
        .iter()
        .map(|a| a.throughput_bps)
        .sum::<f64>()
        / 5.0;
    let c: f64 = mixed.apps[5..]
        .iter()
        .map(|a| a.throughput_bps)
        .sum::<f64>()
        / 5.0;
    assert!(t / c > 1.5, "A/B contrast should be large: {:.2}", t / c);

    let all_one = lab(0, 7);
    let all_two = lab(10, 8);
    let m1: f64 = all_one.apps.iter().map(|a| a.throughput_bps).sum::<f64>() / 10.0;
    let m2: f64 = all_two.apps.iter().map(|a| a.throughput_bps).sum::<f64>() / 10.0;
    let tte = m2 / m1 - 1.0;
    assert!(
        tte.abs() < 0.1,
        "TTE(throughput) should be ~0, got {tte:+.2}"
    );
}
