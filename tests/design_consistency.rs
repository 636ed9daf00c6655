//! Integration: alternate designs (switchback, event study) agree with
//! the paired-link TTE on strong effects, per §5.3.

use causal::assignment::SwitchbackPlan;
use streamsim::session::Metric;
use streamsim::StreamConfig;
use unbiased::designs::{
    event_study_emulation, paired_link_effects, paired_link_experiment, switchback_emulation,
};

#[test]
fn designs_agree_on_the_bitrate_effect() {
    let cfg = StreamConfig {
        days: 5,
        capacity_bps: 200e6,
        peak_arrivals_per_s: 0.048,
        ..Default::default()
    };
    let data = paired_link_experiment(&cfg, 33);
    let paired = paired_link_effects(&data, Metric::Bitrate).unwrap().tte;
    let plan = SwitchbackPlan::alternating(5, true);
    let sw = switchback_emulation(&data, &plan, Metric::Bitrate).unwrap();
    let ev = event_study_emulation(&data, 2, Metric::Bitrate).unwrap();
    for (name, est) in [("switchback", &sw), ("event study", &ev)] {
        assert!(
            (est.relative - paired.relative).abs() < 0.12,
            "{name} {:+.3} vs paired {:+.3}",
            est.relative,
            paired.relative
        );
        assert!(
            est.relative < -0.1,
            "{name} must detect capping: {:+.3}",
            est.relative
        );
    }
}
