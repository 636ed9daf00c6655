//! Integration: the full §4 pipeline — streaming substrate, paired-link
//! design, Appendix-B analysis — shows congestion interference.

use streamsim::session::Metric;
use streamsim::StreamConfig;
use unbiased::designs::{paired_link_effects, paired_link_experiment};

fn small_world(days: usize) -> StreamConfig {
    StreamConfig {
        days,
        capacity_bps: 200e6,
        peak_arrivals_per_s: 0.048,
        ..Default::default()
    }
}

#[test]
fn naive_ab_understates_capping_benefit() {
    let data = paired_link_experiment(&small_world(3), 77);
    let tput = paired_link_effects(&data, Metric::Throughput).unwrap();
    // The cross-link TTE must exceed both within-link naive estimates:
    // capping helps everyone on the capped link, which within-link
    // comparisons cannot see.
    assert!(
        tput.tte.relative > tput.naive_hi.relative + 0.02,
        "TTE {:+.3} vs naive95 {:+.3}",
        tput.tte.relative,
        tput.naive_hi.relative
    );
    assert!(
        tput.tte.relative > tput.naive_lo.relative + 0.02,
        "TTE {:+.3} vs naive5 {:+.3}",
        tput.tte.relative,
        tput.naive_lo.relative
    );
}

#[test]
fn bitrate_effect_dominated_by_direct_cap() {
    // §4.3: "the majority of the reduction in bitrate comes from the
    // artificial cap" — naive estimates and TTE agree on sign and rough
    // size for bitrate.
    let data = paired_link_experiment(&small_world(3), 78);
    let e = paired_link_effects(&data, Metric::Bitrate).unwrap();
    assert!(e.tte.relative < -0.15, "TTE {:+.3}", e.tte.relative);
    assert!(
        e.naive_lo.relative < -0.1,
        "naive5 {:+.3}",
        e.naive_lo.relative
    );
    assert!(
        e.naive_hi.relative < -0.1,
        "naive95 {:+.3}",
        e.naive_hi.relative
    );
    assert!(!e.sign_flip());
}

#[test]
fn spillover_positive_for_uncapped_traffic_throughput() {
    let data = paired_link_experiment(&small_world(3), 79);
    let e = paired_link_effects(&data, Metric::Throughput).unwrap();
    // Control sessions on the mostly-capped link do at least as well as
    // control sessions on the mostly-uncapped link.
    assert!(
        e.spillover.relative > -0.05,
        "spillover {:+.3}",
        e.spillover.relative
    );
}
