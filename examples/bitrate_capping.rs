//! The paper's §4 experiment, end to end: a paired-link bitrate-capping
//! study on the streaming simulator, with naive A/B estimates, the
//! approximate TTE and the spillover for the headline metrics.
//!
//! Run with: `cargo run --example bitrate_capping --release`

use streamsim::session::Metric;
use unbiased::designs::{paired_link_effects, paired_link_experiment};
use unbiased::report::render_effects_table;

fn main() {
    // A scaled-down world (3 days, ~200 Mb/s links) so the example runs
    // in seconds; the bench binaries run the full five-day version.
    let cfg = streamsim::StreamConfig {
        days: 3,
        capacity_bps: 200e6,
        peak_arrivals_per_s: 0.048,
        ..Default::default()
    };
    let data = paired_link_experiment(&cfg, 42);
    println!(
        "paired-link bitrate-capping experiment: {} sessions over 3 days\n",
        data.len()
    );
    let rows: Vec<_> = [
        Metric::Throughput,
        Metric::MinRtt,
        Metric::Bitrate,
        Metric::PlayDelay,
    ]
    .into_iter()
    .filter_map(|m| paired_link_effects(&data, m).ok())
    .collect();
    println!("{}", render_effects_table(&rows));
    println!(
        "Read it like the paper's Figure 5: within-link A/B columns miss (or\n\
         invert) what the cross-link TTE column shows, because capped and\n\
         uncapped sessions share each congested link."
    );
}
