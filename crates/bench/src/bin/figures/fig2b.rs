//! Figure 2b: paced vs unpaced connections. Every A/B test shows a large
//! persistent contrast between arms while the TTE is ~0 — the bias the
//! paper demonstrates. (Sign caveat: our SACK/RACK transport model does
//! not reproduce the *direction* of the pacing penalty the paper
//! measured on hardware; `ablation_ack_aggregation` shows the paced
//! deficit does not re-emerge at any receiver ACK burst size.)
use netsim::config::{AppConfig, CcKind};
use repro_bench::figharness::FigureReport;
use repro_bench::lab_k_sweep;

pub(crate) fn report() -> FigureReport {
    let points = lab_k_sweep(60, 1.0, |treated| AppConfig {
        connections: 1,
        cc: CcKind::Cubic,
        paced: treated,
    });
    super::fig2a::render(
        FigureReport::new(
            "fig2b",
            "Figure 2b: 10 Cubic connections, k paced (Linux fq-style), 200 Mb/s",
        ),
        vec![
            "k paced",
            "tput paced (M)",
            "tput unpaced (M)",
            "A/B contrast",
            "retx p",
            "retx u",
        ],
        &points,
        "(paper: persistent A/B contrast at every k while the TTE stays ~0)",
    )
}
