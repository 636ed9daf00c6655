//! Figure 3: Cubic vs BBR. Deploying *either* algorithm at 10% looks
//! like a huge win in an A/B test; at 100% they are equivalent.
use expstats::table::pct;
use netsim::config::{AppConfig, CcKind};
use repro_bench::figharness::{FigCell, FigureReport};
use repro_bench::lab_k_sweep;

pub(crate) fn report() -> FigureReport {
    // A 2-BDP buffer puts BBR and Cubic in their coexistence regime,
    // where either minority out-earns the majority;
    // `ablation_fig3_buffer` sweeps the depth.
    let points = lab_k_sweep(80, 2.0, |treated| {
        AppConfig::plain(if treated { CcKind::Bbr } else { CcKind::Cubic })
    });

    let mut rep = FigureReport::new(
        "fig3",
        "Figure 3: 10 connections, k run BBR, 10-k run Cubic (2 BDP buffer)",
    );
    let t = rep.add_table(
        "",
        vec!["k BBR", "tput BBR (M)", "tput Cubic (M)", "BBR vs Cubic"],
    );
    for p in &points {
        let (mb, mc) = (p.treated.throughput_bps, p.control.throughput_bps);
        rep.row(
            t,
            format!("{}", p.k),
            vec![
                FigCell::value(mb, format!("{:.1}", mb / 1e6)),
                FigCell::value(mc, format!("{:.1}", mc / 1e6)),
                super::fig2a::contrast_cell(mb, mc),
            ],
        );
    }
    let t2 = rep.add_table("endpoints", vec!["contrast", "effect"]);
    let all_cubic = points[0].control.throughput_bps;
    let all_bbr = points[points.len() - 1].treated.throughput_bps;
    let tte = all_bbr / all_cubic - 1.0;
    rep.row(
        t2,
        "all-BBR vs all-Cubic mean throughput",
        vec![FigCell::value(tte, pct(tte))],
    );
    rep.note("(paper: both 10% deployments look like big wins; endpoints equal)");
    rep
}
