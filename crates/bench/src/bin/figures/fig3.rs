//! Figure 3: Cubic vs BBR. Deploying *either* algorithm at 10% looks
//! like a huge win in an A/B test; at 100% they are equivalent.
//!
//! The eleven k-scenarios run through the parallel scenario runner;
//! output flows through the shared figure harness.
use expstats::table::pct;
use netsim::config::{AppConfig, CcKind};
use netsim::run_dumbbell;
use repro_bench::figharness::{self as fh, FigCell, FigureReport};
use repro_bench::{lab_config, mixed_apps, Runner};

pub(crate) fn report() -> FigureReport {
    let ks: Vec<usize> = (0..=10).collect();
    let results = Runner::new().map(&ks, |&k| {
        let apps = mixed_apps(10, k, |treated| {
            AppConfig::plain(if treated { CcKind::Bbr } else { CcKind::Cubic })
        });
        let mut cfg = lab_config(apps, 80 + k as u64);
        cfg.buffer_bdp = 2.0; // coexistence regime; see EXPERIMENTS.md
        fh::quicken_lab(&mut cfg);
        run_dumbbell(&cfg).unwrap()
    });

    let mut rep = FigureReport::new(
        "fig3",
        "Figure 3: 10 connections, k run BBR, 10-k run Cubic (2 BDP buffer)",
    );
    let t = rep.add_table(
        "",
        vec!["k BBR", "tput BBR (M)", "tput Cubic (M)", "BBR vs Cubic"],
    );
    let (mut all_cubic, mut all_bbr) = (0.0, 0.0);
    for (&k, res) in ks.iter().zip(&results) {
        let mb = repro_bench::app_mean(&res.apps[..k], |a| a.throughput_bps);
        let mc = repro_bench::app_mean(&res.apps[k..], |a| a.throughput_bps);
        if k == 0 {
            all_cubic = mc;
        }
        if k == 10 {
            all_bbr = mb;
        }
        let contrast = if mb.is_finite() && mc.is_finite() {
            FigCell::value(mb / mc - 1.0, pct(mb / mc - 1.0))
        } else {
            FigCell::missing()
        };
        rep.row(
            t,
            format!("{k}"),
            vec![
                FigCell::value(mb, format!("{:.1}", mb / 1e6)),
                FigCell::value(mc, format!("{:.1}", mc / 1e6)),
                contrast,
            ],
        );
    }
    let t2 = rep.add_table("endpoints", vec!["contrast", "effect"]);
    let tte = all_bbr / all_cubic - 1.0;
    rep.row(
        t2,
        "all-BBR vs all-Cubic mean throughput",
        vec![FigCell::value(tte, pct(tte))],
    );
    rep.note("(paper: both 10% deployments look like big wins; endpoints equal)");
    rep
}
