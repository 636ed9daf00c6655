//! Ablation: the BBR/Cubic coexistence regime vs bottleneck buffer depth
//! (the Figure 3 parameter choice documented in EXPERIMENTS.md) — each
//! buffer depth replicated across seeds (cross-seed mean ± 95% CI) via
//! the grid sweep on the parallel runner.
use expstats::table::pct;
use netsim::config::{AppConfig, CcKind};
use netsim::run_dumbbell;
use repro_bench::figharness::{self as fh, fmt_scaled, FigureReport};
use repro_bench::{derive_seeds, lab_config, mixed_apps, Runner, SeedCi};

const REPLICATIONS: usize = 5;

/// One replication at one buffer depth: both minority-arm advantages
/// plus all-BBR utilization.
struct BufferRun {
    bbr_minority_adv: f64,
    cubic_minority_adv: f64,
    all_bbr_util: f64,
}

pub(crate) fn report() -> FigureReport {
    let bufs = [0.5, 1.0, 2.0, 4.0];
    let seeds = derive_seeds(3, fh::replications(REPLICATIONS));
    let grid = Runner::new().sweep_grid(&bufs, &seeds, |&buf, seed| {
        let run = |k: usize| {
            let apps = mixed_apps(10, k, |treated| {
                AppConfig::plain(if treated { CcKind::Bbr } else { CcKind::Cubic })
            });
            let mut cfg = lab_config(apps, seed);
            fh::quicken_lab(&mut cfg);
            cfg.buffer_bdp = buf;
            run_dumbbell(&cfg).unwrap()
        };
        let r1 = run(1);
        let bbr1 = r1.apps[0].throughput_bps;
        let cubic9: f64 = r1.apps[1..].iter().map(|a| a.throughput_bps).sum::<f64>() / 9.0;
        let r9 = run(9);
        let bbr9: f64 = r9.apps[..9].iter().map(|a| a.throughput_bps).sum::<f64>() / 9.0;
        let cubic1 = r9.apps[9].throughput_bps;
        let rall = run(10);
        BufferRun {
            bbr_minority_adv: bbr1 / cubic9 - 1.0,
            cubic_minority_adv: cubic1 / bbr9 - 1.0,
            all_bbr_util: rall.total_throughput_bps() / 200e6,
        }
    });
    let mut rep = FigureReport::new(
        "ablation_fig3_buffer",
        "Ablation: minority-arm advantage vs buffer depth (10 flows)",
    )
    .seeds(seeds.len());
    let t = rep.add_table(
        "",
        vec![
            "buffer (BDP)",
            "1 BBR vs 9 Cubic",
            "1 Cubic vs 9 BBR",
            "all-BBR util",
        ],
    );
    let fmt_adv = |c: &SeedCi| format!("{} ({}..{})", pct(c.mean), pct(c.ci.0), pct(c.ci.1));
    for (&buf, runs) in bufs.iter().zip(&grid) {
        let bbr = rep.metric_cell(runs, &format!("1 BBR vs 9 Cubic/buf {buf}"), fmt_adv, |r| {
            r.bbr_minority_adv
        });
        let cubic = rep.metric_cell(runs, &format!("1 Cubic vs 9 BBR/buf {buf}"), fmt_adv, |r| {
            r.cubic_minority_adv
        });
        let util = rep.metric_cell(
            runs,
            &format!("all-BBR util/buf {buf}"),
            fmt_scaled(1.0, 2),
            |r| r.all_bbr_util,
        );
        rep.row(t, format!("{buf}"), vec![bbr, cubic, util]);
    }
    rep.note("(both minority columns positive = the paper's Figure 3 regime)");
    rep
}
