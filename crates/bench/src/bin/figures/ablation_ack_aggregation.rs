//! Ablation: receiver ACK aggregation (GRO burst size) vs the pacing
//! arm gap — the mechanism sweep behind the Figure 2b sign discussion,
//! now replicated across seeds (cross-seed mean ± 95% CI per burst
//! size) via the grid sweep on the parallel runner.
use netsim::config::{AppConfig, CcKind};
use netsim::run_dumbbell;
use repro_bench::figharness::{self as fh, fmt_scaled, FigureReport};
use repro_bench::{derive_seeds, lab_config, mixed_apps, Runner};

const REPLICATIONS: usize = 5;

pub(crate) fn report() -> FigureReport {
    let aggs = [1u32, 2, 4, 8, 16, 32];
    let seeds = derive_seeds(5, fh::replications(REPLICATIONS));
    let grid = Runner::new().sweep_grid(&aggs, &seeds, |&agg, seed| {
        let apps = mixed_apps(10, 5, |treated| AppConfig {
            connections: 1,
            cc: CcKind::Cubic,
            paced: treated,
        });
        let mut cfg = lab_config(apps, seed);
        fh::quicken_lab(&mut cfg);
        cfg.ack_aggregation = agg;
        let res = run_dumbbell(&cfg).unwrap();
        let p: f64 = res.apps[..5].iter().map(|a| a.throughput_bps).sum::<f64>() / 5.0;
        let u: f64 = res.apps[5..].iter().map(|a| a.throughput_bps).sum::<f64>() / 5.0;
        (p, u)
    });
    let mut rep = FigureReport::new(
        "ablation_ack_aggregation",
        "Ablation: paced/unpaced throughput ratio vs ACK aggregation (5v5 Cubic)",
    )
    .seeds(seeds.len());
    let t = rep.add_table(
        "",
        vec!["ack aggregation", "paced (M)", "unpaced (M)", "ratio"],
    );
    for (&agg, runs) in aggs.iter().zip(&grid) {
        let paced = rep.metric_cell(
            runs,
            &format!("paced/agg {agg}"),
            fmt_scaled(1e-6, 1),
            |&(p, _)| p,
        );
        let unpaced = rep.metric_cell(
            runs,
            &format!("unpaced/agg {agg}"),
            fmt_scaled(1e-6, 1),
            |&(_, u)| u,
        );
        let ratio = rep.metric_cell(
            runs,
            &format!("ratio/agg {agg}"),
            fmt_scaled(1.0, 2),
            |&(p, u)| p / u,
        );
        rep.row(t, format!("{agg}"), vec![paced, unpaced, ratio]);
    }
    rep.note(
        "(the paper's -50% paced deficit does not re-emerge at any burst size\n \
         with SACK/RACK recovery)",
    );
    rep
}
