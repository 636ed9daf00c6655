//! Figure 2b: paced vs unpaced connections. Every A/B test shows a large
//! persistent contrast between arms while the TTE is ~0 — the bias the
//! paper demonstrates. (Sign caveat: see EXPERIMENTS.md; our SACK/RACK
//! transport model does not reproduce the *direction* of the pacing
//! penalty the paper measured on hardware.)
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
        let apps = mixed_apps(10, k, |treated| AppConfig {
            connections: 1,
            cc: CcKind::Cubic,
            paced: treated,
        });
        let mut cfg = lab_config(apps, 60 + k as u64);
        fh::quicken_lab(&mut cfg);
        run_dumbbell(&cfg).unwrap()
    });

    let mut rep = FigureReport::new(
        "fig2b",
        "Figure 2b: 10 Cubic connections, k paced (Linux fq-style), 200 Mb/s",
    );
    let t = rep.add_table(
        "",
        vec![
            "k paced",
            "tput paced (M)",
            "tput unpaced (M)",
            "A/B contrast",
            "retx p",
            "retx u",
        ],
    );
    let mut ends = (0.0, 0.0);
    let mut retx_ends = (0.0, 0.0);
    for (&k, res) in ks.iter().zip(&results) {
        let mt = repro_bench::app_mean(&res.apps[..k], |a| a.throughput_bps);
        let mc = repro_bench::app_mean(&res.apps[k..], |a| a.throughput_bps);
        let rt = repro_bench::app_mean(&res.apps[..k], |a| a.retx_fraction);
        let rc = repro_bench::app_mean(&res.apps[k..], |a| a.retx_fraction);
        if k == 0 {
            ends.0 = mc;
            retx_ends.0 = rc;
        }
        if k == 10 {
            ends.1 = mt;
            retx_ends.1 = rt;
        }
        let contrast = if mt.is_finite() && mc.is_finite() {
            FigCell::value(mt / mc - 1.0, pct(mt / mc - 1.0))
        } else {
            FigCell::missing()
        };
        rep.row(
            t,
            format!("{k}"),
            vec![
                FigCell::value(mt, format!("{:.1}", mt / 1e6)),
                FigCell::value(mc, format!("{:.1}", mc / 1e6)),
                contrast,
                FigCell::value(rt, format!("{rt:.4}")),
                FigCell::value(rc, format!("{rc:.4}")),
            ],
        );
    }
    let t2 = rep.add_table(
        "total treatment effects (k=10 vs k=0)",
        vec!["metric", "TTE"],
    );
    let tte_t = ends.1 / ends.0 - 1.0;
    let tte_r = retx_ends.1 / retx_ends.0 - 1.0;
    rep.row(t2, "throughput", vec![FigCell::value(tte_t, pct(tte_t))]);
    rep.row(t2, "retransmits", vec![FigCell::value(tte_r, pct(tte_r))]);
    rep.note("(paper: persistent A/B contrast at every k while the TTE stays ~0)");
    rep
}
