//! Figure 2a: applications using one or two parallel TCP connections.
//! Every A/B test shows ~+100% throughput for two connections; the TTE
//! for throughput is ~0 while retransmissions worsen.
//!
//! The eleven k-scenarios are independent simulations, so they run
//! through the parallel scenario runner; output flows through the
//! shared figure harness (one lab world per k — the cross-k contrast,
//! not cross-seed variability, is this figure's point).
use expstats::table::pct;
use netsim::config::{AppConfig, CcKind};
use netsim::run_dumbbell;
use repro_bench::figharness::{self as fh, FigCell, FigureReport};
use repro_bench::{lab_config, mixed_apps, Runner};

fn main() {
    let ks: Vec<usize> = (0..=10).collect();
    let results = Runner::new().map(&ks, |&k| {
        let apps = mixed_apps(10, k, |treated| AppConfig {
            connections: if treated { 2 } else { 1 },
            cc: CcKind::Reno,
            paced: false,
        });
        let mut cfg = lab_config(apps, 40 + k as u64);
        fh::quicken_lab(&mut cfg);
        run_dumbbell(&cfg).unwrap()
    });

    let mut rep = FigureReport::new(
        "fig2a",
        "Figure 2a: 10 apps, k use two Reno connections, 200 Mb/s dumbbell",
    );
    let t = rep.add_table(
        "",
        vec![
            "k treated",
            "tput 2-conn (M)",
            "tput 1-conn (M)",
            "A/B contrast",
            "retx 2c",
            "retx 1c",
        ],
    );
    let mut tput_ends = (0.0, 0.0);
    let mut retx_ends = (0.0, 0.0);
    for (&k, res) in ks.iter().zip(&results) {
        let mt = repro_bench::app_mean(&res.apps[..k], |a| a.throughput_bps);
        let mc = repro_bench::app_mean(&res.apps[k..], |a| a.throughput_bps);
        let rt = repro_bench::app_mean(&res.apps[..k], |a| a.retx_fraction);
        let rc = repro_bench::app_mean(&res.apps[k..], |a| a.retx_fraction);
        if k == 0 {
            tput_ends.0 = mc;
            retx_ends.0 = rc;
        }
        if k == 10 {
            tput_ends.1 = mt;
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
    let tte_t = tput_ends.1 / tput_ends.0 - 1.0;
    let tte_r = retx_ends.1 / retx_ends.0 - 1.0;
    rep.row(t2, "throughput", vec![FigCell::value(tte_t, pct(tte_t))]);
    rep.row(t2, "retransmits", vec![FigCell::value(tte_r, pct(tte_r))]);
    rep.note("(paper: A/B says +100% tput at every k; TTE tput = 0, retx rise sharply)");
    rep.emit();
}
