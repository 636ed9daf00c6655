//! Figure 2a: applications using one or two parallel TCP connections.
//! Every A/B test shows ~+100% throughput for two connections; the TTE
//! for throughput is ~0 while retransmissions worsen.
//!
//! One lab world per k: the cross-k contrast, not cross-seed
//! variability, is this figure's point. Figure 2b shares the renderer.
use expstats::table::pct;
use netsim::config::{AppConfig, CcKind};
use repro_bench::figharness::{FigCell, FigureReport};
use repro_bench::{lab_k_sweep, KPoint};

pub(crate) fn report() -> FigureReport {
    let points = lab_k_sweep(40, 1.0, |treated| AppConfig {
        connections: if treated { 2 } else { 1 },
        cc: CcKind::Reno,
        paced: false,
    });
    render(
        FigureReport::new(
            "fig2a",
            "Figure 2a: 10 apps, k use two Reno connections, 200 Mb/s dumbbell",
        ),
        vec![
            "k treated",
            "tput 2-conn (M)",
            "tput 1-conn (M)",
            "A/B contrast",
            "retx 2c",
            "retx 1c",
        ],
        &points,
        "(paper: A/B says +100% tput at every k; TTE tput = 0, retx rise sharply)",
    )
}

/// The treated-vs-control throughput contrast of one k, or `-` when an
/// arm is empty.
pub(super) fn contrast_cell(treated: f64, control: f64) -> FigCell {
    if treated.is_finite() && control.is_finite() {
        FigCell::value(treated / control - 1.0, pct(treated / control - 1.0))
    } else {
        FigCell::missing()
    }
}

/// Figures 2a and 2b: per-k arm throughput, A/B contrast and
/// retransmits, then the total treatment effects (k=10 vs k=0).
pub(super) fn render(
    mut rep: FigureReport,
    columns: Vec<&str>,
    points: &[KPoint],
    note: &str,
) -> FigureReport {
    let t = rep.add_table("", columns);
    for p in points {
        let (mt, mc) = (p.treated.throughput_bps, p.control.throughput_bps);
        let (rt, rc) = (p.treated.retx_fraction, p.control.retx_fraction);
        rep.row(
            t,
            format!("{}", p.k),
            vec![
                FigCell::value(mt, format!("{:.1}", mt / 1e6)),
                FigCell::value(mc, format!("{:.1}", mc / 1e6)),
                contrast_cell(mt, mc),
                FigCell::value(rt, format!("{rt:.4}")),
                FigCell::value(rc, format!("{rc:.4}")),
            ],
        );
    }
    let (none, all) = (points[0].control, points[points.len() - 1].treated);
    let t2 = rep.add_table(
        "total treatment effects (k=10 vs k=0)",
        vec!["metric", "TTE"],
    );
    let tte_t = all.throughput_bps / none.throughput_bps - 1.0;
    let tte_r = all.retx_fraction / none.retx_fraction - 1.0;
    rep.row(t2, "throughput", vec![FigCell::value(tte_t, pct(tte_t))]);
    rep.row(t2, "retransmits", vec![FigCell::value(tte_r, pct(tte_r))]);
    rep.note(note);
    rep
}
