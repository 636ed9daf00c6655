//! Figure 8: minimum-RTT cell means, normalized to the smallest cell —
//! cross-seed mean ± 95% CI per cell through the shared figure harness.
use repro_bench::figharness::{self as fh, fmt_scaled, FigCell, FigureReport};
use repro_bench::metric_ci;
use streamsim::session::{LinkId, Metric};
use unbiased::dataset::Dataset;

const REPLICATIONS: usize = 8;

pub(crate) fn report() -> FigureReport {
    let sweep = fh::paired_sweep(0.35, 5, 202, REPLICATIONS);
    let m = Metric::MinRtt;
    let cell_of = |data: &Dataset, l, t| Dataset::mean(&data.cell(l, t), m);
    // A degenerate cell (too few finite replications) renders as "-"
    // with a warning instead of panicking the whole figure.
    let cell_ci = |l, t| metric_ci(&sweep.runs, 0.95, |data| cell_of(data, l, t)).ok();

    let cells = [
        ("link1 capped (95%)", cell_ci(LinkId::One, true)),
        ("link1 uncapped (5%)", cell_ci(LinkId::One, false)),
        ("link2 capped (5%)", cell_ci(LinkId::Two, true)),
        ("link2 uncapped (95%)", cell_ci(LinkId::Two, false)),
    ];
    let min = cells
        .iter()
        .filter_map(|c| c.1.as_ref().map(|ci| ci.mean))
        .fold(f64::MAX, f64::min);
    let mut rep = FigureReport::new(
        "fig8",
        "Figure 8: mean of per-session minimum RTT, normalized to smallest cell",
    )
    .seeds(sweep.replications());
    let t = rep.add_table("", vec!["cell", "min RTT (ms)", "normalized"]);
    let ms = fmt_scaled(1e3, 2);
    for (name, c) in cells {
        match c {
            Some(c) => {
                let rtt = FigCell::ci(&c, ms(&c));
                let norm = FigCell::value(c.mean / min, format!("{:.3}", c.mean / min));
                rep.row(t, name, vec![rtt, norm]);
            }
            None => {
                rep.warn(format!("{name}: too few finite replications for a CI"));
                rep.row(t, name, vec![FigCell::missing(), FigCell::missing()]);
            }
        }
    }
    rep.note("(paper: both cells of the mostly-capped link sit near the base RTT)");
    rep
}
