//! Figure 7: the four throughput cell means with estimands annotated —
//! cross-seed mean ± 95% CI per cell and per contrast through the
//! shared figure harness.
use repro_bench::figharness::{self as fh, fmt_pct, fmt_scaled, FigureReport};
use streamsim::session::{LinkId, Metric};
use unbiased::dataset::Dataset;

const REPLICATIONS: usize = 8;

pub(crate) fn report() -> FigureReport {
    let sweep = fh::paired_sweep(0.35, 5, 202, REPLICATIONS);

    let mut rep = FigureReport::new("fig7", "Figure 7: average throughput per cell (Mb/s)")
        .seeds(sweep.replications());
    let t = rep.add_table("", vec!["cell", "capped (T)", "uncapped (C)"]);
    let mbs = fmt_scaled(1e-6, 2);
    for (label, link) in [
        ("link 1 (95% capped)", LinkId::One),
        ("link 2 (5% capped)", LinkId::Two),
    ] {
        let capped = rep.metric_cell(&sweep.runs, &format!("{label}/T"), &mbs, |data| {
            cell_of(data, link, true)
        });
        let uncapped = rep.metric_cell(&sweep.runs, &format!("{label}/C"), &mbs, |data| {
            cell_of(data, link, false)
        });
        rep.row(t, label, vec![capped, uncapped]);
    }

    let t2 = rep.add_table("estimands (cell ratios)", vec!["estimand", "effect"]);
    type Contrast = fn(&Dataset) -> f64;
    let contrasts: [(&str, Contrast); 4] = [
        ("tau(0.95) = T1/C1 - 1", |data| {
            cell_of(data, LinkId::One, true) / cell_of(data, LinkId::One, false) - 1.0
        }),
        ("tau(0.05) = T2/C2 - 1", |data| {
            cell_of(data, LinkId::Two, true) / cell_of(data, LinkId::Two, false) - 1.0
        }),
        ("TTE ~ T1/C2 - 1", |data| {
            cell_of(data, LinkId::One, true) / cell_of(data, LinkId::Two, false) - 1.0
        }),
        ("spillover ~ C1/C2 - 1", |data| {
            cell_of(data, LinkId::One, false) / cell_of(data, LinkId::Two, false) - 1.0
        }),
    ];
    for (label, f) in contrasts {
        let cell = rep.metric_cell(&sweep.runs, label, fmt_pct, f);
        rep.row(t2, label, vec![cell]);
    }
    rep.note("(paper: both A/B contrasts ~ -5%, TTE +12%, spillover +16%)");
    rep
}

/// Mean throughput of one (link, arm) cell.
fn cell_of(data: &Dataset, l: LinkId, t: bool) -> f64 {
    Dataset::mean(&data.cell(l, t), Metric::Throughput)
}
