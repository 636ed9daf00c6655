//! Figure 13: effect sizes and CIs under hourly vs session ("account")
//! level aggregation — cross-seed mean ± 95% CI per aggregation level.
use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use streamsim::session::{LinkId, Metric, SessionRecord};
use unbiased::analysis::{hourly_effect, unit_effect};
use unbiased::dataset::Dataset;

/// One seed's TTE under the chosen aggregation.
fn tte(data: &Dataset, m: Metric, hourly: bool) -> Result<f64, String> {
    let treated: Vec<&SessionRecord> = data.filter(|r| r.link == LinkId::One && r.treated);
    let control: Vec<&SessionRecord> = data.filter(|r| r.link == LinkId::Two && !r.treated);
    let base = Dataset::mean(&control, m);
    let e = if hourly {
        hourly_effect(m, &treated, &control, base)
    } else {
        unit_effect(m, &treated, &control, base)
    };
    e.map(|e| e.relative).map_err(|e| e.to_string())
}

pub(crate) fn report() -> FigureReport {
    let sweep = fh::paired_sweep(0.35, 5, 202, 8);
    let mut rep = FigureReport::new(
        "fig13",
        "Figure 13: TTE by aggregation level (hour-level is the conservative default)",
    )
    .seeds(sweep.replications());
    let t = rep.add_table("", vec!["metric", "hourly TTE", "session-level TTE"]);
    for m in repro_bench::figure5_metrics() {
        let h = rep.estimator_cell(
            &sweep.runs,
            &format!("hourly/{}", m.name()),
            fmt_pct,
            |data| tte(data, m, true),
        );
        let u = rep.estimator_cell(
            &sweep.runs,
            &format!("session-level/{}", m.name()),
            fmt_pct,
            |data| tte(data, m, false),
        );
        rep.row(t, m.name(), vec![h, u]);
    }
    rep.note("(paper: hourly aggregation gives much wider, conservative intervals)");
    rep
}
