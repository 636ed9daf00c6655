//! Figure 9: % retransmitted bytes — TTE split into peak vs off-peak,
//! cross-seed mean ± 95% CI of the per-seed relative effects through
//! the shared figure harness.
use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use streamsim::session::{LinkId, Metric, SessionRecord};
use unbiased::analysis::hourly_effect;
use unbiased::dataset::Dataset;

/// Per-seed relative TTE of the retransmitted-byte fraction restricted
/// to the sessions selected by `in_part`.
fn part_effect(data: &Dataset, in_part: &dyn Fn(&SessionRecord) -> bool) -> Result<f64, String> {
    let m = Metric::RetxFraction;
    let treated: Vec<&SessionRecord> =
        data.filter(|r| r.link == LinkId::One && r.treated && in_part(r));
    let control: Vec<&SessionRecord> =
        data.filter(|r| r.link == LinkId::Two && !r.treated && in_part(r));
    let base = Dataset::mean(&control, m);
    hourly_effect(m, &treated, &control, base)
        .map(|e| e.relative)
        .map_err(|e| e.to_string())
}

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    let peak = |r: &SessionRecord| (17..23).contains(&r.hour);
    let mut rep = FigureReport::new(
        "fig9",
        "Figure 9: retransmitted-byte fraction, capping TTE by day part",
    )
    .seeds(sweep.replications());
    let t = rep.add_table("", vec!["hours", "TTE"]);
    for (label, in_part) in [
        (
            "all",
            Box::new(|_: &SessionRecord| true) as Box<dyn Fn(&SessionRecord) -> bool>,
        ),
        ("peak (17-22h)", Box::new(peak)),
        ("off-peak", Box::new(move |r: &SessionRecord| !peak(r))),
    ] {
        let cell = rep.estimator_cell(&sweep.runs, label, fmt_pct, |data| {
            part_effect(data, in_part.as_ref())
        });
        rep.row(t, label, vec![cell]);
    }
    rep.note("(paper: overall +10%, off-peak +16%, peak -20%; absolute retx fell everywhere)");
    rep
}
