//! Figure 11: throughput time series of the emulated event study
//! (95% capping deployed between Thursday and Friday) — per-hour
//! cross-seed mean ± 95% half-width instead of one world's series.
use repro_bench::figharness::{self as fh, FigureReport};
use streamsim::session::{LinkId, Metric, SessionRecord};
use unbiased::dataset::Dataset;

/// One seed's event-study series: normalized hourly throughput on a
/// fixed `days × 24` grid (missing hours stay NaN so seeds align).
fn series(data: &Dataset, days: usize, switch_day: usize) -> Vec<f64> {
    let mut vals = vec![f64::NAN; days * 24];
    for day in 0..days {
        let recs: Vec<&SessionRecord> = if day < switch_day {
            data.filter(|r| r.link == LinkId::Two && !r.treated && r.day == day)
        } else {
            data.filter(|r| r.link == LinkId::One && r.treated && r.day == day)
        };
        for (_, h, v) in Dataset::hourly_means(&recs, Metric::Throughput) {
            vals[day * 24 + h] = v;
        }
    }
    repro_bench::normalize_to_max(&vals)
}

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    let switch_day = 2.min(sweep.days - 1);
    let per_seed: Vec<Vec<f64>> = sweep
        .runs
        .iter()
        .map(|r| series(&r.result, sweep.days, switch_day))
        .collect();
    let (means, half_widths) = fh::series_ci(&per_seed);
    let mut rep = FigureReport::new(
        "fig11",
        format!(
            "Figure 11: event study (uncapped before day {switch_day}, 95% capped from it), \
             normalized hourly throughput"
        ),
    )
    .seeds(sweep.replications());
    rep.series_with_ci("throughput", means, half_widths);
    rep.note(
        "(paper: the deploy-day step is confounded with weekday demand, biasing the estimate)",
    );
    rep
}
