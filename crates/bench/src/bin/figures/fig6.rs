//! Figure 6: hourly client throughput, baseline Saturday vs experiment
//! Saturday, normalized to the largest hourly average — per-hour
//! cross-seed mean ± 95% half-width through the shared figure harness.
use repro_bench::figharness::{self as fh, FigureReport};
use streamsim::session::{LinkId, Metric};
use unbiased::dataset::Dataset;

const REPLICATIONS: usize = 6;

fn series(data: &Dataset, link: LinkId, day: usize) -> Vec<f64> {
    let recs = data.filter(|r| r.link == link && r.day == day);
    let cells = Dataset::hourly_means(&recs, Metric::Throughput);
    let raw: Vec<f64> = (0..24)
        .map(|h| {
            cells
                .iter()
                .find(|&&(_, hh, _)| hh == h)
                .map_or(f64::NAN, |&(_, _, v)| v)
        })
        .collect();
    repro_bench::normalize_to_max(&raw)
}

pub(crate) fn report() -> FigureReport {
    let baseline = fh::baseline_sweep(0.35, 4, 301, REPLICATIONS);
    let experiment = fh::paired_sweep(0.35, 4, 302, REPLICATIONS);
    // Saturday is day 3 of the Wednesday-aligned week; quick mode
    // shortens the horizon, so plot the last simulated day instead.
    let day = experiment.days - 1;

    let mut rep = FigureReport::new(
        "fig6",
        format!(
            "Figure 6: normalized hourly throughput on day {day} — baseline (6a) \
             vs experiment, link1 95% capped / link2 5% (6b)"
        ),
    )
    .seeds(experiment.replications());

    for (label, link) in [
        ("6a base link1", LinkId::One),
        ("6a base link2", LinkId::Two),
    ] {
        let per_seed: Vec<Vec<f64>> = baseline
            .runs
            .iter()
            .map(|r| series(&r.result, link, day))
            .collect();
        let (means, hw) = fh::series_ci(&per_seed);
        rep.series_with_ci(label, means, hw);
    }
    for (label, link) in [
        ("6b link1(95%)", LinkId::One),
        ("6b link2(5%)", LinkId::Two),
    ] {
        let per_seed: Vec<Vec<f64>> = experiment
            .runs
            .iter()
            .map(|r| series(&r.result, link, day))
            .collect();
        let (means, hw) = fh::series_ci(&per_seed);
        rep.series_with_ci(label, means, hw);
    }
    rep.note("(paper: during peak hours the mostly-capped link keeps higher throughput)");
    rep
}
