//! Figure 12: throughput time series of the emulated switchback
//! (treatment on alternating days), per-hour cross-seed mean ± 95%
//! half-width, plus the regression estimate with its
//! weekend-adjustment diagnostic.
use causal::assignment::SwitchbackPlan;
use repro_bench::figharness::{self as fh, fmt_pct, FigCell, FigureReport};
use repro_bench::SeedRun;
use streamsim::session::{LinkId, Metric, SessionRecord};
use unbiased::dataset::Dataset;
use unbiased::designs::switchback_emulation;

/// One seed's switchback series: normalized hourly throughput of the
/// active arm on a fixed `days × 24` grid.
fn series(data: &Dataset, plan: &SwitchbackPlan, days: usize) -> Vec<f64> {
    let mut vals = vec![f64::NAN; days * 24];
    for day in 0..days {
        let recs: Vec<&SessionRecord> = if plan.treated(day) {
            data.filter(|r| r.link == LinkId::One && r.treated && r.day == day)
        } else {
            data.filter(|r| r.link == LinkId::Two && !r.treated && r.day == day)
        };
        for (_, h, v) in Dataset::hourly_means(&recs, Metric::Throughput) {
            vals[day * 24 + h] = v;
        }
    }
    repro_bench::normalize_to_max(&vals)
}

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    let runs = &sweep.runs[..fh::replications(6)];
    let plan = SwitchbackPlan::alternating(sweep.days, true);
    let per_seed: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| series(&r.result, &plan, sweep.days))
        .collect();
    let (means, half_widths) = fh::series_ci(&per_seed);
    let mut rep = FigureReport::new(
        "fig12",
        "Figure 12: switchback (95% capped on alternating days), normalized hourly throughput",
    )
    .seeds(runs.len());
    rep.series_with_ci("throughput", means, half_widths);

    // One regression per seed; the TTE cell and the weekend-dummy tally
    // both read from it.
    let estimates: Vec<SeedRun<Result<_, String>>> = runs
        .iter()
        .map(|r| SeedRun {
            seed: r.seed,
            result: switchback_emulation(&r.result, &plan, Metric::Throughput)
                .map_err(|e| e.to_string()),
        })
        .collect();
    let ok_estimates = || estimates.iter().filter_map(|r| r.result.as_ref().ok());
    let estimable = ok_estimates().count();
    let adjusted = ok_estimates().filter(|e| e.weekend_adjusted).count();
    let t = rep.add_table(
        "switchback TTE (hourly regression)",
        vec!["metric", "TTE", "weekend dummy included"],
    );
    let tte = rep.estimator_cell(&estimates, "switchback TTE", fmt_pct, |e| {
        e.as_ref().map(|e| e.relative).map_err(Clone::clone)
    });
    rep.row(
        t,
        "throughput",
        vec![tte, FigCell::text(format!("{adjusted}/{estimable} seeds"))],
    );
    rep.note(
        "(the day-to-day alternation hides the clean paired-link contrast — hence \
         regression analysis; a dropped weekend dummy means it was degenerate or \
         collinear with the arm)",
    );
    rep
}
