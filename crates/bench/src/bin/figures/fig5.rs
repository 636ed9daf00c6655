//! Figure 5: the main paired-link experiment. Naïve 5%/95% A/B estimates
//! vs approximate TTE and spillover for every metric — cross-seed mean ±
//! 95% CI of the per-seed relative effects through the shared figure
//! harness.
use repro_bench::figharness::{self as fh, fmt_pct, FigCell, FigureReport};
use repro_bench::SeedRun;
use unbiased::designs::{paired_link_effects, MetricEffects};

pub(crate) fn report() -> FigureReport {
    let sweep = fh::paired_sweep(0.35, 5, 202, 8);
    let sessions: usize =
        sweep.runs.iter().map(|r| r.result.len()).sum::<usize>() / sweep.runs.len();
    let mut rep = FigureReport::new(
        "fig5",
        format!(
            "Figure 5: bitrate-capping paired-link experiment (~{sessions} sessions, {} days)",
            sweep.days
        ),
    )
    .seeds(sweep.replications());
    let t = rep.add_table(
        "",
        vec![
            "metric",
            "naive 5% A/B",
            "naive 95% A/B",
            "TTE",
            "spillover",
            "sign flip",
        ],
    );
    for m in repro_bench::figure5_metrics() {
        // One estimator pass per seed; the four columns and the
        // sign-flip tally all read from it.
        let effects: Vec<SeedRun<Result<MetricEffects, String>>> = sweep
            .runs
            .iter()
            .map(|r| SeedRun {
                seed: r.seed,
                result: paired_link_effects(&r.result, m).map_err(|e| e.to_string()),
            })
            .collect();
        let col = |rep: &mut FigureReport, what: &str, f: fn(&MetricEffects) -> f64| {
            rep.estimator_cell(
                &effects,
                &format!("{what}/{}", m.name()),
                fmt_pct,
                move |e| e.as_ref().map(f).map_err(Clone::clone),
            )
        };
        let naive_lo = col(&mut rep, "naive 5%", |e| e.naive_lo.relative);
        let naive_hi = col(&mut rep, "naive 95%", |e| e.naive_hi.relative);
        let tte = col(&mut rep, "TTE", |e| e.tte.relative);
        let spill = col(&mut rep, "spillover", |e| e.spillover.relative);
        let flips: Vec<bool> = effects
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|e| e.sign_flip())
            .collect();
        let yes = flips.iter().filter(|&&f| f).count();
        let flip_cell = if yes * 2 > flips.len() {
            FigCell::text(format!("YES ({yes}/{})", flips.len()))
        } else if yes > 0 {
            FigCell::text(format!("({yes}/{})", flips.len()))
        } else {
            FigCell::text("")
        };
        rep.row(t, m.name(), vec![naive_lo, naive_hi, tte, spill, flip_cell]);
    }
    rep.note("(paper: naive says throughput -5% / TTE +12%; min RTT naive +5..12% / TTE -24%)");
    rep
}
