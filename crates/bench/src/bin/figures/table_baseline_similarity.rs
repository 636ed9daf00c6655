//! §4.1 baseline-similarity check: no-treatment weeks on both links —
//! link-1-vs-link-2 contrasts as cross-seed mean ± 95% CI, plus how
//! often each contrast reads as significant across replications.
use repro_bench::figharness::{self as fh, fmt_pct, FigCell, FigureReport};
use repro_bench::SeedRun;
use streamsim::session::LinkId;
use unbiased::analysis::unit_effect;
use unbiased::dataset::Dataset;

pub(crate) fn report() -> FigureReport {
    let runs = fh::baseline_sweep(0.35, 5, 101, 8).runs;
    let sessions: usize = runs.iter().map(|r| r.result.len()).sum::<usize>() / runs.len();
    let l1_share: f64 = runs
        .iter()
        .map(|r| r.result.filter(|s| s.link == LinkId::One).len() as f64 / r.result.len() as f64)
        .sum::<f64>()
        / runs.len() as f64;
    let mut rep = FigureReport::new(
        "table_baseline_similarity",
        format!(
            "Baseline week: ~{sessions} sessions per replication, {:.1}% on link 1",
            100.0 * l1_share
        ),
    )
    .seeds(runs.len());
    let t = rep.add_table("", vec!["metric", "link1 vs link2", "significant"]);
    for m in repro_bench::figure5_metrics() {
        // One estimator pass per seed; the CI cell and the significance
        // tally both read from it.
        let effects: Vec<SeedRun<Result<_, String>>> = runs
            .iter()
            .map(|r| {
                let l1 = r.result.filter(|s| s.link == LinkId::One);
                let l2 = r.result.filter(|s| s.link == LinkId::Two);
                SeedRun {
                    seed: r.seed,
                    result: unit_effect(m, &l1, &l2, Dataset::mean(&l2, m))
                        .map_err(|e| e.to_string()),
                }
            })
            .collect();
        let ok_effects = || effects.iter().filter_map(|r| r.result.as_ref().ok());
        let estimable = ok_effects().count();
        let significant = ok_effects().filter(|e| e.significant()).count();
        let cell = rep.estimator_cell(&effects, m.name(), fmt_pct, |e| {
            e.as_ref().map(|e| e.relative).map_err(Clone::clone)
        });
        rep.row(
            t,
            m.name(),
            vec![cell, FigCell::text(format!("{significant}/{estimable}"))],
        );
    }
    rep.note("(paper: +5% bytes, +20% sessions-with-rebuffers on link 1; most others n.s.)");
    rep
}
