//! §2 "Note on averages": quantile treatment effects from the paired
//! experiment — the median and tail analogues of Figure 5, cross-seed
//! mean ± 95% CI through the shared figure harness.
use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use repro_bench::SeedRun;
use streamsim::session::Metric;
use unbiased::quantiles::{paired_link_quantile_effects, QuantileEffects};

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    let runs = &sweep.runs[..fh::replications(6)];
    let sessions: usize = runs.iter().map(|r| r.result.len()).sum::<usize>() / runs.len();
    let mut rep = FigureReport::new(
        "quantile_effects",
        format!("Quantile treatment effects (~{sessions} sessions per replication)"),
    )
    .seeds(runs.len());
    for metric in [Metric::Throughput, Metric::MinRtt, Metric::PlayDelay] {
        let t = rep.add_table(
            &format!("{} quantile effects", metric.name()),
            vec!["quantile", "naive 5%", "naive 95%", "TTE", "spillover"],
        );
        for q in [0.5, 0.9, 0.99] {
            // One estimate per (seed, metric, q); the four columns
            // extract fields from it.
            let effects: Vec<SeedRun<Result<QuantileEffects, String>>> = runs
                .iter()
                .map(|r| SeedRun {
                    seed: r.seed,
                    result: paired_link_quantile_effects(&r.result, metric, q)
                        .map_err(|e| e.to_string()),
                })
                .collect();
            let col = |rep: &mut FigureReport, what: &str, f: fn(&QuantileEffects) -> f64| {
                rep.estimator_cell(
                    &effects,
                    &format!("{what}/{} p{:02.0}", metric.name(), q * 100.0),
                    fmt_pct,
                    move |e| e.as_ref().map(f).map_err(Clone::clone),
                )
            };
            let naive_lo = col(&mut rep, "naive 5%", |e| e.naive_lo.relative);
            let naive_hi = col(&mut rep, "naive 95%", |e| e.naive_hi.relative);
            let tte = col(&mut rep, "TTE", |e| e.tte.relative);
            let spill = col(&mut rep, "spillover", |e| e.spillover.relative);
            rep.row(
                t,
                format!("p{:02.0}", q * 100.0),
                vec![naive_lo, naive_hi, tte, spill],
            );
        }
    }
    rep.note("(medians and tails can move differently from the mean under capping)");
    rep
}
