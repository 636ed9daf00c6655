//! Figure 1: allocation–response curves μ_T(p), μ_C(p) with and without
//! congestion interference (closed-form models), through the shared
//! figure harness (deterministic — no seed sweep to aggregate).
use causal::exposure::{standard_grid, ExposureCurves};
use causal::potential::{FairShare, NoInterference};
use repro_bench::figharness::FigureReport;
use repro_bench::FigCell;

pub(crate) fn report() -> FigureReport {
    let grid = standard_grid(11);
    let no_interf = NoInterference {
        baselines: vec![1.0; 100],
        effect: 0.5,
    };
    let fair = FairShare {
        n: 100,
        capacity: 100.0,
        weight_treated: 2.0,
        weight_control: 1.0,
    };
    let a = ExposureCurves::sample(&no_interf, &grid, 50, 1);
    let b = ExposureCurves::sample(&fair, &grid, 50, 2);
    let mut rep = FigureReport::new(
        "fig1",
        "Figure 1: A/B tests with and without congestion interference",
    );
    let t = rep.add_table(
        "",
        vec!["p", "(a) mu_T", "(a) mu_C", "(b) mu_T", "(b) mu_C"],
    );
    for (i, &p) in grid.iter().enumerate() {
        let cell = |v: f64| FigCell::value(v, format!("{v:.3}"));
        rep.row(
            t,
            format!("{p:.1}"),
            vec![
                cell(a.mu_t[i]),
                cell(a.mu_c[i]),
                cell(b.mu_t[i]),
                cell(b.mu_c[i]),
            ],
        );
    }
    rep.note(format!(
        "(a) no interference: ATE flat, TTE = {:.3}",
        a.tte()
    ));
    rep.note(format!(
        "(b) fair-share interference: ATE varies with p, TTE = {:.3}",
        b.tte()
    ));
    rep
}
