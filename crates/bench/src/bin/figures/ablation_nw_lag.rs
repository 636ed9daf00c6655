//! Ablation: Newey–West lag choice vs CI width for the paired TTE
//! (the paper fixes lag = 2; the NW auto-lag rule suggests 4–5 here) —
//! the per-lag relative SE is now a cross-seed mean ± 95% CI.
use expstats::ols::{DesignBuilder, Ols, OlsFit};
use expstats::timeseries::newey_west_auto_lag;
use expstats::CovEstimator;
use repro_bench::figharness::{self as fh, fmt_pct, fmt_scaled, FigCell, FigureReport};
use repro_bench::SeedRun;
use streamsim::session::{LinkId, Metric};
use unbiased::dataset::Dataset;

/// One seed's hourly throughput regression, kept so every lag reuses
/// the same fit.
struct SeedFit {
    fit: OlsFit,
    base: f64,
    n: usize,
}

fn seed_fit(data: &Dataset) -> Result<SeedFit, String> {
    let m = Metric::Throughput;
    let treated = data.filter(|r| r.link == LinkId::One && r.treated);
    let control = data.filter(|r| r.link == LinkId::Two && !r.treated);
    let base = Dataset::mean(&control, m);
    // Rebuild the hourly regression by hand so the lag can be swept.
    let mut rows: Vec<(usize, usize, f64, f64)> = Vec::new();
    for (arm, cells) in [
        (1.0, Dataset::hourly_means(&treated, m)),
        (0.0, Dataset::hourly_means(&control, m)),
    ] {
        for (d, h, z) in cells {
            rows.push((d, h, arm, z));
        }
    }
    rows.sort_by_key(|&(d, h, a, _)| (d, h, a as i64));
    let n = rows.len();
    let y: Vec<f64> = rows.iter().map(|r| r.3).collect();
    let arm: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let hours: Vec<usize> = rows.iter().map(|r| r.1).collect();
    let build = || -> expstats::Result<OlsFit> {
        let x = DesignBuilder::new()
            .intercept(n)?
            .column(&arm)?
            .dummies(&hours)?
            .build()?;
        Ols::fit(x, &y)
    };
    build()
        .map(|fit| SeedFit { fit, base, n })
        .map_err(|e| e.to_string())
}

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    let fits: Vec<SeedRun<Result<SeedFit, String>>> = sweep
        .runs
        .iter()
        .map(|r| SeedRun {
            seed: r.seed,
            result: seed_fit(&r.result),
        })
        .collect();
    let cells = fits
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|f| f.n)
        .next()
        .unwrap_or(0);
    let auto = newey_west_auto_lag(cells);
    let mut rep = FigureReport::new(
        "ablation_nw_lag",
        format!("Ablation: throughput-TTE standard error vs Newey-West lag ({cells} hourly cells)"),
    )
    .seeds(sweep.replications());
    let t = rep.add_table("", vec!["lag", "relative SE", "note"]);
    for lag in [0usize, 1, 2, 4, 8, 12] {
        let cell = rep.estimator_cell(&fits, &format!("lag {lag}"), fmt_scaled(1.0, 4), |f| {
            f.as_ref().map_err(Clone::clone).and_then(|sf| {
                sf.fit
                    .std_errors(CovEstimator::NeweyWest { lag })
                    .map(|se| se[1] / sf.base)
                    .map_err(|e| e.to_string())
            })
        });
        let note = match lag {
            2 => "paper's choice",
            l if l == auto => "auto-lag rule",
            _ => "",
        };
        rep.row(t, format!("{lag}"), vec![cell, FigCell::text(note)]);
    }
    let t2 = rep.add_table("lag-invariant point estimate", vec!["", "TTE"]);
    let tte = rep.estimator_cell(&fits, "TTE", fmt_pct, |f| {
        f.as_ref()
            .map(|sf| sf.fit.coef[1] / sf.base)
            .map_err(Clone::clone)
    });
    rep.row(t2, "throughput", vec![tte]);
    rep.note("(the estimate is lag-invariant; only the interval width moves)");
    rep
}
