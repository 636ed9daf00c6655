//! §5.1: a gradual deployment instrumented as an event-study sequence —
//! per-stage naive ATEs plus the interference diagnostics, replicated
//! across seeds through the shared figure harness.
use repro_bench::figharness::{self as fh, fmt_pct, FigCell, FigureReport};
use repro_bench::{derive_seeds, Runner};
use streamsim::session::Metric;
use unbiased::designs::GradualDeployment;

const REPLICATIONS: usize = 6;

pub(crate) fn report() -> FigureReport {
    let full_stages = [0.02, 0.10, 0.30, 0.50, 0.75, 0.95];
    // Quick mode shortens the horizon; the deployment needs one day per
    // stage, so the stage ladder is truncated with it.
    let days = fh::stream_days(full_stages.len());
    let stages = &full_stages[..days];
    let mut cfg = repro_bench::paired_config(fh::stream_scale(0.35), days);
    cfg.days = days;
    let seeds = derive_seeds(777, fh::replications(REPLICATIONS));

    let mut rep = FigureReport::new(
        "sec5_gradual_deployment",
        format!("Gradual deployment over {days} stages, instrumented per §5.1"),
    )
    .seeds(seeds.len());
    for metric in [Metric::Throughput, Metric::Bitrate] {
        let runs = Runner::new().sweep(&cfg, &seeds, |cfg, seed| {
            GradualDeployment {
                cfg: cfg.clone(),
                stages: stages.to_vec(),
                seed,
            }
            .run_and_diagnose(metric)
            .map_err(|e| e.to_string())
        });
        let t = rep.add_table(
            &format!("{} — within-stage ATE", metric.name()),
            vec!["allocation", "ATE", "estimable"],
        );
        for &p in stages {
            if p <= 0.0 || p >= 1.0 {
                continue; // no contrast within this stage
            }
            let mut estimable = 0usize;
            let cell = rep.estimator_cell(
                &runs,
                &format!("{}/allocation {:.0}%", metric.name(), p * 100.0),
                fmt_pct,
                |r| {
                    let (stages, _) = r.as_ref().map_err(Clone::clone)?;
                    stages
                        .iter()
                        .find(|s| (s.allocation - p).abs() < 1e-9)
                        .map(|s| s.ate.relative)
                        .ok_or_else(|| "stage not estimable (too few sessions)".to_string())
                },
            );
            for r in &runs {
                if let Ok((stages, _)) = &r.result {
                    estimable += stages.iter().any(|s| (s.allocation - p).abs() < 1e-9) as usize;
                }
            }
            rep.row(
                t,
                format!("{:.0}%", p * 100.0),
                vec![
                    cell,
                    FigCell::text(format!("{estimable}/{} seeds", runs.len())),
                ],
            );
        }
        let detected = runs
            .iter()
            .filter(|r| {
                r.result
                    .as_ref()
                    .is_ok_and(|(_, rep)| rep.interference_detected())
            })
            .count();
        let trend_p = rep.metric_cell(
            &runs,
            &format!("{}/trend p", metric.name()),
            |c| format!("{:.4} ({:.4}..{:.4})", c.mean, c.ci.0, c.ci.1),
            |r| {
                r.as_ref()
                    .ok()
                    .and_then(|(_, rep)| rep.trend.as_ref())
                    .map_or(f64::NAN, |tr| tr.p_value)
            },
        );
        let t2 = rep.add_table(
            &format!("{} — interference diagnostics", metric.name()),
            vec!["diagnostic", "value"],
        );
        rep.row(
            t2,
            "interference detected",
            vec![FigCell::text(format!("{detected}/{} seeds", runs.len()))],
        );
        rep.row(t2, "trend p-value", vec![trend_p]);
    }
    rep.note("(§5.1: a sloped ATE-vs-allocation curve is the interference signature)");
    rep
}
