//! §5.3 A/A calibration: run no-treatment weeks, apply switchback and
//! event-study labelings, count false positives — replicated across
//! seeds via the shared figure harness so the false-positive *rates*
//! (not one week's luck) are reported.
use causal::assignment::SwitchbackPlan;
use repro_bench::figharness::{self as fh, FigureReport};
use repro_bench::FigCell;
use unbiased::designs::aa_scan;

pub(crate) fn report() -> FigureReport {
    let sweep = fh::baseline_sweep(0.35, 5, 404, 4);
    let metrics = repro_bench::figure5_metrics();
    let plan = SwitchbackPlan::alternating(sweep.days, true);
    let switch_day = 2.min(sweep.days - 1);

    let scans: Vec<_> = sweep
        .runs
        .into_iter()
        .map(|r| {
            let data = r.result;
            let sessions = data.len();
            (aa_scan(&data, &plan, switch_day, &metrics), sessions)
        })
        .collect();
    let sessions: usize = scans.iter().map(|(_, s)| s).sum::<usize>() / scans.len();
    let mut rep = FigureReport::new(
        "aa_calibration",
        format!(
            "A/A calibration over {} metrics (~{sessions} sessions per no-treatment week)",
            metrics.len()
        ),
    )
    .seeds(scans.len());
    let t = rep.add_table(
        "false-positive rate per metric",
        vec!["metric", "switchback", "event study"],
    );
    for m in &metrics {
        let sw = scans
            .iter()
            .filter(|(s, _)| s.switchback_false_positives.contains(m))
            .count();
        let ev = scans
            .iter()
            .filter(|(s, _)| s.event_study_false_positives.contains(m))
            .count();
        let rate = |k: usize| {
            FigCell::value(
                k as f64 / scans.len() as f64,
                format!(
                    "{:.0}% ({k}/{})",
                    100.0 * k as f64 / scans.len() as f64,
                    scans.len()
                ),
            )
        };
        rep.row(t, m.name(), vec![rate(sw), rate(ev)]);
    }
    rep.note(
        "(paper: no switchback false positives; event studies false-positive on most metrics)",
    );
    rep
}
