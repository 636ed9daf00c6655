//! Figure 10: TTE per metric as estimated by the paired-link design, an
//! emulated switchback, and an emulated event study — cross-seed mean ±
//! 95% CI over replications instead of one world, with estimator
//! failures named in the warnings section instead of silently dropping
//! the metric's row.
use causal::assignment::SwitchbackPlan;
use repro_bench::figharness::{self as fh, fmt_pct, FigureReport};
use unbiased::designs::{event_study_emulation, paired_link_effects, switchback_emulation};

pub(crate) fn report() -> FigureReport {
    let sweep = fh::main_experiment();
    // Treatment on days 1, 3, 5 (paper's Figure 12); event switch
    // Thu->Fri (day 2 of the Wed-aligned run), clamped under quick mode
    // so the post-switch window stays non-empty.
    let plan = SwitchbackPlan::alternating(sweep.days, true);
    let switch_day = 2.min(sweep.days - 1);
    let mut rep =
        FigureReport::new("fig10", "Figure 10: TTE by design").seeds(sweep.replications());
    let t = rep.add_table(
        "",
        vec!["metric", "paired link", "switchback", "event study"],
    );
    for m in repro_bench::figure5_metrics() {
        let paired = rep.estimator_cell(
            &sweep.runs,
            &format!("paired link/{}", m.name()),
            fmt_pct,
            |data| {
                paired_link_effects(data, m)
                    .map(|p| p.tte.relative)
                    .map_err(|e| e.to_string())
            },
        );
        let swb = rep.estimator_cell(
            &sweep.runs,
            &format!("switchback/{}", m.name()),
            fmt_pct,
            |data| {
                switchback_emulation(data, &plan, m)
                    .map(|e| e.relative)
                    .map_err(|e| e.to_string())
            },
        );
        let evs = rep.estimator_cell(
            &sweep.runs,
            &format!("event study/{}", m.name()),
            fmt_pct,
            |data| {
                event_study_emulation(data, switch_day, m)
                    .map(|e| e.relative)
                    .map_err(|e| e.to_string())
            },
        );
        rep.row(t, m.name(), vec![paired, swb, evs]);
    }
    rep.note("(paper: switchback CIs cover the paired TTEs; event study biased for some metrics)");
    rep
}
