//! Telemetry-loss bias — what lossy measurement does to fleet
//! estimates, by loss *model*, not just loss *rate*.
//!
//! Sweeps a lightly-loaded fleet under two telemetry fault models at
//! matched nominal loss rates:
//!
//! * **MCAR** ([`TelemetryFaults::drop_mcar`]): arm-blind record loss.
//!   Estimates stay centred on the clean values; confidence intervals
//!   widen with the shrinking sample — the benign regime.
//! * **MNAR** ([`TelemetryFaults::drop_congested`]): loss scaling with
//!   the telemetry layer's congestion severity, which a bitrate cap
//!   couples to the treatment itself — capped sessions stream below the
//!   slow-rate threshold, so *their* reports are preferentially lost,
//!   and every arm loses its slowest sessions first. The user-level
//!   estimate is computed on a selected sample and drifts away from the
//!   clean value, and the delivered arm ratio skews until the
//!   sample-ratio-mismatch guardrail fires.
//!
//! The link-level (cluster) design rides along as the robustness
//! comparison: its estimator weights every link equally, where the
//! pooled user-level contrast reweights toward the links that kept
//! their records — on a load-heterogeneous fleet, exactly the
//! healthiest ones.

use repro_bench::figharness::{self as fh, fmt_pct, FigCell, FigureReport};
use repro_bench::{derive_seeds, FailurePolicy, FleetSweep, Runner, SeedRun};
use streamsim::config::StreamConfig;
use streamsim::fleet::{FleetDesign, LinkPopulation};
use streamsim::session::Metric;
use streamsim::telemetry::TelemetryFaults;
use unbiased::fleet::{
    control_mean_summary, link_level_effect_summary, user_level_effect_summary, FleetEffect,
    DEFAULT_SKETCH_CAP,
};
use unbiased::guardrails::{assess_fleet_quality, QualityFlag, SRM_P_THRESHOLD};

/// Nominal loss rates swept per model (the clean baseline rides as an
/// extra row).
const RATES: &[f64] = &[0.02, 0.05, 0.10, 0.20];

/// MNAR severity multiplier: `drop_congested = MNAR_SCALE × rate`,
/// calibrated so the realized fleet-wide loss roughly matches the
/// nominal rate on this population (mean congestion severity ≈ 1/4 —
/// capped sessions sit near 0.42, uncapped near zero). The realized
/// loss column reports what actually happened.
const MNAR_SCALE: f64 = 4.0;

/// Fault seed, deliberately fixed across rows: the *rate*, not the
/// random stream, is the experimental knob.
const FAULT_SEED: u64 = 31;

#[derive(Clone, Copy, PartialEq)]
enum LossModel {
    Mcar,
    Mnar,
}

impl LossModel {
    fn name(self) -> &'static str {
        match self {
            LossModel::Mcar => "MCAR",
            LossModel::Mnar => "MNAR (congestion)",
        }
    }

    fn faults(self, rate: f64) -> TelemetryFaults {
        match self {
            LossModel::Mcar => TelemetryFaults {
                drop_mcar: rate,
                ..TelemetryFaults::none(FAULT_SEED)
            },
            LossModel::Mnar => TelemetryFaults {
                drop_congested: (MNAR_SCALE * rate).min(1.0),
                ..TelemetryFaults::none(FAULT_SEED)
            },
        }
    }
}

/// One seed's estimates for one grid cell.
struct SeedEstimates {
    user: Result<FleetEffect, String>,
    link: Result<FleetEffect, String>,
    /// Realized fleet-wide loss fraction (user-level sweep).
    loss: f64,
    /// SRM p-value on the user-level sweep, if testable.
    srm_p: Option<f64>,
}

/// The lightly-loaded fleet: same arrival process as the standard
/// congested [`repro_bench::fleet_base`], but 2.4× its capacity
/// (offered load ≈ 0.5× capacity on the average link). The MNAR bias
/// mechanism needs no congestion in the *world* — only
/// treatment-coupled loss in the *measurement* — and a mostly-healthy
/// fleet keeps the two channels separate: uncapped sessions score near
/// zero severity, capped ones don't.
fn healthy_base(days: usize) -> StreamConfig {
    StreamConfig {
        capacity_bps: 72e6,
        ..repro_bench::fleet_base(days)
    }
}

fn main() {
    let n_links = fh::fleet_links(48);
    let days = fh::stream_days(2);
    let base = healthy_base(days);
    // Extra demand heterogeneity on top of the moderate template: with
    // load ratios spanning roughly 0.2–1.2× capacity, the congested
    // tail of the fleet both suffers the largest effects and loses the
    // most telemetry — the combination that separates the
    // session-weighted and link-weighted estimators under MNAR loss.
    let mut pop = LinkPopulation::moderate(base.clone(), n_links, 2024);
    pop.demand_sigma = 0.55;
    let specs = pop.sample();
    let seeds = derive_seeds(2718, fh::replications(6));
    let user_design = FleetDesign::UserLevel { p: 0.5 };
    let link_design = FleetDesign::LinkLevel {
        p_hi: 0.95,
        p_lo: 0.05,
    };
    let runner = Runner::new();

    let sweep_cell = |faults: Option<&TelemetryFaults>| -> Vec<SeedRun<SeedEstimates>> {
        let sweep = |design| {
            let sweep = FleetSweep {
                faults,
                ..FleetSweep::new(&base, &specs, design, &seeds)
            };
            runner.fleet_summaries(&sweep, DEFAULT_SKETCH_CAP, FailurePolicy::FailFast)
        };
        let users = sweep(&user_design);
        let links = sweep(&link_design);
        users
            .into_iter()
            .zip(links)
            .map(|(u, l)| {
                let uq = assess_fleet_quality(&u.result);
                let lq = assess_fleet_quality(&l.result);
                let urefs = u.result.link_refs();
                let ubase = control_mean_summary(&urefs, Metric::Bitrate);
                let user = user_level_effect_summary(&urefs, Metric::Bitrate, ubase)
                    .map(|e| e.with_quality(uq.flags.clone()))
                    .map_err(|e| e.to_string());
                let lrefs = l.result.link_refs();
                let lbase = control_mean_summary(&lrefs, Metric::Bitrate);
                let link = link_level_effect_summary(&lrefs, Metric::Bitrate, lbase)
                    .map(|e| e.with_quality(lq.flags.clone()))
                    .map_err(|e| e.to_string());
                SeedRun {
                    seed: u.seed,
                    result: SeedEstimates {
                        user,
                        link,
                        loss: uq.loss_fraction,
                        srm_p: uq.srm.map(|s| s.p_value),
                    },
                }
            })
            .collect()
    };

    // The grid: one clean baseline plus rates × models.
    type GridRow = (String, Option<LossModel>, f64, Vec<SeedRun<SeedEstimates>>);
    let mut rows: Vec<GridRow> = vec![("clean".to_string(), None, 0.0, sweep_cell(None))];
    for &model in &[LossModel::Mcar, LossModel::Mnar] {
        for &rate in RATES {
            let faults = model.faults(rate);
            rows.push((
                format!("{} {:.0}%", model.name(), 100.0 * rate),
                Some(model),
                rate,
                sweep_cell(Some(&faults)),
            ));
        }
    }

    let mut rep = FigureReport::new(
        "fleet_telemetry_bias",
        format!(
            "Telemetry loss vs estimate quality: MCAR widens CIs, congestion-correlated \
             loss biases the user-level contrast ({n_links} lightly-loaded links, avg \
             bitrate)"
        ),
    )
    .seeds(seeds.len());

    let t = rep.add_table(
        "",
        vec![
            "fault model",
            "realized loss",
            "user-level effect",
            "user CI +/-",
            "user bias vs clean",
            "SRM p (fires <1e-3)",
            "link-level effect",
            "link CI +/-",
            "link bias vs clean",
        ],
    );

    // Per-seed paired bias against the clean row (same world seed, so
    // seed-to-seed plant noise cancels out of the difference).
    let clean_runs: Vec<(u64, Option<f64>, Option<f64>)> = rows[0]
        .3
        .iter()
        .map(|r| {
            (
                r.seed,
                r.result.user.as_ref().ok().map(|f| f.relative),
                r.result.link.as_ref().ok().map(|f| f.relative),
            )
        })
        .collect();
    let bias_runs = |runs: &[SeedRun<SeedEstimates>],
                     get: fn(&SeedEstimates) -> Option<f64>,
                     clean_at: usize|
     -> Vec<SeedRun<Result<f64, String>>> {
        runs.iter()
            .zip(&clean_runs)
            .map(|(r, clean)| SeedRun {
                seed: r.seed,
                result: match (get(&r.result), [clean.1, clean.2][clean_at]) {
                    (Some(v), Some(c)) => Ok(v - c),
                    _ => Err("estimator failed".to_string()),
                },
            })
            .collect()
    };

    let mut user_series: Vec<(&str, Vec<f64>)> = vec![("MCAR", Vec::new()), ("MNAR", Vec::new())];
    for (label, model, _rate, runs) in &rows {
        let loss = rep.estimator_cell(runs, &format!("{label}/loss"), fmt_pct, |e| Ok(e.loss));
        let user_est = rep.estimator_cell(runs, &format!("{label}/user"), fmt_pct, |e| {
            e.user.clone().map(|f| f.relative)
        });
        let user_w = rep.estimator_cell(runs, &format!("{label}/user width"), fmt_pct, |e| {
            e.user.clone().map(|f| (f.ci95.1 - f.ci95.0) / 2.0)
        });
        let user_b = bias_runs(runs, |e| e.user.as_ref().ok().map(|f| f.relative), 0);
        let user_bias = rep.estimator_cell(
            &user_b,
            &format!("{label}/user bias"),
            fmt_pct,
            Clone::clone,
        );
        let srm = srm_cell(runs);
        let link_est = rep.estimator_cell(runs, &format!("{label}/link"), fmt_pct, |e| {
            e.link.clone().map(|f| f.relative)
        });
        let link_w = rep.estimator_cell(runs, &format!("{label}/link width"), fmt_pct, |e| {
            e.link.clone().map(|f| (f.ci95.1 - f.ci95.0) / 2.0)
        });
        let link_b = bias_runs(runs, |e| e.link.as_ref().ok().map(|f| f.relative), 1);
        let link_bias = rep.estimator_cell(
            &link_b,
            &format!("{label}/link bias"),
            fmt_pct,
            Clone::clone,
        );
        rep.row(
            t,
            label.clone(),
            vec![
                loss, user_est, user_w, user_bias, srm, link_est, link_w, link_bias,
            ],
        );

        // Quality flags attached to the estimates surface as warnings —
        // the guardrail-to-figure contract. One line per flag kind, with
        // the count of seeds raising it.
        warn_flag_counts(&mut rep, label, runs);

        if let Some(model) = model {
            let mean_user: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.result.user.as_ref().ok().map(|f| f.relative))
                .collect();
            if !mean_user.is_empty() {
                let at = usize::from(*model == LossModel::Mnar);
                user_series[at]
                    .1
                    .push(mean_user.iter().sum::<f64>() / mean_user.len() as f64);
            }
        }
    }
    for (name, vals) in user_series {
        rep.series(format!("user-level bitrate effect vs rate ({name})"), vals);
    }

    rep.note(format!(
        "(loss-rate grid {:?}; MNAR maps rate r to drop_congested = {MNAR_SCALE}r, \
         calibrated so realized loss tracks the nominal rate; MCAR loss leaves both \
         designs centred on the clean row and only thins the sample, while MNAR loss \
         biases the estimates — every arm's slowest sessions are the ones whose \
         beacons vanish — and skews the delivered arm ratio until the SRM guardrail \
         fires; the link-level contrast weights links equally instead of reweighting \
         toward the links that kept their records, so its bias grows more slowly)",
        RATES
    ));
    rep.emit();
}

/// Cross-seed SRM cell: median p-value plus how many seeds fire the
/// guardrail.
fn srm_cell(runs: &[SeedRun<SeedEstimates>]) -> FigCell {
    let mut ps: Vec<f64> = runs.iter().filter_map(|r| r.result.srm_p).collect();
    if ps.is_empty() {
        return FigCell::missing();
    }
    ps.sort_by(|a, b| a.total_cmp(b));
    let median = ps[ps.len() / 2];
    let fired = ps.iter().filter(|&&p| p < SRM_P_THRESHOLD).count();
    FigCell::value(
        median,
        format!("{median:.1e} ({fired}/{} seeds fire)", ps.len()),
    )
}

/// Summarize the quality flags riding on a row's estimates into
/// warnings: one line per (estimator, flag kind) with a seed count and
/// the first seed's rendering.
fn warn_flag_counts(rep: &mut FigureReport, label: &str, runs: &[SeedRun<SeedEstimates>]) {
    for (which, get) in [
        (
            "user-level",
            (|e: &SeedEstimates| e.user.as_ref().ok().map(|f| f.quality.clone()))
                as fn(&SeedEstimates) -> Option<Vec<QualityFlag>>,
        ),
        ("link-level", |e: &SeedEstimates| {
            e.link.as_ref().ok().map(|f| f.quality.clone())
        }),
    ] {
        let per_seed: Vec<Vec<QualityFlag>> = runs.iter().filter_map(|r| get(&r.result)).collect();
        let kinds = [
            "sample-ratio mismatch",
            "arm-differential missingness",
            "arm-differential duplication",
            "degraded fleet",
        ];
        for kind in kinds {
            let hits: Vec<&QualityFlag> = per_seed
                .iter()
                .filter_map(|flags| flags.iter().find(|f| f.to_string().starts_with(kind)))
                .collect();
            if let Some(first) = hits.first() {
                rep.warn(format!(
                    "{label} ({which}, {}/{} seeds): {first}",
                    hits.len(),
                    per_seed.len()
                ));
            }
        }
    }
}
