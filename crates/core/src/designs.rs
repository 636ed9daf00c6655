//! Experiment designs: paired-link, switchback, event-study and
//! gradual-deployment experiments over the streaming substrate.

use crate::analysis::{hourly_effect, hourly_effect_weekend_adjusted, unit_effect, EffectEstimate};
use crate::dataset::Dataset;
use causal::assignment::SwitchbackPlan;
use expstats::{Result, StatsError};
use streamsim::config::StreamConfig;
use streamsim::scenario::AllocationSchedule;
use streamsim::session::{LinkId, Metric, SessionRecord};
use streamsim::sim::{LinkSim, PairedSim};

/// The paired-link experiment of §4: link 1 runs a 95% A/B test, link 2 a
/// 5% A/B test, simultaneously.
#[derive(Debug, Clone)]
pub struct PairedLinkDesign {
    /// Streaming world configuration (shared by both links).
    pub cfg: StreamConfig,
    /// High allocation (link 1); the paper uses 0.95.
    pub p_hi: f64,
    /// Low allocation (link 2); the paper uses 0.05.
    pub p_lo: f64,
    /// Seed.
    pub seed: u64,
}

/// Output of a paired-link run.
pub struct PairedOutcome {
    /// All session records.
    pub data: Dataset,
}

impl PairedLinkDesign {
    /// The paper's configuration: 95% / 5%.
    pub fn paper(cfg: StreamConfig, seed: u64) -> PairedLinkDesign {
        PairedLinkDesign {
            cfg,
            p_hi: 0.95,
            p_lo: 0.05,
            seed,
        }
    }

    /// Run both links.
    pub fn run(&self) -> PairedOutcome {
        let paired = PairedSim::with_paper_biases(
            self.cfg.clone(),
            [
                AllocationSchedule::Constant(self.p_hi),
                AllocationSchedule::Constant(self.p_lo),
            ],
            self.seed,
        );
        PairedOutcome {
            data: Dataset::new(paired.run()),
        }
    }
}

/// The four estimates the paired design produces for one metric
/// (one row of the paper's Figure 5).
#[derive(Debug, Clone)]
pub struct MetricEffects {
    /// The metric.
    pub metric: Metric,
    /// Naïve A/B estimate within the low-allocation link (τ̂(0.05)).
    pub naive_lo: EffectEstimate,
    /// Naïve A/B estimate within the high-allocation link (τ̂(0.95)).
    pub naive_hi: EffectEstimate,
    /// Approximate total treatment effect (hourly regression across
    /// links: 95% treated on link 1 vs 95% control on link 2).
    pub tte: EffectEstimate,
    /// Spillover (hourly regression: control on link 1 vs control on
    /// link 2).
    pub spillover: EffectEstimate,
}

impl MetricEffects {
    /// Did naïve A/B testing get the *direction* wrong?
    pub fn sign_flip(&self) -> bool {
        let naive = 0.5 * (self.naive_lo.relative + self.naive_hi.relative);
        naive.signum() != self.tte.relative.signum()
            && naive.abs() > 1e-12
            && self.tte.relative.abs() > 1e-12
    }
}

/// Global control mean for normalization: the control sessions of the
/// mostly-control link (Appendix B: "all reported values are normalized
/// … against the same global control condition").
pub(crate) fn global_control_mean(data: &Dataset, metric: Metric) -> f64 {
    let cell = data.cell(LinkId::Two, false);
    Dataset::mean(&cell, metric)
}

/// Compute the Figure-5 row for one metric from paired-link data.
pub fn paired_link_effects(data: &Dataset, metric: Metric) -> Result<MetricEffects> {
    let baseline = global_control_mean(data, metric);
    if !baseline.is_finite() || baseline == 0.0 {
        return Err(StatsError::InvalidParameter {
            context: "paired_link_effects: undefined global control mean",
        });
    }
    let l1_t = data.cell(LinkId::One, true);
    let l1_c = data.cell(LinkId::One, false);
    let l2_t = data.cell(LinkId::Two, true);
    let l2_c = data.cell(LinkId::Two, false);

    // Naïve estimates: session-level within each link (standard A/B).
    let naive_hi = unit_effect(metric, &l1_t, &l1_c, baseline)?;
    let naive_lo = unit_effect(metric, &l2_t, &l2_c, baseline)?;
    // TTE and spillover: hourly regression across links.
    let tte = hourly_effect(metric, &l1_t, &l2_c, baseline)?;
    let spillover = hourly_effect(metric, &l1_c, &l2_c, baseline)?;
    Ok(MetricEffects {
        metric,
        naive_lo,
        naive_hi,
        tte,
        spillover,
    })
}

/// Emulated switchback (§5.3): on treatment days use the treated
/// sessions of link 1; on control days use the control sessions of
/// link 2; analyze with the hourly regression.
pub fn switchback_emulation(
    data: &Dataset,
    plan: &SwitchbackPlan,
    metric: Metric,
) -> Result<EffectEstimate> {
    switchback_emulation_with_burn_in(data, plan, metric, 0)
}

/// Switchback emulation with carryover mitigation (§5.2): exclude the
/// first `burn_in_hours` of every interval, so sessions straddling a
/// treatment boundary (whose initial conditions were set by the *other*
/// arm) do not contaminate the estimate.
pub(crate) fn switchback_emulation_with_burn_in(
    data: &Dataset,
    plan: &SwitchbackPlan,
    metric: Metric,
    burn_in_hours: usize,
) -> Result<EffectEstimate> {
    let baseline = global_control_mean(data, metric);
    let fresh = |r: &SessionRecord| {
        // A day is "fresh" after the burn-in, or if the previous day had
        // the same arm (no boundary was crossed).
        if r.hour >= burn_in_hours {
            return true;
        }
        r.day == 0 || plan.treated(r.day - 1) == plan.treated(r.day)
    };
    let treated: Vec<&SessionRecord> = data.filter(|r| {
        r.link == LinkId::One && r.treated && r.day < plan.len() && plan.treated(r.day) && fresh(r)
    });
    let control: Vec<&SessionRecord> = data.filter(|r| {
        r.link == LinkId::Two
            && !r.treated
            && r.day < plan.len()
            && !plan.treated(r.day)
            && fresh(r)
    });
    // Switchback arms live on different days, so difference out the
    // weekend demand shift (§5.3; the event-study emulation deliberately
    // does not, which is the bias the paper demonstrates).
    hourly_effect_weekend_adjusted(metric, &treated, &control, baseline)
}

/// Emulated event study (§5.3): control sessions of link 2 before the
/// switch day, treated sessions of link 1 from it onward.
pub fn event_study_emulation(
    data: &Dataset,
    switch_day: usize,
    metric: Metric,
) -> Result<EffectEstimate> {
    let baseline = global_control_mean(data, metric);
    let treated: Vec<&SessionRecord> =
        data.filter(|r| r.link == LinkId::One && r.treated && r.day >= switch_day);
    let control: Vec<&SessionRecord> =
        data.filter(|r| r.link == LinkId::Two && !r.treated && r.day < switch_day);
    hourly_effect(metric, &treated, &control, baseline)
}

/// A/A false-positive scan on baseline (0% allocation) data: apply a
/// design's labeling to data with no real treatment and count significant
/// results. §5.3 calibrates both alternate designs this way.
pub struct AaScan {
    /// Metrics with a significant (spurious) switchback effect.
    pub switchback_false_positives: Vec<Metric>,
    /// Metrics with a significant (spurious) event-study effect.
    pub event_study_false_positives: Vec<Metric>,
}

/// Run the A/A scan over the given metrics. `data` must come from a run
/// with no treated sessions; pseudo-arms are assigned by day.
pub fn aa_scan(
    data: &Dataset,
    plan: &SwitchbackPlan,
    switch_day: usize,
    metrics: &[Metric],
) -> AaScan {
    let mut sw = Vec::new();
    let mut ev = Vec::new();
    for &m in metrics {
        let baseline = global_control_mean(data, m);
        // Pseudo-switchback: link-1 sessions on plan-treated days vs
        // link-2 sessions on control days (nobody actually treated).
        let t: Vec<&SessionRecord> =
            data.filter(|r| r.link == LinkId::One && r.day < plan.len() && plan.treated(r.day));
        let c: Vec<&SessionRecord> =
            data.filter(|r| r.link == LinkId::Two && r.day < plan.len() && !plan.treated(r.day));
        if let Ok(e) = hourly_effect_weekend_adjusted(m, &t, &c, baseline) {
            if e.significant() {
                sw.push(m);
            }
        }
        // Pseudo-event-study.
        let t: Vec<&SessionRecord> = data.filter(|r| r.link == LinkId::One && r.day >= switch_day);
        let c: Vec<&SessionRecord> = data.filter(|r| r.link == LinkId::Two && r.day < switch_day);
        if let Ok(e) = hourly_effect(m, &t, &c, baseline) {
            if e.significant() {
                ev.push(m);
            }
        }
    }
    AaScan {
        switchback_false_positives: sw,
        event_study_false_positives: ev,
    }
}

/// A *real* (non-emulated) switchback experiment on a single link:
/// alternate the allocation by day per `plan`, then compare treated
/// sessions on treated days against control sessions on control days.
pub struct SwitchbackDesign {
    /// Streaming world configuration.
    pub cfg: StreamConfig,
    /// Day-level plan.
    pub plan: SwitchbackPlan,
    /// Allocation on treated days (paper recommends 0.90–0.99).
    pub p_hi: f64,
    /// Allocation on control days.
    pub p_lo: f64,
    /// Seed.
    pub seed: u64,
}

impl SwitchbackDesign {
    /// Run the experiment and estimate the TTE for `metric`.
    pub fn run_and_estimate(&self, metric: Metric) -> Result<(Dataset, EffectEstimate)> {
        let schedule = AllocationSchedule::switchback(self.plan.as_slice(), self.p_hi, self.p_lo);
        let sim = LinkSim::new(self.cfg.clone(), LinkId::One, schedule, self.seed);
        let (records, _) = sim.run();
        let data = Dataset::new(records);
        let treated: Vec<&SessionRecord> =
            data.filter(|r| r.treated && r.day < self.plan.len() && self.plan.treated(r.day));
        let control: Vec<&SessionRecord> =
            data.filter(|r| !r.treated && r.day < self.plan.len() && !self.plan.treated(r.day));
        let baseline = {
            let vals = Dataset::values(&control, metric);
            expstats::mean(&vals)
        };
        let e = hourly_effect_weekend_adjusted(metric, &treated, &control, baseline)?;
        Ok((data, e))
    }
}

/// One stage of a gradual deployment.
#[derive(Debug, Clone)]
pub struct StageEstimate {
    /// Allocation during the stage.
    pub allocation: f64,
    /// Within-stage naïve ATE (session level, relative units).
    pub ate: EffectEstimate,
}

/// A gradual deployment on one link: allocation rises day by day
/// (`stages[d]` on day `d`), instrumented as §5.1 recommends.
pub struct GradualDeployment {
    /// Streaming world configuration (needs `days >= stages.len()`).
    pub cfg: StreamConfig,
    /// Per-day allocations, e.g. `[0.01, 0.05, 0.25, 0.5, 0.75, 1.0]`.
    pub stages: Vec<f64>,
    /// Seed.
    pub seed: u64,
}

impl GradualDeployment {
    /// Run the deployment; estimate the per-stage ATE for `metric` and
    /// assemble an interference report.
    pub fn run_and_diagnose(
        &self,
        metric: Metric,
    ) -> Result<(Vec<StageEstimate>, causal::sutva::InterferenceReport)> {
        let schedule = AllocationSchedule::gradual(&self.stages);
        let sim = LinkSim::new(self.cfg.clone(), LinkId::One, schedule, self.seed);
        let (records, _) = sim.run();
        let data = Dataset::new(records);
        let mut estimates = Vec::new();
        let mut ates = Vec::new();
        let mut allocs = Vec::new();
        for (day, &p) in self.stages.iter().enumerate() {
            if p <= 0.0 || p >= 1.0 {
                continue; // no contrast within this stage
            }
            let t: Vec<&SessionRecord> = data.filter(|r| r.day == day && r.treated);
            let c: Vec<&SessionRecord> = data.filter(|r| r.day == day && !r.treated);
            if t.len() < 2 || c.len() < 2 {
                continue;
            }
            let baseline = {
                let vals = Dataset::values(&c, metric);
                expstats::mean(&vals)
            };
            let ate = unit_effect(metric, &t, &c, baseline)?;
            ates.push(expstats::DiffEstimate {
                estimate: ate.relative,
                se: ate.se,
                ci: ate.ci95,
                dof: ate.n as f64,
            });
            allocs.push(p);
            estimates.push(StageEstimate { allocation: p, ate });
        }
        let report = causal::sutva::InterferenceReport::from_stages(&allocs, &ates, &[], 0.05)?;
        Ok((estimates, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fast, small paired world (3 days, 200 Mb/s) in the default
    /// congestion regime.
    fn fast_cfg(days: usize) -> StreamConfig {
        StreamConfig {
            days,
            capacity_bps: 200e6,
            peak_arrivals_per_s: 0.24 * 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn paired_design_produces_all_four_cells() {
        let design = PairedLinkDesign::paper(fast_cfg(2), 3);
        let out = design.run();
        assert!(out.data.cell(LinkId::One, true).len() > 100);
        assert!(out.data.cell(LinkId::One, false).len() > 5);
        assert!(out.data.cell(LinkId::Two, true).len() > 5);
        assert!(out.data.cell(LinkId::Two, false).len() > 100);
    }

    #[test]
    fn capping_shows_interference_signature() {
        // The headline §4 result at small scale: the TTE for throughput
        // is clearly more positive than the naïve estimates, and video
        // bitrate drops by roughly the direct capping amount.
        let design = PairedLinkDesign::paper(fast_cfg(3), 11);
        let out = design.run();
        let tput = paired_link_effects(&out.data, Metric::Throughput).unwrap();
        assert!(
            tput.tte.relative > tput.naive_hi.relative.min(tput.naive_lo.relative),
            "TTE {} vs naive {}/{}",
            tput.tte.relative,
            tput.naive_lo.relative,
            tput.naive_hi.relative
        );
        let bitrate = paired_link_effects(&out.data, Metric::Bitrate).unwrap();
        assert!(
            bitrate.tte.relative < -0.15,
            "bitrate TTE {}",
            bitrate.tte.relative
        );
        // Min RTT improves (negative) under global capping.
        let rtt = paired_link_effects(&out.data, Metric::MinRtt).unwrap();
        assert!(rtt.tte.relative < 0.05, "min RTT TTE {}", rtt.tte.relative);
    }

    #[test]
    fn switchback_emulation_close_to_tte() {
        let design = PairedLinkDesign::paper(fast_cfg(4), 5);
        let out = design.run();
        let tte = paired_link_effects(&out.data, Metric::Bitrate).unwrap().tte;
        let plan = SwitchbackPlan::alternating(4, true);
        let sw = switchback_emulation(&out.data, &plan, Metric::Bitrate).unwrap();
        // Both should see the large direct capping effect.
        assert!(
            (sw.relative - tte.relative).abs() < 0.15,
            "switchback {} vs tte {}",
            sw.relative,
            tte.relative
        );
    }

    #[test]
    fn burn_in_excludes_boundary_hours_but_agrees_on_strong_effects() {
        let design = PairedLinkDesign::paper(fast_cfg(4), 5);
        let out = design.run();
        let plan = SwitchbackPlan::alternating(4, true);
        let plain = switchback_emulation(&out.data, &plan, Metric::Bitrate).unwrap();
        let burned =
            switchback_emulation_with_burn_in(&out.data, &plan, Metric::Bitrate, 3).unwrap();
        // Fewer cells used, same conclusion.
        assert!(burned.n <= plain.n);
        assert!((burned.relative - plain.relative).abs() < 0.1);
        assert!(burned.relative < -0.15);
    }

    #[test]
    fn event_study_emulation_runs() {
        let design = PairedLinkDesign::paper(fast_cfg(4), 7);
        let out = design.run();
        let ev = event_study_emulation(&out.data, 2, Metric::Bitrate).unwrap();
        assert!(
            ev.relative < -0.1,
            "event study misses capping? {}",
            ev.relative
        );
    }

    #[test]
    fn aa_scan_on_null_data_mostly_clean_switchback() {
        // No treatment anywhere: the switchback labeling should produce
        // (almost) no significant effects.
        let paired = PairedSim::with_paper_biases(
            fast_cfg(4),
            [AllocationSchedule::none(), AllocationSchedule::none()],
            13,
        );
        let data = Dataset::new(paired.run());
        let plan = SwitchbackPlan::alternating(4, true);
        let metrics = [Metric::Throughput, Metric::Bitrate, Metric::PlayDelay];
        let scan = aa_scan(&data, &plan, 2, &metrics);
        assert!(
            scan.switchback_false_positives.len() <= 1,
            "switchback FPs: {:?}",
            scan.switchback_false_positives
        );
    }

    #[test]
    fn real_switchback_detects_capping() {
        let design = SwitchbackDesign {
            cfg: fast_cfg(4),
            plan: SwitchbackPlan::alternating(4, true),
            p_hi: 0.95,
            p_lo: 0.05,
            seed: 17,
        };
        let (_, est) = design.run_and_estimate(Metric::Bitrate).unwrap();
        assert!(
            est.relative < -0.15,
            "switchback bitrate effect {}",
            est.relative
        );
    }

    #[test]
    fn gradual_deployment_reports_stages() {
        let mut cfg = fast_cfg(5);
        cfg.days = 5;
        let dep = GradualDeployment {
            cfg,
            stages: vec![0.05, 0.25, 0.5, 0.75, 0.95],
            seed: 19,
        };
        let (stages, _report) = dep.run_and_diagnose(Metric::Bitrate).unwrap();
        assert!(stages.len() >= 3, "stages {}", stages.len());
        // Every stage sees the direct capping effect on bitrate.
        for s in &stages {
            assert!(
                s.ate.relative < -0.05,
                "stage {} ate {}",
                s.allocation,
                s.ate.relative
            );
        }
    }
}
