//! Data-quality guardrails: turn a fleet summary's telemetry ledger into
//! explicit flags on the estimates computed from it.
//!
//! The failure mode this defends against is *silent* degradation: a
//! sweep that lost links, or a record stream thinned by
//! congestion-correlated drop, still produces perfectly plausible-looking
//! point estimates — they're just computed on a selected sample. Each
//! check here is cheap (it reads only the per-link
//! [`TelemetryStats`](streamsim::telemetry::TelemetryStats) and the
//! [`DegradedReport`](crate::fleet::DegradedReport), never the records)
//! and produces a [`QualityFlag`] that rides on
//! [`EffectEstimate`](crate::EffectEstimate) / [`FleetEffect`](crate::FleetEffect)
//! and lands in the figure harness's warnings section:
//!
//! * **sample-ratio mismatch** — a chi-square test of delivered arm
//!   counts against the allocated treated share, per link (see
//!   [`expstats::quality`]); fires when loss is treatment-correlated;
//! * **missingness differential** — the per-arm loss fractions
//!   themselves, flagged when the arms diverge (MCAR loss thins both
//!   arms equally; MNAR loss doesn't);
//! * **duplication differential** — same comparison for duplicate-copy
//!   rates;
//! * **degraded fleet** — any quarantined links at all.

use expstats::quality::{sample_ratio_mismatch, SrmCell, SrmTest};

use crate::fleet::FleetSummary;

/// SRM p-value below which [`QualityFlag::SampleRatioMismatch`] is
/// raised. Stringent by convention: the test should never fire on
/// healthy data, so even weak evidence means the pipeline is suspect.
pub const SRM_P_THRESHOLD: f64 = 1e-3;

/// Absolute per-arm differential (in loss or duplication fraction)
/// above which the corresponding flag is raised: half a percent of one
/// arm's records going missing *more than the other's* is already
/// enough to move tail metrics.
pub(crate) const DIFFERENTIAL_THRESHOLD: f64 = 0.005;

/// One data-quality problem detected on the pipeline feeding an
/// estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum QualityFlag {
    /// Delivered arm counts are inconsistent with the allocation.
    SampleRatioMismatch {
        /// Upper-tail p-value of the chi-square SRM test.
        p_value: f64,
        /// Pooled delivered treated share.
        observed_share: f64,
        /// Pooled allocated treated share.
        expected_share: f64,
    },
    /// The arms lost records at different rates.
    MissingnessDifferential {
        /// Control-arm loss fraction.
        control: f64,
        /// Treated-arm loss fraction.
        treated: f64,
    },
    /// The arms were duplicated at different rates.
    DuplicationDifferential {
        /// Control-arm duplicate fraction.
        control: f64,
        /// Treated-arm duplicate fraction.
        treated: f64,
    },
    /// The sweep quarantined links; estimates describe the survivors.
    DegradedFleet {
        /// Links lost.
        quarantined: usize,
        /// Links the fleet started with.
        total: usize,
    },
}

impl std::fmt::Display for QualityFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualityFlag::SampleRatioMismatch {
                p_value,
                observed_share,
                expected_share,
            } => write!(
                f,
                "sample-ratio mismatch (p={p_value:.2e}): delivered treated share {:.2}% vs allocated {:.2}%",
                100.0 * observed_share,
                100.0 * expected_share
            ),
            QualityFlag::MissingnessDifferential { control, treated } => write!(
                f,
                "arm-differential missingness: control loses {:.2}%, treated {:.2}%",
                100.0 * control,
                100.0 * treated
            ),
            QualityFlag::DuplicationDifferential { control, treated } => write!(
                f,
                "arm-differential duplication: control {:.2}%, treated {:.2}%",
                100.0 * control,
                100.0 * treated
            ),
            QualityFlag::DegradedFleet { quarantined, total } => write!(
                f,
                "degraded fleet: {quarantined}/{total} links quarantined; estimates cover survivors only"
            ),
        }
    }
}

/// Data-quality assessment of one fleet summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DataQuality {
    /// The per-link SRM test, when at least one link had a
    /// non-degenerate allocation (user-level designs qualify; a pure
    /// 0/1 cluster rollout has no within-link ratio to test).
    pub srm: Option<SrmTest>,
    /// Fleet-wide per-arm loss fraction `[control, treated]`.
    pub missingness: [f64; 2],
    /// Fleet-wide per-arm duplicate fraction `[control, treated]`.
    pub duplication: [f64; 2],
    /// Overall fraction of sent records never delivered.
    pub loss_fraction: f64,
    /// Links quarantined by the sweep.
    pub quarantined: usize,
    /// Flags raised by the thresholds above, in a fixed order (SRM,
    /// missingness, duplication, degraded).
    pub flags: Vec<QualityFlag>,
}

/// Assess a fleet summary's data quality from its telemetry ledger and
/// degraded report.
///
/// The SRM test uses one cell per surviving link: delivered arm counts
/// against the link's *expected allocation* (mean scheduled treated
/// share over the run). Summing per-link 1-df terms keeps the test
/// valid under cluster designs where different links run different
/// allocations; when every link shares one allocation (a fleet-wide
/// user-level design) the cells are pooled into a single 1-df test,
/// which is the same null but far more powerful against the common
/// alternative of a fleet-wide skew.
pub fn assess_fleet_quality(summary: &FleetSummary) -> DataQuality {
    let mut cells: Vec<SrmCell> = summary
        .links
        .iter()
        .map(|l| SrmCell {
            control: l.telemetry.delivered[0],
            treated: l.telemetry.delivered[1],
            expected_treated_share: l.expected_allocation,
        })
        .collect();
    let homogeneous = cells
        .windows(2)
        .all(|w| w[0].expected_treated_share == w[1].expected_treated_share);
    if homogeneous && cells.len() > 1 {
        cells = vec![SrmCell {
            control: cells.iter().map(|c| c.control).sum(),
            treated: cells.iter().map(|c| c.treated).sum(),
            expected_treated_share: cells[0].expected_treated_share,
        }];
    }
    let srm = sample_ratio_mismatch(&cells).ok();
    let t = &summary.telemetry;
    let missingness = [t.missing_fraction(0), t.missing_fraction(1)];
    let duplication = [t.duplicate_fraction(0), t.duplicate_fraction(1)];
    let quarantined = summary.degraded.len();
    let total = summary.links.len() + quarantined;

    let mut flags = Vec::new();
    if let Some(srm) = &srm {
        if srm.fires(SRM_P_THRESHOLD) {
            flags.push(QualityFlag::SampleRatioMismatch {
                p_value: srm.p_value,
                observed_share: srm.observed_treated_share,
                expected_share: srm.expected_treated_share,
            });
        }
    }
    if (missingness[0] - missingness[1]).abs() > DIFFERENTIAL_THRESHOLD {
        flags.push(QualityFlag::MissingnessDifferential {
            control: missingness[0],
            treated: missingness[1],
        });
    }
    if (duplication[0] - duplication[1]).abs() > DIFFERENTIAL_THRESHOLD {
        flags.push(QualityFlag::DuplicationDifferential {
            control: duplication[0],
            treated: duplication[1],
        });
    }
    if quarantined > 0 {
        flags.push(QualityFlag::DegradedFleet { quarantined, total });
    }
    DataQuality {
        srm,
        missingness,
        duplication,
        loss_fraction: t.loss_fraction(),
        quarantined,
        flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetLinkSummary, FleetSummary, DEFAULT_SKETCH_CAP};
    use streamsim::config::StreamConfig;
    use streamsim::fleet::{run_fleet_link, FleetDesign, FleetSim, LinkPopulation};
    use streamsim::telemetry::TelemetryFaults;

    fn small_base() -> StreamConfig {
        StreamConfig {
            days: 1,
            capacity_bps: 30e6,
            peak_arrivals_per_s: 0.24 * 0.03,
            mean_watch_s: 1500.0,
            ..Default::default()
        }
    }

    fn summarize(faults: Option<&TelemetryFaults>, n_links: usize) -> FleetSummary {
        summarize_base(small_base(), faults, n_links)
    }

    fn summarize_base(
        base: StreamConfig,
        faults: Option<&TelemetryFaults>,
        n_links: usize,
    ) -> FleetSummary {
        let specs = LinkPopulation::moderate(base.clone(), n_links, 7).sample();
        let mut sim = FleetSim::new(&base, &specs, &FleetDesign::UserLevel { p: 0.5 }, 3);
        if let Some(f) = faults {
            sim = sim.with_faults(f);
        }
        let (jobs, pairs) = sim.into_parts();
        let mut summary = FleetSummary::new(DEFAULT_SKETCH_CAP);
        for job in &jobs {
            summary.fold(FleetLinkSummary::from_run(
                &run_fleet_link(job),
                DEFAULT_SKETCH_CAP,
            ));
        }
        summary.finalize(pairs);
        summary
    }

    #[test]
    fn clean_fleet_raises_no_flags() {
        let q = assess_fleet_quality(&summarize(None, 4));
        assert!(q.flags.is_empty(), "flags: {:?}", q.flags);
        assert_eq!(q.loss_fraction, 0.0);
        assert_eq!(q.missingness, [0.0, 0.0]);
        let srm = q.srm.expect("user-level design has testable cells");
        assert!(!srm.fires(SRM_P_THRESHOLD), "p = {}", srm.p_value);
    }

    #[test]
    fn mcar_loss_thins_without_flags() {
        // Arm-blind loss: big loss fraction, but no differential and no
        // SRM — exactly the "widens CIs but doesn't bias" regime.
        let faults = TelemetryFaults {
            drop_mcar: 0.2,
            ..TelemetryFaults::none(5)
        };
        let q = assess_fleet_quality(&summarize(Some(&faults), 4));
        assert!(q.loss_fraction > 0.15);
        assert!(
            !q.flags
                .iter()
                .any(|f| matches!(f, QualityFlag::SampleRatioMismatch { .. })),
            "MCAR must not trip SRM: {:?}",
            q.flags
        );
    }

    #[test]
    fn congestion_correlated_loss_fires_srm() {
        // Heavy MNAR drop on an *uncongested* user-level fleet: control
        // sessions stream fast (severity ≈ 0) while capped treated
        // sessions sit below the slow-throughput threshold, so their
        // records are preferentially lost and the arm ratio skews. (On a
        // congested link both arms rebuffer and the differential washes
        // out — the bias mechanism is the treatment-coupled loss, not
        // congestion per se.)
        let base = StreamConfig {
            capacity_bps: 200e6,
            ..small_base()
        };
        let faults = TelemetryFaults {
            drop_congested: 0.9,
            ..TelemetryFaults::none(5)
        };
        let q = assess_fleet_quality(&summarize_base(base, Some(&faults), 6));
        assert!(q.loss_fraction > 0.02, "loss {}", q.loss_fraction);
        let srm = q.srm.expect("testable");
        assert!(
            srm.fires(SRM_P_THRESHOLD),
            "chi2 {} df {} p {} (loss c {:.3} t {:.3})",
            srm.chi2,
            srm.df,
            srm.p_value,
            q.missingness[0],
            q.missingness[1]
        );
        assert!(q
            .flags
            .iter()
            .any(|f| matches!(f, QualityFlag::SampleRatioMismatch { .. })));
        assert!(q
            .flags
            .iter()
            .any(|f| matches!(f, QualityFlag::MissingnessDifferential { .. })));
    }

    #[test]
    fn quarantine_raises_degraded_flag() {
        let mut summary = summarize(None, 4);
        summary.fold_quarantined(99, "boom".into());
        summary.finalize(Vec::new());
        let q = assess_fleet_quality(&summary);
        assert_eq!(q.quarantined, 1);
        assert!(q.flags.iter().any(|f| matches!(
            f,
            QualityFlag::DegradedFleet {
                quarantined: 1,
                total: 5
            }
        )));
    }

    #[test]
    fn flags_render_human_readable() {
        let f = QualityFlag::SampleRatioMismatch {
            p_value: 1.3e-7,
            observed_share: 0.4812,
            expected_share: 0.5,
        };
        let s = format!("{f}");
        assert!(s.contains("sample-ratio mismatch"), "{s}");
        assert!(s.contains("48.12%"), "{s}");
        let d = format!(
            "{}",
            QualityFlag::DegradedFleet {
                quarantined: 3,
                total: 200
            }
        );
        assert!(d.contains("3/200"), "{d}");
    }
}
