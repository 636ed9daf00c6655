//! The Appendix-B analysis pipeline.
//!
//! Two estimators, exactly as the paper uses them:
//!
//! * **Unit-level** ([`unit_effect`]): Welch difference in means over
//!   sessions — "the standard account-level standard errors" used for
//!   naïve A/B estimates within a link.
//! * **Hourly-regression** ([`hourly_effect`]): outcomes aggregated to
//!   `Z_t(A)` per (day, hour, arm); OLS of `Z` on a treatment indicator
//!   plus hour-of-day fixed effects; Newey–West lag-2 standard errors.
//!   This deliberately worst-case treatment of within-hour correlation is
//!   what the paper uses for TTE and spillover in the paired design.

use expstats::dist::t_critical;
use expstats::ols::{DesignBuilder, Ols};
use expstats::{diff_in_means, CovEstimator, Result, StatsError};
use streamsim::session::{Metric, SessionRecord};

/// Newey–West lag used throughout (the paper: "a lag of two hours").
pub(crate) const NEWEY_WEST_LAG: usize = 2;

/// An effect estimate normalized to the global control mean.
#[derive(Debug, Clone)]
pub struct EffectEstimate {
    /// Metric the effect concerns.
    pub metric: Metric,
    /// Absolute effect (metric units).
    pub absolute: f64,
    /// Effect relative to the global control mean.
    pub relative: f64,
    /// 95% confidence interval for the relative effect.
    pub ci95: (f64, f64),
    /// Standard error (relative units).
    pub se: f64,
    /// Observations (sessions or hourly cells) used.
    pub n: usize,
    /// Whether a weekend fixed effect was actually included in the
    /// regression. `hourly_effect_weekend_adjusted` silently drops the
    /// dummy when it is degenerate or collinear with the arm (treated
    /// days ≡ weekend days) — this flag lets callers tell an adjusted
    /// estimate from a fallback to the plain contrast.
    pub weekend_adjusted: bool,
}

impl EffectEstimate {
    /// Whether the CI excludes zero.
    pub fn significant(&self) -> bool {
        self.ci95.0 > 0.0 || self.ci95.1 < 0.0
    }
}

/// Unit-level (session-level) difference in means, normalized by
/// `baseline` (the global control mean).
pub fn unit_effect(
    metric: Metric,
    treated: &[&SessionRecord],
    control: &[&SessionRecord],
    baseline: f64,
) -> Result<EffectEstimate> {
    let t = crate::dataset::Dataset::values(treated, metric);
    let c = crate::dataset::Dataset::values(control, metric);
    let d = diff_in_means(&t, &c, 0.95)?;
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "unit_effect: bad baseline",
        });
    }
    let r = d.scaled(1.0 / baseline);
    Ok(EffectEstimate {
        metric,
        absolute: d.estimate,
        relative: r.estimate,
        ci95: r.ci,
        se: r.se,
        n: t.len() + c.len(),
        weekend_adjusted: false,
    })
}

/// Hourly-regression effect (Appendix B): aggregate each arm's sessions
/// to per-(day, hour) means, regress on the arm indicator with
/// hour-of-day fixed effects, and report the treatment coefficient with
/// Newey–West lag-2 standard errors, normalized by `baseline`.
pub fn hourly_effect(
    metric: Metric,
    treated: &[&SessionRecord],
    control: &[&SessionRecord],
    baseline: f64,
) -> Result<EffectEstimate> {
    hourly_effect_impl(metric, treated, control, baseline, false)
}

/// [`hourly_effect`] with a weekend fixed effect added to the
/// regression.
///
/// Comparisons whose arms live on *different days* (switchbacks and
/// their A/A calibrations) confound the treatment with day-of-week
/// demand shifts — e.g. an alternating plan over the paper's Wed→Sat
/// run puts the boosted-demand Saturday entirely in one arm. The
/// weekend dummy differences that shift out. Falls back to the plain
/// regression when the dummy is degenerate (all cells on the same kind
/// of day) or collinear with the arm (treated days ≡ weekend days).
pub(crate) fn hourly_effect_weekend_adjusted(
    metric: Metric,
    treated: &[&SessionRecord],
    control: &[&SessionRecord],
    baseline: f64,
) -> Result<EffectEstimate> {
    hourly_effect_impl(metric, treated, control, baseline, true)
}

fn hourly_effect_impl(
    metric: Metric,
    treated: &[&SessionRecord],
    control: &[&SessionRecord],
    baseline: f64,
    weekend_fe: bool,
) -> Result<EffectEstimate> {
    if baseline == 0.0 || !baseline.is_finite() {
        return Err(StatsError::InvalidParameter {
            context: "hourly_effect: bad baseline",
        });
    }
    let cells_t = crate::dataset::Dataset::hourly_cells(treated, metric);
    let cells_c = crate::dataset::Dataset::hourly_cells(control, metric);
    if cells_t.len() < 3 || cells_c.len() < 3 {
        return Err(StatsError::TooFewObservations {
            got: cells_t.len().min(cells_c.len()),
            need: 3,
        });
    }

    // Interleave both arms in time order so the HAC window spans
    // neighbouring hours. Row: (day, hour, arm, weekend, z).
    let mut rows: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
    for c in &cells_t {
        rows.push((c.day, c.hour, 1.0, c.weekend as u8 as f64, c.mean));
    }
    for c in &cells_c {
        rows.push((c.day, c.hour, 0.0, c.weekend as u8 as f64, c.mean));
    }
    rows.sort_by_key(|&(d, h, a, _, _)| (d, h, a as i64));

    let n = rows.len();
    let y: Vec<f64> = rows.iter().map(|r| r.4).collect();
    let arm: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let hours: Vec<usize> = rows.iter().map(|r| r.1).collect();
    let weekend: Vec<f64> = rows.iter().map(|r| r.3).collect();
    // The dummy only identifies when both kinds of day are present and
    // it is not an exact (anti-)copy of the arm indicator (treated days
    // ≡ weekend days) — checked explicitly, rather than trusting the
    // Cholesky pivot to detect the singular Gram matrix exactly in
    // floating point.
    let varies = weekend.iter().any(|&w| w != weekend[0]);
    let copies_arm = weekend.iter().zip(&arm).all(|(&w, &a)| w == a)
        || weekend.iter().zip(&arm).all(|(&w, &a)| w == 1.0 - a);
    let use_weekend = weekend_fe && varies && !copies_arm;

    let design = |with_weekend: bool| -> Result<_> {
        let mut b = DesignBuilder::new().intercept(n)?.column(&arm)?;
        if with_weekend {
            b = b.column(&weekend)?;
        }
        b.dummies(&hours)?.build()
    };
    let (fit, weekend_adjusted) = match Ols::fit(design(use_weekend)?, &y) {
        Ok(fit) => (fit, use_weekend),
        // Treated days ≡ weekend days makes the dummy collinear with the
        // arm; the adjustment is impossible, report the plain contrast
        // (and record that via `weekend_adjusted: false`).
        Err(StatsError::RankDeficient) if use_weekend => (Ols::fit(design(false)?, &y)?, false),
        Err(e) => return Err(e),
    };
    let est = fit.coef[1];
    let se = fit.std_errors(CovEstimator::NeweyWest {
        lag: NEWEY_WEST_LAG,
    })?[1];
    let tcrit = t_critical(0.95, fit.dof());
    Ok(EffectEstimate {
        metric,
        absolute: est,
        relative: est / baseline,
        ci95: ((est - tcrit * se) / baseline, (est + tcrit * se) / baseline),
        se: se / baseline.abs(),
        n,
        weekend_adjusted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim::session::LinkId;

    fn rec(treated: bool, day: usize, hour: usize, tput: f64) -> SessionRecord {
        SessionRecord {
            link: LinkId::One,
            day,
            hour,
            weekend: false,
            arrival_s: (day * 86_400 + hour * 3600) as f64,
            treated,
            throughput_bps: tput,
            min_rtt_s: 0.02,
            play_delay_s: 1.0,
            bitrate_bps: 3e6,
            quality: 70.0,
            rebuffer_count: 0,
            rebuffered: false,
            cancelled: false,
            bytes: 1e8,
            retx_bytes: 1e5,
            switches: 1,
            duration_s: 100.0,
        }
    }

    /// Build sessions with hour-of-day structure plus a constant
    /// treatment lift.
    fn structured(lift: f64) -> (Vec<SessionRecord>, Vec<SessionRecord>) {
        let mut t = Vec::new();
        let mut c = Vec::new();
        for day in 0..5 {
            for hour in 0..24 {
                // Strong diurnal cycle common to both arms.
                let base = 100.0 + 30.0 * ((hour as f64) * 0.26).sin();
                for k in 0..3 {
                    let jitter = (day * 7 + hour + k) % 5;
                    let noise = jitter as f64 * 0.5 - 1.0;
                    c.push(rec(false, day, hour, base + noise));
                    t.push(rec(true, day, hour, base + lift + noise));
                }
            }
        }
        (t, c)
    }

    #[test]
    fn hourly_effect_recovers_constant_lift() {
        let (t, c) = structured(10.0);
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!((e.absolute - 10.0).abs() < 0.5, "abs {}", e.absolute);
        assert!((e.relative - 0.10).abs() < 0.005, "rel {}", e.relative);
        assert!(e.significant());
    }

    #[test]
    fn hourly_effect_null_is_insignificant() {
        let (t, c) = structured(0.0);
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!(e.relative.abs() < 0.02, "rel {}", e.relative);
        assert!(!e.significant(), "{:?}", e.ci95);
    }

    #[test]
    fn fixed_effects_absorb_diurnal_cycle() {
        // Treated sessions concentrated in *good* hours must not inflate
        // the estimate once hour fixed effects are in (they would in a
        // raw difference of means).
        let mut t = Vec::new();
        let mut c = Vec::new();
        for day in 0..5 {
            for hour in 0..24 {
                let base = if (8..16).contains(&hour) {
                    200.0
                } else {
                    100.0
                };
                let nt = if (8..16).contains(&hour) { 4 } else { 1 };
                for k in 0..4 {
                    c.push(rec(false, day, hour, base + k as f64));
                }
                for k in 0..nt {
                    t.push(rec(true, day, hour, base + 5.0 + k as f64));
                }
            }
        }
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        // True lift is 5 (plus small composition noise), not ~60.
        assert!(
            (e.absolute - 5.0).abs() < 2.0,
            "hour FE should absorb diurnal composition: {}",
            e.absolute
        );
    }

    #[test]
    fn unit_effect_matches_simple_difference() {
        let t: Vec<SessionRecord> = (0..50)
            .map(|i| rec(true, 0, 0, 110.0 + (i % 3) as f64))
            .collect();
        let c: Vec<SessionRecord> = (0..50)
            .map(|i| rec(false, 0, 0, 100.0 + (i % 3) as f64))
            .collect();
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = unit_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!((e.relative - 0.10).abs() < 1e-9);
        assert!(e.significant());
    }

    #[test]
    fn hourly_ci_wider_when_session_noise_dominates() {
        // Figure 13's point: aggregating to hours throws away the session
        // sample size, so when independent session noise dominates (no
        // common hourly shocks), the hourly-regression CI is much wider
        // than the session-level CI.
        let mut t = Vec::new();
        let mut c = Vec::new();
        let mut state = 12345u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 100.0 - 5.0 // ±5
        };
        for day in 0..5 {
            for hour in 0..24 {
                for _ in 0..30 {
                    c.push(rec(false, day, hour, 100.0 + noise()));
                    t.push(rec(true, day, hour, 102.0 + noise()));
                }
            }
        }
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let hourly = hourly_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        let unit = unit_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        let w_h = hourly.ci95.1 - hourly.ci95.0;
        let w_u = unit.ci95.1 - unit.ci95.0;
        assert!(w_h > w_u, "hourly {w_h} should exceed unit {w_u}");
        // Both still cover the truth (+2%).
        assert!(hourly.ci95.0 <= 0.02 && 0.02 <= hourly.ci95.1);
        assert!(unit.ci95.0 <= 0.02 && 0.02 <= unit.ci95.1);
    }

    /// Sessions with hour structure where treated/control cells can be
    /// placed on arbitrary (day, weekend) combinations.
    fn rec_weekend(
        treated: bool,
        day: usize,
        hour: usize,
        weekend: bool,
        tput: f64,
    ) -> SessionRecord {
        SessionRecord {
            weekend,
            ..rec(treated, day, hour, tput)
        }
    }

    #[test]
    fn weekend_adjusted_flag_reports_what_the_regression_did() {
        // Both arms observed on both kinds of day: the dummy identifies
        // and the flag is set.
        let mut t = Vec::new();
        let mut c = Vec::new();
        for day in 0..4 {
            let weekend = day >= 2;
            let boost = if weekend { 20.0 } else { 0.0 };
            for hour in 0..24 {
                for k in 0..2 {
                    let noise = ((day + hour + k) % 3) as f64;
                    c.push(rec_weekend(
                        false,
                        day,
                        hour,
                        weekend,
                        100.0 + boost + noise,
                    ));
                    t.push(rec_weekend(true, day, hour, weekend, 110.0 + boost + noise));
                }
            }
        }
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect_weekend_adjusted(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!(e.weekend_adjusted, "dummy should be included");
        assert!((e.absolute - 10.0).abs() < 1.0, "abs {}", e.absolute);

        // Treated days ≡ weekend days: the dummy copies the arm, the
        // adjustment must fall back and say so.
        let mut t = Vec::new();
        let mut c = Vec::new();
        for day in 0..4 {
            let weekend = day >= 2;
            for hour in 0..24 {
                for k in 0..2 {
                    let noise = ((day + hour + k) % 3) as f64;
                    if weekend {
                        t.push(rec_weekend(true, day, hour, true, 110.0 + noise));
                    } else {
                        c.push(rec_weekend(false, day, hour, false, 100.0 + noise));
                    }
                }
            }
        }
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect_weekend_adjusted(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!(!e.weekend_adjusted, "collinear dummy must be dropped");

        // The plain hourly regression never claims adjustment.
        let (t, c) = structured(5.0);
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        let e = hourly_effect(Metric::Throughput, &tr, &cr, 100.0).unwrap();
        assert!(!e.weekend_adjusted);
    }

    #[test]
    fn rejects_bad_inputs() {
        let (t, c) = structured(1.0);
        let tr: Vec<&SessionRecord> = t.iter().collect();
        let cr: Vec<&SessionRecord> = c.iter().collect();
        assert!(hourly_effect(Metric::Throughput, &tr, &cr, 0.0).is_err());
        assert!(hourly_effect(Metric::Throughput, &tr[..1], &cr, 1.0).is_err());
    }
}
