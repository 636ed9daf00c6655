//! Allocation schedules: how the treated fraction varies over time and
//! across links — the knob that distinguishes baseline weeks, A/B tests,
//! paired-link experiments, switchbacks and event studies.

use dessim::{require, ConfigError};

/// A per-link schedule of treatment allocations.
#[derive(Debug, Clone)]
pub enum AllocationSchedule {
    /// A constant Bernoulli allocation for the whole run.
    Constant(f64),
    /// One allocation per simulation day (switchbacks, event studies);
    /// days beyond the list reuse the last entry.
    PerDay(Vec<f64>),
}

impl AllocationSchedule {
    /// No treatment at all (baseline / A-A weeks).
    pub fn none() -> AllocationSchedule {
        AllocationSchedule::Constant(0.0)
    }

    /// Check the schedule is usable: allocations must be finite
    /// probabilities, and a `PerDay` schedule must cover at least one
    /// day. An empty `PerDay` used to silently yield allocation 0.0
    /// forever — almost always a bug (a switchback plan that was never
    /// filled in), so the simulators reject it at construction.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        match self {
            AllocationSchedule::Constant(p) => require(ok(*p), "Constant"),
            AllocationSchedule::PerDay(ps) => {
                require(!ps.is_empty() && ps.iter().all(|&p| ok(p)), "PerDay")
            }
        }
    }

    /// Allocation in force on `day`.
    pub fn allocation(&self, day: usize) -> f64 {
        match self {
            AllocationSchedule::Constant(p) => *p,
            AllocationSchedule::PerDay(ps) => {
                debug_assert!(!ps.is_empty(), "empty per-day schedule (see validate())");
                if ps.is_empty() {
                    0.0
                } else {
                    ps[day.min(ps.len() - 1)]
                }
            }
        }
    }

    /// Switchback schedule: treated days get allocation `p_hi`, control
    /// days `p_lo` (the paper recommends 90–99% rather than 100% so
    /// spillover stays estimable).
    pub fn switchback(plan: &[bool], p_hi: f64, p_lo: f64) -> AllocationSchedule {
        assert!(
            !plan.is_empty(),
            "switchback plan must cover at least one day"
        );
        AllocationSchedule::PerDay(plan.iter().map(|&t| if t { p_hi } else { p_lo }).collect())
    }

    /// Gradual deployment: one allocation per stage, one stage per day.
    pub fn gradual(stages: &[f64]) -> AllocationSchedule {
        assert!(
            !stages.is_empty(),
            "gradual deployment needs at least one stage"
        );
        AllocationSchedule::PerDay(stages.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_day() {
        let s = AllocationSchedule::Constant(0.95);
        assert_eq!(s.allocation(0), 0.95);
        assert_eq!(s.allocation(100), 0.95);
    }

    #[test]
    fn per_day_clamps_to_last() {
        let s = AllocationSchedule::PerDay(vec![0.1, 0.5]);
        assert_eq!(s.allocation(0), 0.1);
        assert_eq!(s.allocation(1), 0.5);
        assert_eq!(s.allocation(9), 0.5);
    }

    #[test]
    fn switchback_maps_plan() {
        let s = AllocationSchedule::switchback(&[true, false, true], 0.95, 0.05);
        assert_eq!(s.allocation(0), 0.95);
        assert_eq!(s.allocation(1), 0.05);
        assert_eq!(s.allocation(2), 0.95);
    }

    #[test]
    fn none_is_zero_everywhere() {
        let s = AllocationSchedule::none();
        assert_eq!(s.allocation(3), 0.0);
    }

    #[test]
    fn validate_accepts_working_schedules() {
        assert!(AllocationSchedule::none().validate().is_ok());
        assert!(AllocationSchedule::Constant(0.95).validate().is_ok());
        assert!(AllocationSchedule::PerDay(vec![0.1, 0.9])
            .validate()
            .is_ok());
        assert!(AllocationSchedule::switchback(&[true, false], 0.95, 0.05)
            .validate()
            .is_ok());
    }

    /// Regression: `PerDay(vec![])` used to silently allocate 0.0 on
    /// every day; it must now fail validation (and the simulators panic
    /// at construction — see `sim::tests::empty_per_day_schedule_rejected`).
    #[test]
    fn validate_rejects_empty_and_out_of_range() {
        let constant = Err(ConfigError { field: "Constant" });
        let per_day = Err(ConfigError { field: "PerDay" });
        assert_eq!(AllocationSchedule::PerDay(vec![]).validate(), per_day);
        assert_eq!(AllocationSchedule::Constant(1.5).validate(), constant);
        assert_eq!(AllocationSchedule::Constant(f64::NAN).validate(), constant);
        assert_eq!(
            AllocationSchedule::PerDay(vec![0.5, -0.1]).validate(),
            per_day
        );
    }

    #[test]
    #[should_panic(expected = "switchback plan must cover at least one day")]
    fn empty_switchback_plan_panics() {
        let _ = AllocationSchedule::switchback(&[], 0.95, 0.05);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_gradual_panics() {
        let _ = AllocationSchedule::gradual(&[]);
    }
}
