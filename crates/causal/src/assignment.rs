//! Treatment assignment mechanisms.
//!
//! §2 of the paper: "In an A/B test, we randomly assign units to
//! treatment independently with probability p". Beyond Bernoulli
//! assignment this module provides complete randomization (exactly k
//! treated) and the switchback interval assignment of §5.2.

use expstats::rng::SplitMix64;

/// A realized assignment vector: `true` = treatment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    arms: Vec<bool>,
}

impl Assignment {
    /// Wrap an explicit assignment vector.
    pub fn from_vec(arms: Vec<bool>) -> Assignment {
        Assignment { arms }
    }

    /// Independent Bernoulli(p) assignment over `n` units.
    pub fn bernoulli(n: usize, p: f64, seed: u64) -> Assignment {
        assert!((0.0..=1.0).contains(&p), "allocation must be in [0,1]");
        let mut rng = SplitMix64::new(seed);
        Assignment {
            arms: (0..n).map(|_| rng.next_f64() < p).collect(),
        }
    }

    /// Complete randomization: exactly `k` of `n` units treated
    /// (Fisher–Yates partial shuffle).
    pub fn complete(n: usize, k: usize, seed: u64) -> Assignment {
        assert!(k <= n, "cannot treat more units than exist");
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64::new(seed);
        for i in 0..k {
            let j = i + rng.next_below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut arms = vec![false; n];
        for &i in &idx[..k] {
            arms[i] = true;
        }
        Assignment { arms }
    }

    /// Number of units.
    pub(crate) fn len(&self) -> usize {
        self.arms.len()
    }

    /// Arm of unit `i`.
    pub(crate) fn arm(&self, i: usize) -> bool {
        self.arms[i]
    }

    /// Number of treated units.
    pub fn treated_count(&self) -> usize {
        self.arms.iter().filter(|&&a| a).count()
    }

    /// Indices of treated units.
    pub fn treated(&self) -> Vec<usize> {
        (0..self.arms.len()).filter(|&i| self.arms[i]).collect()
    }

    /// Indices of control units.
    pub fn control(&self) -> Vec<usize> {
        (0..self.arms.len()).filter(|&i| !self.arms[i]).collect()
    }
}

/// Switchback assignment: time is divided into `n_intervals`; each
/// interval is independently assigned treatment with probability 0.5
/// (§5.2: "a given interval is randomly assigned to be either treatment
/// or control").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchbackPlan {
    intervals: Vec<bool>,
}

impl SwitchbackPlan {
    /// Strict alternation starting from `start_treated` (used by the
    /// paper's emulated switchback: treatment on days 1, 3, 5).
    pub fn alternating(n_intervals: usize, start_treated: bool) -> SwitchbackPlan {
        SwitchbackPlan {
            intervals: (0..n_intervals)
                .map(|i| (i % 2 == 0) == start_treated)
                .collect(),
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the plan has no intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether interval `i` is a treatment interval.
    pub fn treated(&self, i: usize) -> bool {
        self.intervals[i]
    }

    /// Borrow the raw plan.
    pub fn as_slice(&self) -> &[bool] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_fraction_close_to_p() {
        let a = Assignment::bernoulli(100_000, 0.3, 1);
        assert!((a.treated_count() as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn bernoulli_deterministic_per_seed() {
        assert_eq!(
            Assignment::bernoulli(1000, 0.5, 9),
            Assignment::bernoulli(1000, 0.5, 9)
        );
        assert_ne!(
            Assignment::bernoulli(1000, 0.5, 9),
            Assignment::bernoulli(1000, 0.5, 10)
        );
    }

    #[test]
    fn bernoulli_extremes() {
        assert_eq!(Assignment::bernoulli(50, 0.0, 3).treated_count(), 0);
        assert_eq!(Assignment::bernoulli(50, 1.0, 3).treated_count(), 50);
    }

    #[test]
    fn complete_exact_count() {
        for k in [0, 1, 5, 50, 100] {
            let a = Assignment::complete(100, k, 42);
            assert_eq!(a.treated_count(), k);
        }
    }

    #[test]
    fn complete_is_uniform_ish() {
        // Each unit should be treated in roughly k/n of draws.
        let mut hits = vec![0usize; 20];
        let reps = 2000;
        for seed in 0..reps {
            let a = Assignment::complete(20, 5, seed);
            for (i, h) in hits.iter_mut().enumerate() {
                if a.arm(i) {
                    *h += 1;
                }
            }
        }
        for &h in &hits {
            let frac = h as f64 / reps as f64;
            assert!((frac - 0.25).abs() < 0.05, "frac {frac}");
        }
    }

    #[test]
    fn treated_control_partition() {
        let a = Assignment::bernoulli(100, 0.4, 5);
        let t = a.treated();
        let c = a.control();
        assert_eq!(t.len() + c.len(), 100);
        assert!(t.iter().all(|&i| a.arm(i)));
        assert!(c.iter().all(|&i| !a.arm(i)));
    }

    #[test]
    fn switchback_alternating_pattern() {
        let p = SwitchbackPlan::alternating(5, true);
        assert_eq!(p.as_slice(), &[true, false, true, false, true]);
        let q = SwitchbackPlan::alternating(4, false);
        assert_eq!(q.as_slice(), &[false, true, false, true]);
    }
}
