//! Allocation–response curves: `μ_T(p)` and `μ_C(p)` as functions of the
//! treated fraction — the paper's Figure 1, computed for any potential-
//! outcomes model by Monte Carlo over assignments.

use crate::assignment::Assignment;
use crate::potential::PotentialOutcomes;
use expstats::rng::SplitMix64;

/// Sampled allocation–response curves.
#[derive(Debug, Clone)]
pub struct ExposureCurves {
    /// Allocation grid (treated fractions), ascending.
    pub ps: Vec<f64>,
    /// `μ_T(p)` estimates (NaN where `p = 0`).
    pub mu_t: Vec<f64>,
    /// `μ_C(p)` estimates (NaN where `p = 1`).
    pub mu_c: Vec<f64>,
}

impl ExposureCurves {
    /// Estimate the curves for `model` on an allocation grid, averaging
    /// `reps` complete-randomization draws per grid point.
    pub fn sample<M: PotentialOutcomes>(
        model: &M,
        grid: &[f64],
        reps: usize,
        seed: u64,
    ) -> ExposureCurves {
        let n = model.n();
        let mut rng = SplitMix64::new(seed);
        let mut mu_t = Vec::with_capacity(grid.len());
        let mut mu_c = Vec::with_capacity(grid.len());
        for &p in grid {
            let k = ((p * n as f64).round() as usize).min(n);
            let mut sum_t = 0.0;
            let mut cnt_t = 0usize;
            let mut sum_c = 0.0;
            let mut cnt_c = 0usize;
            for _ in 0..reps {
                let a = Assignment::complete(n, k, rng.next_u64());
                let t = model.mean_treated(&a);
                if t.is_finite() {
                    sum_t += t;
                    cnt_t += 1;
                }
                let c = model.mean_control(&a);
                if c.is_finite() {
                    sum_c += c;
                    cnt_c += 1;
                }
            }
            mu_t.push(if cnt_t > 0 {
                sum_t / cnt_t as f64
            } else {
                f64::NAN
            });
            mu_c.push(if cnt_c > 0 {
                sum_c / cnt_c as f64
            } else {
                f64::NAN
            });
        }
        ExposureCurves {
            ps: grid.to_vec(),
            mu_t,
            mu_c,
        }
    }

    /// Approximate TTE from the curve endpoints: `μ_T(p_max) − μ_C(p_min)`.
    pub fn tte(&self) -> f64 {
        let t_end = self.mu_t.iter().rev().find(|v| v.is_finite());
        let c_start = self.mu_c.iter().find(|v| v.is_finite());
        match (t_end, c_start) {
            (Some(t), Some(c)) => t - c,
            _ => f64::NAN,
        }
    }
}

/// A standard allocation grid including both endpoints.
pub fn standard_grid(points: usize) -> Vec<f64> {
    assert!(points >= 2, "grid needs at least the endpoints");
    (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::{FairShare, NoInterference};

    #[test]
    fn grid_spans_unit_interval() {
        let g = standard_grid(11);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0], 0.0);
        assert_eq!(g[10], 1.0);
        assert!((g[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flat_curves_without_interference() {
        let model = NoInterference {
            baselines: vec![1.0; 50],
            effect: 2.0,
        };
        let curves = ExposureCurves::sample(&model, &standard_grid(6), 20, 1);
        // μT = 3 and μC = 1 at every p where defined.
        for (i, &p) in curves.ps.iter().enumerate() {
            if p > 0.0 {
                assert!((curves.mu_t[i] - 3.0).abs() < 1e-9);
            }
            if p < 1.0 {
                assert!((curves.mu_c[i] - 1.0).abs() < 1e-9);
            }
        }
        assert!((curves.tte() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_curves_decline_with_allocation() {
        let model = FairShare {
            n: 10,
            capacity: 10.0,
            weight_treated: 2.0,
            weight_control: 1.0,
        };
        let curves = ExposureCurves::sample(&model, &standard_grid(11), 5, 2);
        // Treated mean falls from 2C/(n+1)·... down to C/n as p → 1.
        let first_t = curves.mu_t[1];
        let last_t = curves.mu_t[10];
        assert!(first_t > last_t, "{first_t} vs {last_t}");
        assert!((last_t - 1.0).abs() < 1e-9, "all-treated share is C/n");
        // TTE (throughput) is zero.
        assert!(curves.tte().abs() < 1e-9);
        // Spillover μ_C(p) − μ_C(0) is negative and grows with p.
        assert!(curves.mu_c[9] < curves.mu_c[1]);
        assert!(curves.mu_c[9] < curves.mu_c[0]);
    }

    #[test]
    fn endpoint_arms_are_nan() {
        let model = NoInterference {
            baselines: vec![1.0; 10],
            effect: 1.0,
        };
        let curves = ExposureCurves::sample(&model, &[0.0, 1.0], 3, 3);
        assert!(curves.mu_t[0].is_nan(), "no treated units at p=0");
        assert!(curves.mu_c[1].is_nan(), "no control units at p=1");
    }
}
