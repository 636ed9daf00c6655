//! Property-based tests on the statistical and causal kernels.

use causal::assignment::Assignment;
use causal::potential::{NoInterference, PotentialOutcomes};
use expstats::ols::{DesignBuilder, Ols};
use expstats::{mean, CovEstimator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OLS on y = a + b x recovers (a, b) exactly for any non-degenerate
    /// inputs.
    #[test]
    fn ols_recovers_exact_line(a in -100.0f64..100.0, b in -10.0f64..10.0, n in 5usize..50) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a + b * x).collect();
        let x = DesignBuilder::new()
            .intercept(n).unwrap()
            .column(&xs).unwrap()
            .build().unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        prop_assert!((fit.coef[0] - a).abs() < 1e-6);
        prop_assert!((fit.coef[1] - b).abs() < 1e-6);
    }

    /// Newey-West variances are non-negative for arbitrary inputs
    /// (Bartlett kernel PSD guarantee).
    #[test]
    fn newey_west_psd(seed in 0u64..1000, lag in 0usize..8) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (state % 1000) as f64 / 100.0
        };
        let n = 40;
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = DesignBuilder::new()
            .intercept(n).unwrap()
            .column(&xs).unwrap()
            .build().unwrap();
        if let Ok(fit) = Ols::fit(x, &ys) {
            let cov = fit.covariance(CovEstimator::NeweyWest { lag }).unwrap();
            prop_assert!(cov[(0, 0)] >= -1e-9);
            prop_assert!(cov[(1, 1)] >= -1e-9);
        }
    }

    /// Without interference, the realized A/B difference in means equals
    /// the constant effect plus pure sampling noise in the baselines —
    /// and is exact when baselines are constant.
    #[test]
    fn naive_ab_exact_under_sutva_constant_baseline(
        effect in -50.0f64..50.0,
        p in 0.2f64..0.8,
        seed in 0u64..500,
    ) {
        let model = NoInterference { baselines: vec![7.0; 200], effect };
        let assign = Assignment::bernoulli(200, p, seed);
        if assign.treated_count() >= 2 && assign.control().len() >= 2 {
            let y: Vec<f64> = (0..200).map(|i| model.outcome(i, &assign)).collect();
            let t: Vec<f64> = assign.treated().into_iter().map(|i| y[i]).collect();
            let c: Vec<f64> = assign.control().into_iter().map(|i| y[i]).collect();
            prop_assert!((mean(&t) - mean(&c) - effect).abs() < 1e-9);
        }
    }

    /// Complete randomization always treats exactly k units.
    #[test]
    fn complete_randomization_exact_count(n in 2usize..200, seed in 0u64..100) {
        let k = n / 2;
        let a = Assignment::complete(n, k, seed);
        prop_assert_eq!(a.treated_count(), k);
    }
}
