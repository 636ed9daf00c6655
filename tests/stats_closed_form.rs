//! Closed-form unit tests for the `expstats` kernels: every expected
//! value below is derived by hand (derivations in comments), so these
//! tests pin the estimators to textbook definitions rather than to the
//! implementation's own output.

use expstats::dist::t_cdf;
use expstats::ols::{DesignBuilder, Ols};
use expstats::quantiles::{quantile, quantile_sorted};
use expstats::{welch_t_test, CovEstimator};

/// Simple regression of y on x with x = 0..4, y = [1.1, 1.9, 3.2, 3.8, 5.0].
///
/// x̄ = 2, ȳ = 3, Sxx = Σ(x−x̄)² = 10,
/// Sxy = Σ(x−x̄)(y−ȳ) = (−2)(−1.9) + (−1)(−1.1) + 0(0.2) + 1(0.8) + 2(2.0) = 9.7,
/// slope = Sxy/Sxx = 0.97, intercept = ȳ − slope·x̄ = 1.06,
/// RSS = 0.091, s² = RSS/(n−2) = 0.091/3,
/// SE(slope) = √(s²/Sxx) = 0.0550757054728611….
#[test]
fn ols_simple_regression_closed_form() {
    let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
    let ys = [1.1, 1.9, 3.2, 3.8, 5.0];
    let x = DesignBuilder::new()
        .intercept(5)
        .unwrap()
        .column(&xs)
        .unwrap()
        .build()
        .unwrap();
    let fit = Ols::fit(x, &ys).unwrap();
    assert!(
        (fit.coef[0] - 1.06).abs() < 1e-12,
        "intercept {}",
        fit.coef[0]
    );
    assert!((fit.coef[1] - 0.97).abs() < 1e-12, "slope {}", fit.coef[1]);
    assert!((fit.rss() - 0.091).abs() < 1e-12, "rss {}", fit.rss());
    let se = fit.std_errors(CovEstimator::Classic).unwrap()[1];
    assert!((se - 0.055075705472861).abs() < 1e-12, "se {se}");
}

/// Two-regressor design solved by hand via the normal equations.
///
/// With x1 = [1, 2, 3, 4], x2 = [1, 0, 1, 0] and
/// y = 2 + 3·x1 − 4·x2 exactly, OLS must reproduce the coefficients to
/// machine precision (zero residual ⇒ unique exact solution since the
/// design has full rank).
#[test]
fn ols_two_regressors_exact() {
    let x1 = [1.0, 2.0, 3.0, 4.0];
    let x2 = [1.0, 0.0, 1.0, 0.0];
    let ys: Vec<f64> = x1
        .iter()
        .zip(&x2)
        .map(|(a, b)| 2.0 + 3.0 * a - 4.0 * b)
        .collect();
    let x = DesignBuilder::new()
        .intercept(4)
        .unwrap()
        .column(&x1)
        .unwrap()
        .column(&x2)
        .unwrap()
        .build()
        .unwrap();
    let fit = Ols::fit(x, &ys).unwrap();
    assert!((fit.coef[0] - 2.0).abs() < 1e-10);
    assert!((fit.coef[1] - 3.0).abs() < 1e-10);
    assert!((fit.coef[2] - (-4.0)).abs() < 1e-10);
}

/// Newey–West lag-2 on the intercept-only model, fully by hand.
///
/// y = [1, 2, 4, 8, 16], ȳ = 6.2, residuals u = [−5.2, −4.2, −2.2, 1.8, 9.8].
/// Bartlett weights for lag 2: w₁ = 2⁄3, w₂ = 1⁄3.
/// S = Σu² + w₁·2·Σ uₜuₜ₋₁ + w₂·2·Σ uₜuₜ₋₂
///   Σu²        = 27.04 + 17.64 + 4.84 + 3.24 + 96.04 = 148.8
///   Σ uₜuₜ₋₁   = 21.84 + 9.24 − 3.96 + 17.64 = 44.76
///   Σ uₜuₜ₋₂   = 11.44 − 7.56 − 21.56 = −17.68
/// S = 148.8 + (2/3)·89.52 + (1/3)·(−35.36) = 196.6266…
/// Var = (XᵀX)⁻¹ S (XᵀX)⁻¹ · n/(n−k) = S/25 · 5/4 = S/20,
/// SE = √(S/20) = 3.1360272107663016.
#[test]
fn newey_west_lag2_hand_computed() {
    let ys = [1.0, 2.0, 4.0, 8.0, 16.0];
    let x = DesignBuilder::new().intercept(5).unwrap().build().unwrap();
    let fit = Ols::fit(x, &ys).unwrap();
    assert!((fit.coef[0] - 6.2).abs() < 1e-12);
    let se = fit.std_errors(CovEstimator::NeweyWest { lag: 2 }).unwrap()[0];
    assert!((se - 3.1360272107663016).abs() < 1e-12, "NW se {se}");

    // Independent recomputation from the definition, as a second check.
    let u: Vec<f64> = ys.iter().map(|y| y - 6.2).collect();
    let mut s: f64 = u.iter().map(|v| v * v).sum();
    for lag in 1..=2usize {
        let w = 1.0 - lag as f64 / 3.0;
        let gamma: f64 = (lag..5).map(|t| u[t] * u[t - lag]).sum();
        s += 2.0 * w * gamma;
    }
    let expected = (s / 25.0 * (5.0 / 4.0)).sqrt();
    assert!((se - expected).abs() < 1e-12);
}

/// Welch's t on a fixed dataset, against the hand-worked statistic.
///
/// With the samples below: x̄₁ = 20.82, x̄₂ = 23.6071…,
/// SE = √(s₁²/n₁ + s₂²/n₂), t = (x̄₁−x̄₂)/SE = −2.7077777791…,
/// Welch–Satterthwaite df = 26.9527465….
#[test]
fn welch_t_textbook_case() {
    let a = [
        27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4,
    ];
    let b = [
        27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5,
    ];
    let res = welch_t_test(&a, &b).unwrap();
    assert!(
        (res.statistic - (-2.707777779103324)).abs() < 1e-10,
        "t {}",
        res.statistic
    );
    assert!(
        (res.dof - 26.952746503270305).abs() < 1e-9,
        "df {}",
        res.dof
    );
    // p must match the t CDF at that statistic/df.
    let p = 2.0 * (1.0 - t_cdf(res.statistic.abs(), res.dof));
    assert!((res.p_value - p).abs() < 1e-12);
    assert!(
        res.p_value < 0.05 && res.p_value > 0.005,
        "p {}",
        res.p_value
    );
}

/// R-type-7 linear interpolation: h = (n−1)q, interpolate between
/// floor(h) and ceil(h).
#[test]
fn quantile_interpolation_closed_form() {
    let v = [10.0, 20.0, 30.0, 40.0];
    // h = 3·0.25 = 0.75 ⇒ 10 + 0.75·(20−10) = 17.5
    assert_eq!(quantile_sorted(&v, 0.25), 17.5);
    // h = 3·0.5 = 1.5 ⇒ 20 + 0.5·10 = 25
    assert_eq!(quantile_sorted(&v, 0.5), 25.0);
    // Exact index: h = 3·(2/3) = 2 ⇒ element 2.
    assert_eq!(quantile_sorted(&v, 2.0 / 3.0), 30.0);
}

#[test]
fn quantile_edge_cases() {
    // Endpoints are min and max.
    let v = [3.0, 1.0, 2.0];
    assert_eq!(quantile(&v, 0.0).unwrap(), 1.0);
    assert_eq!(quantile(&v, 1.0).unwrap(), 3.0);
    // Single element: every quantile is that element.
    for q in [0.0, 0.37, 0.5, 1.0] {
        assert_eq!(quantile_sorted(&[7.0], q), 7.0);
    }
    // Two elements interpolate linearly: q=0.1 ⇒ 1 + 0.1·(5−1).
    assert!((quantile_sorted(&[1.0, 5.0], 0.1) - 1.4).abs() < 1e-12);
    // Ties: quantile between equal values stays at the tied value.
    assert_eq!(quantile_sorted(&[2.0, 2.0, 2.0, 9.0], 0.5), 2.0);
    // Empty sample is an error.
    assert!(quantile(&[], 0.5).is_err());
}
