//! Descriptive statistics: means and variances.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased (n-1 denominator) sample variance.
///
/// Uses the two-pass algorithm for numerical stability. Returns `NaN` when
/// fewer than two observations are supplied.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    ss / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`variance`]).
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean: `s / sqrt(n)`.
pub(crate) fn std_error(xs: &[f64]) -> f64 {
    stddev(xs) / (xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_simple() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn variance_known() {
        // Var of 1..=5 with n-1 denominator is 2.5.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((variance(&xs) - 2.5).abs() < 1e-12);
        assert!((stddev(&xs) - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_invariant_to_shift() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let shifted: Vec<f64> = xs.iter().map(|x| x + 1e9).collect();
        assert!((variance(&xs) - variance(&shifted)).abs() < 1e-4);
    }
}
