//! Quantile estimation.
//!
//! The paper notes (§2, "Note on averages") that practitioners regularly
//! estimate *quantile* treatment effects — e.g. the difference in 99th
//! percentile latency between treatment and control — and that all the
//! estimands generalize by replacing the mean with a quantile estimator.
//! This module provides the quantile estimator; `unbiased::quantiles`
//! builds the effects on it.

use crate::{Result, StatsError};

/// Linear-interpolation quantile (R type 7, the default in R/NumPy) on a
/// pre-sorted slice. `q` must be in `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Quantile of an unsorted sample (copies and sorts internally).
///
/// Rejects non-finite observations (NaN would otherwise poison the sort
/// order silently) and out-of-range `q` with [`StatsError`] instead of
/// panicking, so a single bad session metric cannot take down a sweep.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::TooFewObservations { got: 0, need: 1 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            context: "quantile: q must be in [0,1]",
        });
    }
    if xs.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidParameter {
            context: "quantile: non-finite value in sample",
        });
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&v, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 3.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_uniform_grid() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.5).unwrap(), 50.0);
        assert_eq!(quantile(&xs, 0.99).unwrap(), 99.0);
    }

    #[test]
    fn quantile_rejects_nan_instead_of_panicking() {
        // Regression: this used to panic inside sort_by via
        // `partial_cmp(..).expect("NaN in sample")`.
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(
            quantile(&xs, 0.5),
            Err(StatsError::InvalidParameter {
                context: "quantile: non-finite value in sample",
            })
        );
        assert!(quantile(&[1.0, f64::INFINITY], 0.5).is_err());
        assert!(quantile(&[1.0, 2.0], -0.1).is_err());
    }
}
