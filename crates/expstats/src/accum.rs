//! Mergeable one-pass accumulators for streaming estimation.
//!
//! The fleet simulations of §6 produce far more session records than fit
//! in memory (the paper's regime is a CDN serving millions of concurrent
//! viewers), so the sweep layer folds each finished link run into
//! *sufficient statistics* the moment it completes and drops the records.
//! Every accumulator here supports an associative, order-insensitive
//! `merge`, which is what makes work-stealing reduction correct: worker
//! partials can be combined in any order and the final state is the same
//! set of sufficient statistics the single-pass batch estimator would
//! have seen.
//!
//! * [`WelfordCell`] — count / mean / M2 via Welford's algorithm with the
//!   Chan et al. parallel combination step; enough for means, variances
//!   and Welch t inference.
//! * [`OlsAccum`] — normal-equation state `X'X`, `X'y`, `y'y` for
//!   one-pass OLS; solving uses the same Cholesky inverse as
//!   [`crate::ols::Ols::fit`], so coefficients agree with the batch path
//!   to rounding error.
//! * [`ClusterOlsAccum`] — adds per-cluster `X'X`/`X'y` blocks, which are
//!   sufficient for the CRV1 (Liang–Zeger) clustered covariance because
//!   the per-cluster score sum is `s_g = X_g'y − X_g'X_g β̂`.
//!
//! The quantile analogue (a bounded reservoir sketch) lives with the
//! fleet analysis in the `unbiased` crate, since it needs stable record
//! identities to stay deterministic.

use std::collections::BTreeMap;

use crate::linalg::Matrix;
use crate::{Result, StatsError};

/// Streaming count / mean / M2 cell (Welford's online algorithm).
///
/// `M2` is the sum of squared deviations from the running mean, so
/// `variance = M2 / (n − 1)`. The merge step is Chan, Golub & LeVeque's
/// pairwise combination; it is exact in real arithmetic for any merge
/// order, and the fleet layer only merges cells in a deterministic order
/// so results are reproducible bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WelfordCell {
    /// Number of observations folded in.
    pub n: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (0 when empty).
    pub m2: f64,
}

impl WelfordCell {
    /// Empty cell.
    pub fn new() -> WelfordCell {
        WelfordCell::default()
    }

    /// Fold one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Combine with another cell (associative; either side may be empty).
    pub fn merge(&mut self, other: &WelfordCell) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }

    /// Sum of observations `Σx = n · mean`.
    pub fn sum(&self) -> f64 {
        self.n as f64 * self.mean
    }

    /// Sum of squared observations `Σx² = M2 + n · mean²`.
    pub fn sum_sq(&self) -> f64 {
        self.m2 + self.n as f64 * self.mean * self.mean
    }

    /// Sample variance (n − 1 denominator); NaN with fewer than two
    /// observations, matching [`crate::describe::variance`].
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// One-pass OLS state: `X'X` (dense symmetric, row-major `k × k`),
/// `X'y`, `y'y` and the observation count.
///
/// Merging two accumulators just adds the matrices, so the state after
/// any partition/merge order equals the state of a single pass — the
/// property the streaming fleet path relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsAccum {
    k: usize,
    n: u64,
    xtx: Vec<f64>,
    xty: Vec<f64>,
    yty: f64,
}

/// Solution of the normal equations accumulated in [`OlsAccum`].
#[derive(Debug, Clone)]
pub struct OlsNormalFit {
    /// Estimated coefficients (one per design column).
    pub coef: Vec<f64>,
    /// `(X'X)⁻¹`, for covariance computations.
    pub xtx_inv: Matrix,
    /// Residual sum of squares `y'y − β̂·X'y`.
    pub rss: f64,
    /// Observations folded in.
    pub n: usize,
    /// Number of regressors.
    pub k: usize,
}

impl OlsNormalFit {
    /// Classic spherical-error standard errors `σ̂ √[(X'X)⁻¹]_jj` with
    /// `σ̂² = rss / (n − k)`.
    pub fn std_errors(&self) -> Vec<f64> {
        let sigma2 = self.rss.max(0.0) / (self.n - self.k) as f64;
        (0..self.k)
            .map(|j| (sigma2 * self.xtx_inv[(j, j)].max(0.0)).sqrt())
            .collect()
    }
}

impl OlsAccum {
    /// Empty accumulator for `k` regressors.
    pub fn new(k: usize) -> OlsAccum {
        OlsAccum {
            k,
            n: 0,
            xtx: vec![0.0; k * k],
            xty: vec![0.0; k],
            yty: 0.0,
        }
    }

    /// Fold one observation `(x row, y)`.
    pub fn push(&mut self, x: &[f64], y: f64) {
        assert_eq!(x.len(), self.k, "OlsAccum::push: row length != k");
        for i in 0..self.k {
            for j in 0..self.k {
                self.xtx[i * self.k + j] += x[i] * x[j];
            }
            self.xty[i] += x[i] * y;
        }
        self.yty += y * y;
        self.n += 1;
    }

    /// Fold a precomputed block of observations: `xtx`/`xty`/`yty` summed
    /// over `n` rows (e.g. derived in closed form from a Welford cell).
    pub(crate) fn push_block(&mut self, xtx: &[f64], xty: &[f64], yty: f64, n: u64) {
        assert_eq!(xtx.len(), self.k * self.k, "push_block: xtx size");
        assert_eq!(xty.len(), self.k, "push_block: xty size");
        for (a, b) in self.xtx.iter_mut().zip(xtx) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(xty) {
            *a += b;
        }
        self.yty += yty;
        self.n += n;
    }

    /// Combine with another accumulator (element-wise sums; associative).
    pub fn merge(&mut self, other: &OlsAccum) {
        assert_eq!(self.k, other.k, "OlsAccum::merge: mismatched k");
        self.push_block(&other.xtx, &other.xty, other.yty, other.n);
    }

    /// Solve the normal equations `X'X β = X'y` via the same SPD
    /// Cholesky inverse the batch path uses.
    ///
    /// Errors if under-determined (`n ≤ k`) or the Gram matrix is
    /// (numerically) rank deficient — the same failures as
    /// [`crate::ols::Ols::fit`].
    pub fn solve(&self) -> Result<OlsNormalFit> {
        let n = self.n as usize;
        if n <= self.k {
            return Err(StatsError::TooFewObservations {
                got: n,
                need: self.k + 1,
            });
        }
        let xtx = Matrix::from_rows(self.k, self.k, self.xtx.clone())?;
        let xtx_inv = xtx.inverse_spd()?;
        let coef = xtx_inv.matvec(&self.xty)?;
        let explained: f64 = coef.iter().zip(&self.xty).map(|(b, v)| b * v).sum();
        Ok(OlsNormalFit {
            rss: self.yty - explained,
            coef,
            xtx_inv,
            n,
            k: self.k,
        })
    }
}

/// Per-cluster normal-equation blocks on top of [`OlsAccum`]: sufficient
/// state for CRV1 (Liang–Zeger) cluster-robust covariance.
///
/// The CRV1 meat is `Σ_g s_g s_g'` with score sums
/// `s_g = Σ_{t∈g} u_t x_t = X_g'y − X_g'X_g β̂`, so per-cluster
/// `X'X`/`X'y` blocks are all that must be retained — memory grows with
/// the number of clusters (links), not observations (sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOlsAccum {
    global: OlsAccum,
    clusters: BTreeMap<usize, OlsAccum>,
}

/// Fit with CRV1 cluster-robust standard errors from accumulated state.
#[derive(Debug, Clone)]
pub struct ClusterOlsFit {
    /// Estimated coefficients.
    pub coef: Vec<f64>,
    /// CRV1 standard errors (inference uses `G − 1` dof).
    pub std_errors: Vec<f64>,
    /// Observations folded in.
    pub n: usize,
    /// Number of distinct clusters with at least one observation.
    pub g: usize,
}

impl ClusterOlsAccum {
    /// Empty accumulator for `k` regressors.
    pub fn new(k: usize) -> ClusterOlsAccum {
        ClusterOlsAccum {
            global: OlsAccum::new(k),
            clusters: BTreeMap::new(),
        }
    }

    /// Fold one observation `(cluster label, x row, y)`.
    pub fn push(&mut self, cluster: usize, x: &[f64], y: f64) {
        let k = self.global.k;
        self.global.push(x, y);
        self.clusters
            .entry(cluster)
            .or_insert_with(|| OlsAccum::new(k))
            .push(x, y);
    }

    /// Fold a precomputed block belonging to one cluster.
    pub fn push_block(&mut self, cluster: usize, xtx: &[f64], xty: &[f64], yty: f64, n: u64) {
        if n == 0 {
            return;
        }
        let k = self.global.k;
        self.global.push_block(xtx, xty, yty, n);
        self.clusters
            .entry(cluster)
            .or_insert_with(|| OlsAccum::new(k))
            .push_block(xtx, xty, yty, n);
    }

    /// Combine with another accumulator. Cluster blocks with the same
    /// label are summed, so splitting one cluster's observations across
    /// workers is safe.
    pub fn merge(&mut self, other: &ClusterOlsAccum) {
        self.global.merge(&other.global);
        for (label, block) in &other.clusters {
            match self.clusters.get_mut(label) {
                Some(mine) => mine.merge(block),
                None => {
                    self.clusters.insert(*label, block.clone());
                }
            }
        }
    }

    /// Observations folded in.
    pub fn n(&self) -> u64 {
        self.global.n
    }

    /// Solve and compute CRV1 standard errors with the same small-sample
    /// correction `G/(G−1) · (n−1)/(n−k)` as
    /// `crate::ols::OlsFit::covariance_clustered`.
    pub fn fit(&self) -> Result<ClusterOlsFit> {
        let g = self.clusters.len();
        if g < 2 {
            return Err(StatsError::TooFewObservations { got: g, need: 2 });
        }
        let sol = self.global.solve()?;
        let k = sol.k;
        // Meat: Σ_g s_g s_g' with s_g = X_g'y − X_g'X_g β̂.
        let mut meat = Matrix::zeros(k, k);
        let mut s_g = vec![0.0; k];
        for block in self.clusters.values() {
            for (i, s) in s_g.iter_mut().enumerate() {
                let mut v = block.xty[i];
                for j in 0..k {
                    v -= block.xtx[i * k + j] * sol.coef[j];
                }
                *s = v;
            }
            for i in 0..k {
                for j in 0..k {
                    meat[(i, j)] += s_g[i] * s_g[j];
                }
            }
        }
        let n = sol.n;
        let correction = (g as f64 / (g as f64 - 1.0)) * ((n as f64 - 1.0) / (n as f64 - k as f64));
        let cov = sol.xtx_inv.matmul(&meat)?.matmul(&sol.xtx_inv)?;
        let std_errors = (0..k)
            .map(|i| (cov[(i, i)] * correction).max(0.0).sqrt())
            .collect();
        Ok(ClusterOlsFit {
            coef: sol.coef,
            std_errors,
            n,
            g,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{mean, variance};
    use crate::ols::{DesignBuilder, Ols};
    use crate::rng::SplitMix64;

    fn sample(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 10.0 - 3.0).collect()
    }

    #[test]
    fn welford_matches_batch_moments() {
        let xs = sample(1, 500);
        let mut cell = WelfordCell::new();
        for &x in &xs {
            cell.push(x);
        }
        assert_eq!(cell.n, 500);
        assert!((cell.mean - mean(&xs)).abs() < 1e-12);
        assert!((cell.variance() - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_is_order_insensitive() {
        let xs = sample(2, 301);
        let mut whole = WelfordCell::new();
        for &x in &xs {
            whole.push(x);
        }
        // Three uneven chunks merged in both association orders.
        let chunks: Vec<WelfordCell> = [&xs[..7], &xs[7..180], &xs[180..]]
            .iter()
            .map(|c| {
                let mut w = WelfordCell::new();
                for &x in *c {
                    w.push(x);
                }
                w
            })
            .collect();
        let mut left = chunks[0];
        left.merge(&chunks[1]);
        left.merge(&chunks[2]);
        let mut right = chunks[1];
        right.merge(&chunks[2]);
        let mut outer = chunks[0];
        outer.merge(&right);
        for m in [left, outer] {
            assert_eq!(m.n, whole.n);
            assert!((m.mean - whole.mean).abs() < 1e-12);
            assert!((m.variance() - whole.variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut a = WelfordCell::new();
        a.push(2.0);
        a.push(4.0);
        let b = a;
        a.merge(&WelfordCell::new());
        assert_eq!(a, b);
        let mut e = WelfordCell::new();
        e.merge(&b);
        assert_eq!(e, b);
    }

    #[test]
    fn sum_identities() {
        let xs = [1.0, 2.0, 4.0];
        let mut c = WelfordCell::new();
        for &x in &xs {
            c.push(x);
        }
        assert!((c.sum() - 7.0).abs() < 1e-12);
        assert!((c.sum_sq() - 21.0).abs() < 1e-9);
    }

    fn toy_regression(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![1.0, rng.next_f64() * 4.0 - 2.0])
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| 1.5 + 0.7 * r[1] + (rng.next_f64() - 0.5))
            .collect();
        (rows, ys)
    }

    #[test]
    fn ols_accum_matches_batch_fit() {
        let (rows, ys) = toy_regression(3, 120);
        let mut acc = OlsAccum::new(2);
        for (r, &y) in rows.iter().zip(&ys) {
            acc.push(r, y);
        }
        let xs: Vec<f64> = rows.iter().map(|r| r[1]).collect();
        let x = DesignBuilder::new()
            .intercept(120)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let batch = Ols::fit(x, &ys).unwrap();
        let fit = acc.solve().unwrap();
        for j in 0..2 {
            assert!((fit.coef[j] - batch.coef[j]).abs() < 1e-10, "coef {j}");
        }
        assert!((fit.rss - batch.rss()).abs() / batch.rss() < 1e-10);
        let se = fit.std_errors();
        let se_batch = batch.std_errors(crate::CovEstimator::Classic).unwrap();
        for j in 0..2 {
            assert!((se[j] - se_batch[j]).abs() / se_batch[j] < 1e-10, "se {j}");
        }
    }

    #[test]
    fn ols_accum_merge_equals_single_pass() {
        let (rows, ys) = toy_regression(4, 90);
        let mut whole = OlsAccum::new(2);
        for (r, &y) in rows.iter().zip(&ys) {
            whole.push(r, y);
        }
        let mut a = OlsAccum::new(2);
        let mut b = OlsAccum::new(2);
        for (i, (r, &y)) in rows.iter().zip(&ys).enumerate() {
            if i % 3 == 0 {
                a.push(r, y);
            } else {
                b.push(r, y);
            }
        }
        // Merge in the "wrong" order relative to the stream.
        let mut merged = b.clone();
        merged.merge(&a);
        let w = whole.solve().unwrap();
        let m = merged.solve().unwrap();
        for j in 0..2 {
            assert!((w.coef[j] - m.coef[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn ols_accum_underdetermined_errors() {
        let mut acc = OlsAccum::new(2);
        acc.push(&[1.0, 0.0], 1.0);
        acc.push(&[1.0, 1.0], 2.0);
        assert!(matches!(
            acc.solve(),
            Err(StatsError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn cluster_fit_matches_batch_crv1() {
        let (rows, ys) = toy_regression(5, 80);
        let clusters: Vec<usize> = (0..80).map(|i| i % 7).collect();
        let mut acc = ClusterOlsAccum::new(2);
        for ((r, &y), &c) in rows.iter().zip(&ys).zip(&clusters) {
            acc.push(c, r, y);
        }
        let xs: Vec<f64> = rows.iter().map(|r| r[1]).collect();
        let x = DesignBuilder::new()
            .intercept(80)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let batch = Ols::fit(x, &ys).unwrap();
        let se_batch = batch.std_errors_clustered(&clusters).unwrap();
        let fit = acc.fit().unwrap();
        assert_eq!(fit.g, 7);
        assert_eq!(fit.n, 80);
        for (j, &se) in se_batch.iter().enumerate() {
            assert!(
                (fit.coef[j] - batch.coef[j]).abs() < 1e-10
                    && (fit.std_errors[j] - se).abs() / se < 1e-9,
                "col {j}: {} vs {}",
                fit.std_errors[j],
                se
            );
        }
    }

    #[test]
    fn cluster_merge_reassembles_split_clusters() {
        let (rows, ys) = toy_regression(6, 60);
        let clusters: Vec<usize> = (0..60).map(|i| i % 5).collect();
        let mut whole = ClusterOlsAccum::new(2);
        let mut parts: Vec<ClusterOlsAccum> = (0..3).map(|_| ClusterOlsAccum::new(2)).collect();
        for (i, ((r, &y), &c)) in rows.iter().zip(&ys).zip(&clusters).enumerate() {
            whole.push(c, r, y);
            // Observations of the same cluster land in different parts.
            parts[i % 3].push(c, r, y);
        }
        let mut merged = parts[2].clone();
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged.clusters.len(), whole.clusters.len());
        let a = whole.fit().unwrap();
        let b = merged.fit().unwrap();
        for j in 0..2 {
            assert!((a.coef[j] - b.coef[j]).abs() < 1e-12);
            assert!((a.std_errors[j] - b.std_errors[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn cluster_fit_needs_two_clusters() {
        let mut acc = ClusterOlsAccum::new(1);
        acc.push(0, &[1.0], 1.0);
        acc.push(0, &[1.0], 2.0);
        assert!(matches!(
            acc.fit(),
            Err(StatsError::TooFewObservations { got: 1, need: 2 })
        ));
    }
}
