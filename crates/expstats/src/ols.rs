//! Ordinary least squares with classic, heteroskedasticity-robust and
//! Newey–West (HAC) covariance estimators.
//!
//! This is the regression engine behind Appendix B of the paper: outcomes
//! aggregated to the hourly level are regressed on a treatment indicator
//! plus hour-of-day fixed effects, and uncertainty is quantified with
//! Newey–West robust standard errors (lag 2) to absorb autocorrelation
//! between successive hours.

use crate::linalg::Matrix;
use crate::{Result, StatsError};

/// Covariance estimator for OLS coefficient uncertainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CovEstimator {
    /// Classic spherical-error covariance `σ² (XᵀX)⁻¹`.
    Classic,
    /// White's heteroskedasticity-consistent estimator with the HC1
    /// small-sample correction `n/(n-k)`.
    Hc1,
    /// Newey–West heteroskedasticity-and-autocorrelation-consistent
    /// estimator with Bartlett kernel and the given maximum lag.
    ///
    /// The paper uses `lag = 2` on hourly aggregates ("a lag of two hours").
    NeweyWest {
        /// Maximum lag (Bartlett window width minus one).
        lag: usize,
    },
}

/// A fitted OLS model.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Estimated coefficients, one per design-matrix column.
    pub coef: Vec<f64>,
    /// Residuals `y − X β̂` in observation order.
    pub residuals: Vec<f64>,
    /// `(XᵀX)⁻¹`, cached for covariance computations.
    xtx_inv: Matrix,
    /// Design matrix (kept for sandwich estimators).
    x: Matrix,
    /// Number of observations.
    pub n: usize,
    /// Number of regressors.
    pub k: usize,
}

/// OLS entry point.
pub struct Ols;

impl Ols {
    /// Fit `y = X β + ε` by least squares.
    ///
    /// Errors if the system is under-determined (`n ≤ k`) or the design is
    /// rank deficient.
    pub fn fit(x: Matrix, y: &[f64]) -> Result<OlsFit> {
        let n = x.nrows();
        let k = x.ncols();
        if y.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "Ols::fit: y length != rows",
            });
        }
        if n <= k {
            return Err(StatsError::TooFewObservations {
                got: n,
                need: k + 1,
            });
        }
        let xtx = x.gram();
        let xty = x.xty(y)?;
        let xtx_inv = xtx.inverse_spd()?;
        let coef = xtx_inv.matvec(&xty)?;
        let fitted = x.matvec(&coef)?;
        let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        Ok(OlsFit {
            coef,
            residuals,
            xtx_inv,
            x,
            n,
            k,
        })
    }
}

impl OlsFit {
    /// Residual sum of squares.
    pub fn rss(&self) -> f64 {
        self.residuals.iter().map(|r| r * r).sum()
    }

    /// Residual degrees of freedom `n − k`.
    pub fn dof(&self) -> f64 {
        (self.n - self.k) as f64
    }

    /// Coefficient covariance matrix under the chosen estimator.
    pub fn covariance(&self, est: CovEstimator) -> Result<Matrix> {
        match est {
            CovEstimator::Classic => {
                let sigma2 = self.rss() / self.dof();
                let mut cov = self.xtx_inv.clone();
                for i in 0..self.k {
                    for j in 0..self.k {
                        cov[(i, j)] *= sigma2;
                    }
                }
                Ok(cov)
            }
            CovEstimator::Hc1 => self.sandwich(0, self.n as f64 / self.dof()),
            CovEstimator::NeweyWest { lag } => self.sandwich(lag, self.n as f64 / self.dof()),
        }
    }

    /// Sandwich covariance `(XᵀX)⁻¹ S (XᵀX)⁻¹` with the Bartlett-weighted
    /// score covariance `S` truncated at `lag`, scaled by `correction`.
    ///
    /// `lag = 0` reduces to White's HC estimator. The Bartlett kernel
    /// guarantees the result is positive semi-definite
    /// (Newey & West, 1987).
    fn sandwich(&self, lag: usize, correction: f64) -> Result<Matrix> {
        let k = self.k;
        let n = self.n;
        // Scores g_t = u_t * x_t.
        let mut scores = Matrix::zeros(n, k);
        for t in 0..n {
            let u = self.residuals[t];
            for j in 0..k {
                scores[(t, j)] = u * self.x[(t, j)];
            }
        }
        // S = Γ0 + Σ_l w_l (Γ_l + Γ_lᵀ), w_l = 1 − l/(lag+1).
        let mut s = Matrix::zeros(k, k);
        for t in 0..n {
            for i in 0..k {
                let gi = scores[(t, i)];
                if gi == 0.0 {
                    continue;
                }
                for j in 0..k {
                    s[(i, j)] += gi * scores[(t, j)];
                }
            }
        }
        for l in 1..=lag.min(n.saturating_sub(1)) {
            let w = 1.0 - l as f64 / (lag as f64 + 1.0);
            for t in l..n {
                for i in 0..k {
                    let gi = scores[(t, i)];
                    let hi = scores[(t - l, i)];
                    for j in 0..k {
                        let cross = gi * scores[(t - l, j)] + hi * scores[(t, j)];
                        s[(i, j)] += w * cross;
                    }
                }
            }
        }
        // (XᵀX)⁻¹ S (XᵀX)⁻¹, scaled.
        let mut cov = self.xtx_inv.matmul(&s)?.matmul(&self.xtx_inv)?;
        for i in 0..k {
            for j in 0..k {
                cov[(i, j)] *= correction;
            }
        }
        Ok(cov)
    }

    /// Standard errors of all coefficients under the chosen estimator.
    pub fn std_errors(&self, est: CovEstimator) -> Result<Vec<f64>> {
        let cov = self.covariance(est)?;
        Ok((0..self.k).map(|i| cov[(i, i)].max(0.0).sqrt()).collect())
    }

    /// Cluster-robust (CRV1 / Liang–Zeger) coefficient covariance:
    /// `(XᵀX)⁻¹ (Σ_g s_g s_gᵀ) (XᵀX)⁻¹` with cluster score sums
    /// `s_g = Σ_{t ∈ g} u_t x_t`, scaled by the standard small-sample
    /// correction `G/(G−1) · (n−1)/(n−k)`.
    ///
    /// `clusters[t]` is observation `t`'s cluster label (any `usize`;
    /// labels need not be dense). This is the fleet analysis's
    /// link-clustered estimator: sessions on the same congested link
    /// share shocks (and, under interference, each other's treatments),
    /// so iid standard errors understate the uncertainty — often
    /// severely when effects vary across links.
    ///
    /// Errors when `clusters` is not `n` long or fewer than two distinct
    /// clusters are present (the between-cluster variance is then
    /// unidentified).
    pub(crate) fn covariance_clustered(&self, clusters: &[usize]) -> Result<Matrix> {
        let (n, k) = (self.n, self.k);
        if clusters.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "covariance_clustered: one cluster label per observation",
            });
        }
        // Accumulate per-cluster score sums s_g = Σ u_t x_t.
        let mut labels: Vec<usize> = clusters.to_vec();
        labels.sort_unstable();
        labels.dedup();
        let g = labels.len();
        if g < 2 {
            return Err(StatsError::TooFewObservations { got: g, need: 2 });
        }
        let mut sums = vec![0.0; g * k];
        for (t, label) in clusters.iter().enumerate() {
            let gi = labels.binary_search(label).expect("label present");
            let u = self.residuals[t];
            for j in 0..k {
                sums[gi * k + j] += u * self.x[(t, j)];
            }
        }
        // Meat: Σ_g s_g s_gᵀ.
        let mut s = Matrix::zeros(k, k);
        for sg in sums.chunks_exact(k) {
            for i in 0..k {
                for j in 0..k {
                    s[(i, j)] += sg[i] * sg[j];
                }
            }
        }
        let correction = (g as f64 / (g as f64 - 1.0)) * ((n as f64 - 1.0) / (n as f64 - k as f64));
        let mut cov = self.xtx_inv.matmul(&s)?.matmul(&self.xtx_inv)?;
        for i in 0..k {
            for j in 0..k {
                cov[(i, j)] *= correction;
            }
        }
        Ok(cov)
    }

    /// Cluster-robust standard errors (see
    /// `OlsFit::covariance_clustered`). Inference should use `G − 1`
    /// degrees of freedom, where `G` is the number of distinct clusters.
    pub fn std_errors_clustered(&self, clusters: &[usize]) -> Result<Vec<f64>> {
        let cov = self.covariance_clustered(clusters)?;
        Ok((0..self.k).map(|i| cov[(i, i)].max(0.0).sqrt()).collect())
    }

    /// t statistic for coefficient `idx` under the chosen estimator.
    pub fn t_stat(&self, idx: usize, est: CovEstimator) -> Result<f64> {
        let se = self.std_errors(est)?[idx];
        if se == 0.0 {
            return Err(StatsError::InvalidParameter {
                context: "t_stat: zero standard error",
            });
        }
        Ok(self.coef[idx] / se)
    }

    /// Two-sided p-value for the null that coefficient `idx` is zero.
    pub fn p_value(&self, idx: usize, est: CovEstimator) -> Result<f64> {
        let t = self.t_stat(idx, est)?;
        let p = 2.0 * (1.0 - crate::dist::t_cdf(t.abs(), self.dof()));
        Ok(p.clamp(0.0, 1.0))
    }
}

/// Convenience builder for design matrices (intercept, covariates,
/// categorical dummies with one level dropped to avoid collinearity).
#[derive(Debug, Default)]
pub struct DesignBuilder {
    columns: Vec<Vec<f64>>,
    nrows: Option<usize>,
}

impl DesignBuilder {
    /// Empty builder.
    pub fn new() -> DesignBuilder {
        DesignBuilder::default()
    }

    fn check_len(&mut self, len: usize) -> Result<()> {
        match self.nrows {
            None => {
                self.nrows = Some(len);
                Ok(())
            }
            Some(n) if n == len => Ok(()),
            Some(_) => Err(StatsError::DimensionMismatch {
                context: "DesignBuilder: column lengths differ",
            }),
        }
    }

    /// Add an all-ones intercept column. Requires at least one data column
    /// first (to know the row count) or a later column to fix it.
    pub fn intercept(mut self, nrows: usize) -> Result<DesignBuilder> {
        self.check_len(nrows)?;
        self.columns.push(vec![1.0; nrows]);
        Ok(self)
    }

    /// Add a numeric column.
    pub fn column(mut self, values: &[f64]) -> Result<DesignBuilder> {
        self.check_len(values.len())?;
        self.columns.push(values.to_vec());
        Ok(self)
    }

    /// Add dummy columns for a categorical variable, dropping the first
    /// (smallest) level as the reference category.
    pub fn dummies(mut self, levels: &[usize]) -> Result<DesignBuilder> {
        self.check_len(levels.len())?;
        let mut uniq: Vec<usize> = levels.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        for &lvl in uniq.iter().skip(1) {
            let col: Vec<f64> = levels
                .iter()
                .map(|&v| if v == lvl { 1.0 } else { 0.0 })
                .collect();
            self.columns.push(col);
        }
        Ok(self)
    }

    /// Materialize the design matrix.
    pub fn build(self) -> Result<Matrix> {
        let n = self
            .nrows
            .ok_or(StatsError::TooFewObservations { got: 0, need: 1 })?;
        let k = self.columns.len();
        let mut m = Matrix::zeros(n, k);
        for (j, col) in self.columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_line_fit() -> OlsFit {
        // y = 1 + 2x exactly.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let x = DesignBuilder::new()
            .intercept(xs.len())
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        Ols::fit(x, &ys).unwrap()
    }

    #[test]
    fn exact_line_recovered() {
        let fit = simple_line_fit();
        assert!((fit.coef[0] - 1.0).abs() < 1e-10);
        assert!((fit.coef[1] - 2.0).abs() < 1e-10);
        assert!(fit.rss() < 1e-18);
    }

    #[test]
    fn intercept_only_is_mean() {
        let ys = [3.0, 5.0, 7.0, 9.0];
        let x = DesignBuilder::new().intercept(4).unwrap().build().unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        assert!((fit.coef[0] - 6.0).abs() < 1e-12);
        // Classic SE of the intercept equals the standard error of the mean.
        let se = fit.std_errors(CovEstimator::Classic).unwrap()[0];
        let sem = crate::describe::std_error(&ys);
        assert!((se - sem).abs() < 1e-12);
    }

    #[test]
    fn hc1_equals_classic_under_homoskedastic_balanced_design() {
        // With a balanced binary regressor and equal residual magnitudes,
        // HC1 and classic agree on the slope SE.
        let x_raw = [0.0, 0.0, 1.0, 1.0];
        let ys = [1.0, -1.0, 3.0, 1.0]; // residuals ±1 in both groups
        let x = DesignBuilder::new()
            .intercept(4)
            .unwrap()
            .column(&x_raw)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        let se_c = fit.std_errors(CovEstimator::Classic).unwrap()[1];
        let se_h = fit.std_errors(CovEstimator::Hc1).unwrap()[1];
        assert!((se_c - se_h).abs() < 1e-10, "{se_c} vs {se_h}");
    }

    #[test]
    fn newey_west_lag0_equals_hc1() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.3, 1.9, 4.5, 5.8, 8.6, 9.9];
        let x = DesignBuilder::new()
            .intercept(6)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        let nw0 = fit.covariance(CovEstimator::NeweyWest { lag: 0 }).unwrap();
        let hc1 = fit.covariance(CovEstimator::Hc1).unwrap();
        assert!(nw0.max_abs_diff(&hc1) < 1e-12);
    }

    #[test]
    fn newey_west_variances_nonnegative() {
        // Strongly autocorrelated residuals; NW must stay PSD on the
        // diagonal thanks to the Bartlett kernel.
        let n = 50;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| i as f64 * 0.5 + (i as f64 * 0.7).sin() * 3.0)
            .collect();
        let x = DesignBuilder::new()
            .intercept(n)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        for lag in [0, 1, 2, 5, 10] {
            let cov = fit.covariance(CovEstimator::NeweyWest { lag }).unwrap();
            for i in 0..2 {
                assert!(cov[(i, i)] >= 0.0, "lag {lag} diag {i}");
            }
        }
    }

    #[test]
    fn autocorrelated_errors_widen_nw_intervals() {
        // Residuals follow a slow sine => positive autocorrelation; the NW
        // SE at lag 6 should exceed the HC (lag 0) SE.
        let n = 120;
        let xs: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.5 * (i % 2) as f64 + (i as f64 * 0.2).sin())
            .collect();
        let x = DesignBuilder::new()
            .intercept(n)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        let se0 = fit.std_errors(CovEstimator::NeweyWest { lag: 0 }).unwrap()[0];
        let se6 = fit.std_errors(CovEstimator::NeweyWest { lag: 6 }).unwrap()[0];
        assert!(se6 > se0, "expected NW(6) {se6} > NW(0) {se0}");
    }

    #[test]
    fn singleton_clusters_reduce_to_hc1() {
        // With every observation its own cluster, the CRV1 meat is the
        // HC meat and the correction collapses to n/(n−k) — exactly HC1.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.3, 1.9, 4.5, 5.8, 8.6, 9.9];
        let x = DesignBuilder::new()
            .intercept(6)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        let singleton: Vec<usize> = (0..6).collect();
        let crv = fit.covariance_clustered(&singleton).unwrap();
        let hc1 = fit.covariance(CovEstimator::Hc1).unwrap();
        assert!(crv.max_abs_diff(&hc1) < 1e-12);
        // Labels need not be dense.
        let sparse: Vec<usize> = (0..6).map(|i| i * 100 + 7).collect();
        let crv2 = fit.covariance_clustered(&sparse).unwrap();
        assert!(crv2.max_abs_diff(&hc1) < 1e-12);
    }

    #[test]
    fn cluster_shared_shocks_widen_clustered_se() {
        // Five clusters of ten observations each share one big shock;
        // iid-flavored SEs treat the 50 rows as independent and
        // understate the uncertainty of the treatment coefficient
        // (treatment assigned at the cluster level, as in the fleet's
        // link-level design).
        let g = 5;
        let per = 10;
        let n = g * per;
        let mut clusters = Vec::with_capacity(n);
        let mut d = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for c in 0..g {
            let shock = [3.0, -2.0, 1.5, -3.5, 1.0][c];
            let treated = c % 2 == 0;
            for i in 0..per {
                clusters.push(c);
                d.push(if treated { 1.0 } else { 0.0 });
                // Tiny idiosyncratic noise on top of the shared shock.
                ys.push(10.0 + shock + 0.01 * ((i % 3) as f64 - 1.0));
            }
        }
        let x = DesignBuilder::new()
            .intercept(n)
            .unwrap()
            .column(&d)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        let se_cl = fit.std_errors_clustered(&clusters).unwrap()[1];
        let se_hc = fit.std_errors(CovEstimator::Hc1).unwrap()[1];
        assert!(
            se_cl > 2.0 * se_hc,
            "clustered SE {se_cl} should dwarf HC1 {se_hc}"
        );
    }

    #[test]
    fn clustered_covariance_input_validation() {
        let fit = simple_line_fit();
        // Wrong length.
        assert!(fit.covariance_clustered(&[0, 1]).is_err());
        // A single cluster cannot identify between-cluster variance.
        assert!(fit.covariance_clustered(&[7; 5]).is_err());
    }

    #[test]
    fn dummies_drop_reference_level() {
        let levels = [0usize, 1, 2, 0, 1, 2];
        let b = DesignBuilder::new()
            .intercept(6)
            .unwrap()
            .dummies(&levels)
            .unwrap();
        let x = b.build().unwrap();
        assert_eq!(x.ncols(), 3);
        // Row 0 has level 0 => both dummies zero.
        assert_eq!(x[(0, 1)], 0.0);
        assert_eq!(x[(0, 2)], 0.0);
        // Row 1 has level 1.
        assert_eq!(x[(1, 1)], 1.0);
        assert_eq!(x[(1, 2)], 0.0);
    }

    #[test]
    fn fixed_effects_absorb_group_means() {
        // y = group_effect + 2*d; with group dummies the treatment coefficient
        // must recover exactly 2 despite wildly different group levels.
        let groups = [0usize, 0, 1, 1, 2, 2];
        let d = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        let base = [10.0, 10.0, 100.0, 100.0, -50.0, -50.0];
        let ys: Vec<f64> = base.iter().zip(&d).map(|(b, t)| b + 2.0 * t).collect();
        let x = DesignBuilder::new()
            .intercept(6)
            .unwrap()
            .column(&d)
            .unwrap()
            .dummies(&groups)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        assert!(
            (fit.coef[1] - 2.0).abs() < 1e-9,
            "treatment coef {}",
            fit.coef[1]
        );
    }

    #[test]
    fn rank_deficiency_detected() {
        // Duplicate column => singular XᵀX.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let x = DesignBuilder::new()
            .column(&xs)
            .unwrap()
            .column(&xs)
            .unwrap()
            .build()
            .unwrap();
        assert!(matches!(
            Ols::fit(x, &[1.0, 2.0, 3.0, 4.0]),
            Err(StatsError::RankDeficient)
        ));
    }

    #[test]
    fn underdetermined_rejected() {
        let x = DesignBuilder::new().intercept(1).unwrap().build().unwrap();
        assert!(Ols::fit(x, &[1.0]).is_err());
    }

    #[test]
    fn p_value_small_for_strong_effect() {
        let n = 30;
        let d: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let ys: Vec<f64> = d
            .iter()
            .enumerate()
            .map(|(i, t)| 10.0 * t + if i % 4 < 2 { 0.1 } else { -0.1 })
            .collect();
        let x = DesignBuilder::new()
            .intercept(n)
            .unwrap()
            .column(&d)
            .unwrap()
            .build()
            .unwrap();
        let fit = Ols::fit(x, &ys).unwrap();
        assert!(fit.p_value(1, CovEstimator::Hc1).unwrap() < 1e-6);
    }
}
