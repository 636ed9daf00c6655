//! Statistics for the analysis of randomized experiments.
//!
//! This crate implements, from scratch, exactly the statistical machinery
//! required by Appendix B of *Unbiased Experiments in Congested Networks*
//! (IMC '21):
//!
//! * ordinary least squares with arbitrary design matrices (hour-of-day
//!   fixed effects are just columns) — [`ols`],
//! * heteroskedasticity-and-autocorrelation-consistent (HAC) standard
//!   errors via the Newey–West estimator — [`ols::CovEstimator::NeweyWest`],
//! * normal, Student-t and chi-square distributions for confidence
//!   intervals and p-values — [`dist`],
//! * descriptive statistics, quantiles and quantile treatment effects —
//!   [`describe`], [`quantiles`],
//! * two-sample inference (Welch) used for unit-level A/B analysis —
//!   [`infer`],
//! * automatic HAC lag selection — [`timeseries`],
//! * mergeable one-pass accumulators (Welford cells, normal-equation OLS,
//!   CRV1 cluster state) for streaming fleet aggregation — [`accum`],
//! * data-quality guardrails (sample-ratio-mismatch chi-square) for
//!   lossy-telemetry pipelines — [`quality`],
//! * plain-text tables for figure output — [`table`] — and a seeded
//!   SplitMix64 stream — [`rng`].
//!
//! The Rust statistics ecosystem is young; implementing these ~15 routines
//! directly keeps the workspace dependency-free and lets us property-test
//! every numerical kernel against closed-form cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod describe;
pub mod dist;
pub mod infer;
pub mod linalg;
pub mod ols;
pub mod quality;
pub mod quantiles;
pub mod rng;
pub mod table;
pub mod timeseries;

pub use accum::{ClusterOlsAccum, OlsAccum, WelfordCell};
pub use describe::{mean, stddev, variance};
pub use infer::{
    columnwise_mean_ci, diff_in_means, diff_in_means_cells, mean_ci, welch_t_test, DiffEstimate,
};
pub use linalg::Matrix;
pub use ols::{CovEstimator, Ols, OlsFit};
pub use quality::{sample_ratio_mismatch, SrmCell, SrmTest};

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Not enough observations to compute the requested quantity.
    TooFewObservations {
        /// How many observations were provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The design matrix is rank deficient (or numerically so).
    RankDeficient,
    /// Dimension mismatch between inputs.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
    },
    /// An input parameter was outside its valid domain.
    InvalidParameter {
        /// Human-readable description of the violation.
        context: &'static str,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TooFewObservations { got, need } => {
                write!(f, "too few observations: got {got}, need at least {need}")
            }
            StatsError::RankDeficient => write!(f, "design matrix is rank deficient"),
            StatsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StatsError::InvalidParameter { context } => {
                write!(f, "invalid parameter: {context}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
