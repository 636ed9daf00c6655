//! Potential-outcomes causal inference for networking experiments.
//!
//! Implements §2 of *Unbiased Experiments in Congested Networks*
//! (IMC '21). The estimands a networking experimenter cares about are
//!
//! * average treatment effect `τ(p) = μ_T(p) − μ_C(p)`,
//! * **total treatment effect** `TTE = μ_T(1) − μ_C(0)`,
//! * **spillover** `s(p) = μ_C(p) − μ_C(0)`.
//!
//! The crate provides treatment assignment mechanisms ([`assignment`]),
//! the naïve A/B and cluster between/within estimators
//! ([`estimators`]), allocation–response ("Figure 1") curves
//! ([`exposure`]) and SUTVA/interference diagnostics for gradual
//! deployments ([`sutva`]).
//!
//! Closed-form congestion models in [`potential`] (no interference and
//! fair-share bandwidth allocation) provide exact ground truth: estimator
//! unbiasedness is property-tested against them, and the lab simulations
//! in `netsim` are sanity-checked against their predictions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod estimators;
pub mod exposure;
pub mod potential;
pub mod sutva;

pub use assignment::Assignment;
pub use estimators::{between_within, naive_ab, BetweenWithin, ClusterCell};
pub use exposure::ExposureCurves;
pub use potential::PotentialOutcomes;
