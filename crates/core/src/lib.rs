//! **unbiased** — experiment designs for congested networks.
//!
//! The primary contribution of *Unbiased Experiments in Congested
//! Networks* (IMC '21) as a reusable library:
//!
//! * the Appendix-B analysis pipeline — hourly aggregation `Z_t(A)`,
//!   OLS with hour-of-day fixed effects, Newey–West (lag 2) robust
//!   standard errors, normalization by the global control mean —
//!   in [`analysis`];
//! * experiment designs in [`designs`]: the **paired-link** design of
//!   §4 (simultaneous 95%/5% tests on twin links, yielding naïve
//!   estimates, approximate TTE and spillover),
//!   **switchback** experiments and **event studies** (§5), and
//!   **gradual deployments** instrumented for interference detection;
//! * A/A calibration and false-positive scans in
//!   `aa_scan`-style helpers (see [`designs`]);
//! * fleet-scale estimators in [`fleet`]: link-clustered standard
//!   errors, the link-level (cluster) and stratified-paired contrasts,
//!   the between/within-link decomposition, and the simulator's
//!   ground-truth TTE;
//! * data-quality guardrails in [`guardrails`]: sample-ratio-mismatch
//!   and arm-differential missingness/duplication checks over the
//!   telemetry ledger, surfaced as [`guardrails::QualityFlag`]s on
//!   [`FleetEffect`];
//! * the session-record container [`dataset`] and the mergeable
//!   quantile sketch in [`quantiles`];
//! * rendering of the Figure-5 effects table in [`report`].
//!
//! The designs run against the `streamsim` paired-link world (and the
//! emulation helpers reuse paired-link data exactly as §5.3 does), while
//! the estimators come from `causal`/`expstats`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dataset;
pub mod designs;
pub mod fleet;
pub mod guardrails;
pub mod quantiles;
pub mod report;

pub use analysis::{hourly_effect, unit_effect, EffectEstimate};
pub use dataset::Dataset;
pub use fleet::FleetEffect;
pub use guardrails::{assess_fleet_quality, DataQuality, QualityFlag};
