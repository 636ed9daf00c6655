//! The repository benchmark: end-to-end and per-layer measurements of
//! the congested-link simulator and its fleet estimators, every output
//! checked against the tick-loop oracle. `NOTES.md` beside this crate
//! explains the workloads and metrics.

pub mod fingerprint;
pub mod measure;
pub mod report;
pub mod workload;
