//! Packet-level network simulator for congestion-interference experiments.
//!
//! Reproduces the lab testbed of §3 of *Unbiased Experiments in Congested
//! Networks* (IMC '21): a dumbbell topology where a set of applications,
//! each owning one or more TCP connections, share a single DropTail
//! bottleneck. The original testbed was two Linux servers and a Tofino
//! switch; here every component is simulated, which preserves the
//! phenomenon under study — treatment and control flows competing in one
//! queue — while making experiments deterministic and laptop-scale.
//!
//! What is implemented (and what deliberately is not):
//!
//! * MSS-sized segments, cumulative ACKs, duplicate-ACK counting, fast
//!   retransmit, NewReno partial-ACK recovery, RTO with exponential
//!   backoff and go-back-N. **No SACK**, no delayed ACKs, no Nagle —
//!   bulk-transfer dynamics do not need them.
//! * Congestion control behind a trait: `tcp::reno::Reno`,
//!   `tcp::cubic::Cubic` and a model-faithful `tcp::bbr::Bbr` (v1
//!   state machine: Startup/Drain/ProbeBW/ProbeRTT, windowed max
//!   bandwidth and min-RTT filters, gain cycling).
//! * Optional packet pacing at the Linux rates (2·cwnd/sRTT in slow
//!   start, 1.2·cwnd/sRTT in congestion avoidance); BBR always paces.
//! * A shared access link at a configurable multiple of the bottleneck
//!   rate, so bursts of unpaced traffic arrive faster than the bottleneck
//!   drains — the mechanism behind the pacing experiment.
//! * Deterministic per-flow RNG streams; optional random-loss fault
//!   injection for testing loss recovery.
//!
//! Entry point: build a [`config::DumbbellConfig`] and call
//! [`harness::run_dumbbell`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod harness;
pub mod metrics;
pub mod network;
pub mod packet;
pub mod queue;
pub mod tcp;

pub use config::{AppConfig, CcKind, DumbbellConfig};
pub use harness::{run_dumbbell, LabResult};
pub use metrics::{AppMetrics, FlowMetrics};
