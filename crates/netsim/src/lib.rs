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
//! * MSS-sized segments and cumulative ACKs carrying up to three SACK
//!   blocks. The sender keeps a SACK scoreboard: a segment is lost once
//!   three segments above it are SACKed, and fast retransmit and
//!   recovery are SACK-driven with RFC 6675-style pipe accounting. An
//!   RTO backs off exponentially, keeps the scoreboard and queues every
//!   unSACKed segment for retransmission.
//! * Delayed ACKs: receivers ACK every
//!   [`config::DumbbellConfig::ack_aggregation`] in-order segments (2 by
//!   default; larger values model GRO coalescing) and flush a partial
//!   aggregate after 1 ms; out-of-order and duplicate segments are ACKed
//!   at once. No Nagle, ECN or receive-window flow control —
//!   bulk-transfer dynamics do not need them.
//! * Congestion control behind a trait: `tcp::reno::Reno`,
//!   `tcp::cubic::Cubic` and a model-faithful `tcp::bbr::Bbr` (v1
//!   state machine: Startup/Drain/ProbeBW/ProbeRTT, windowed max
//!   bandwidth and min-RTT filters, gain cycling).
//! * Optional packet pacing at the Linux rates (2·cwnd/sRTT in slow
//!   start, 1.2·cwnd/sRTT in congestion avoidance); BBR always paces.
//! * A shared access link at twice the bottleneck rate, so bursts of
//!   unpaced traffic arrive faster than the bottleneck drains — the
//!   mechanism behind the pacing experiment.
//! * Determinism: the config's seed alone draws the per-flow RTT jitter
//!   and the staggered flow starts, so a rerun is bit-identical.
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
