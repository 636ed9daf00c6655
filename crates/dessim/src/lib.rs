//! Deterministic discrete-event simulation kernel.
//!
//! The event kernel ([`Simulation`], [`EventQueue`]) drives the
//! packet-level network simulator (`netsim`). The fluid streaming
//! simulator (`streamsim`) advances in fixed ticks and spans of its own
//! and uses only this crate's RNG streams, [`fast_exp`] and
//! [`ConfigError`]. Design goals, in order:
//!
//! 1. **Determinism.** Identical seeds and configurations produce
//!    bit-identical event orderings. Ties in event time are broken by
//!    insertion order (FIFO), never by heap internals.
//! 2. **Simplicity.** A virtual clock, a binary-heap event queue and a
//!    `Model::handle` callback. No async runtime: simulation is CPU-bound,
//!    and the networking guides are explicit that async buys nothing for
//!    CPU-bound work.
//! 3. **Explicit randomness.** Components draw from [`rng::SimRng`]
//!    streams forked from a root seed, so adding a component never
//!    perturbs the draws seen by others.
//!
//! It also defines [`ConfigError`], the one validation error every
//! simulator input in the workspace reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod fastmath;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use config::{require, ConfigError};
pub use fastmath::fast_exp;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sim::{Model, Scheduler, Simulation};
pub use time::{SimDuration, SimTime};
