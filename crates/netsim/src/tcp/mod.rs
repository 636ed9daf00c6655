//! The TCP model: sender/receiver state machines, congestion control
//! algorithms, RTT estimation and pacing.
//!
//! The transport model is deliberately scoped to what bulk transfers over
//! a congested bottleneck exercise: MSS-sized segments, cumulative ACKs
//! with SACK blocks, delayed (aggregated) ACKs, a SACK scoreboard driving
//! fast retransmit and recovery, RTO with exponential backoff, Karn's
//! rule for RTT sampling. ECN and flow control are out of scope — none
//! of the paper's lab effects depend on them.

pub mod bbr;
pub mod cc;
pub mod cubic;
pub mod pacing;
pub mod receiver;
pub mod reno;
pub mod rtt;
pub mod sender;

pub use cc::{AckEvent, CongestionControl};
pub use receiver::Receiver;
pub use sender::Sender;
