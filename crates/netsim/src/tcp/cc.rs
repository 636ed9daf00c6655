//! The congestion-control interface and shared helpers.

use crate::config::CcKind;
use dessim::{SimDuration, SimTime};

/// Everything a congestion controller may want to know about an ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Fresh RTT sample, when the triggering segment was not retransmitted.
    pub rtt_sample: Option<SimDuration>,
    /// Smoothed RTT after incorporating this sample.
    pub srtt: SimDuration,
    /// Minimum RTT observed on the connection.
    pub min_rtt: SimDuration,
    /// Segments newly acknowledged cumulatively by this ACK.
    pub newly_acked: u64,
    /// Total segments delivered over the connection's lifetime.
    pub delivered_total: u64,
    /// Delivery-rate sample in bits/s (BBR-style: delivered over the
    /// interval since the acked segment was sent), when computable.
    pub delivery_rate_bps: Option<f64>,
    /// Whether the sender is currently in fast recovery.
    pub in_recovery: bool,
    /// Segments still in flight after this ACK.
    pub inflight_pkts: u64,
}

/// A congestion control algorithm.
///
/// The sender owns loss detection and recovery bookkeeping; the algorithm
/// only decides the congestion window and (optionally) a pacing rate.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Process an acknowledgment.
    fn on_ack(&mut self, ev: &AckEvent);

    /// A loss event was detected via duplicate ACKs (once per window).
    fn on_loss_event(&mut self, now: SimTime, inflight_pkts: u64);

    /// The retransmission timer fired.
    fn on_rto(&mut self, now: SimTime);

    /// Current congestion window in segments (fractional).
    fn cwnd_pkts(&self) -> f64;

    /// Pacing rate dictated by the algorithm itself (BBR), in bits/s.
    /// `None` means the algorithm does not pace; the flow may still be
    /// paced at the Linux cwnd-based rates if configured.
    fn pacing_rate_bps(&self, mss_bytes: u32) -> Option<f64>;

    /// Whether the algorithm considers itself in slow start (used to pick
    /// the Linux pacing factor).
    fn in_slow_start(&self) -> bool;
}

/// Instantiate a congestion controller.
pub(crate) fn build_cc(
    kind: CcKind,
    initial_cwnd: f64,
    mss_bytes: u32,
) -> Box<dyn CongestionControl> {
    match kind {
        CcKind::Reno => Box::new(super::reno::Reno::new(initial_cwnd)),
        CcKind::Cubic => Box::new(super::cubic::Cubic::new(initial_cwnd)),
        CcKind::Bbr => Box::new(super::bbr::Bbr::new(initial_cwnd, mss_bytes)),
    }
}

/// A max filter over a sliding window of "rounds" (used by BBR's
/// bottleneck-bandwidth estimator).
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowedMax {
    entries: Vec<(u64, f64)>,
    window: u64,
}

impl WindowedMax {
    /// Filter keeping the max over the last `window` rounds.
    pub(crate) fn new(window: u64) -> WindowedMax {
        WindowedMax {
            entries: Vec::new(),
            window,
        }
    }

    /// Insert a sample observed in `round`.
    pub(crate) fn update(&mut self, round: u64, value: f64) {
        self.entries.retain(|&(r, _)| r + self.window > round);
        self.entries.push((round, value));
    }

    /// Current windowed max given the current round.
    pub(crate) fn max(&self, current_round: u64) -> Option<f64> {
        self.entries
            .iter()
            .filter(|&&(r, _)| r + self.window > current_round)
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for kind in [CcKind::Reno, CcKind::Cubic, CcKind::Bbr] {
            let cc = build_cc(kind, 10.0, 1500);
            assert!(format!("{cc:?}").starts_with(&format!("{kind:?}")));
            assert!(cc.cwnd_pkts() > 0.0);
        }
    }

    #[test]
    fn windowed_max_expires_old_samples() {
        let mut f = WindowedMax::new(3);
        f.update(0, 100.0);
        f.update(1, 50.0);
        assert_eq!(f.max(1), Some(100.0));
        // Round 3: sample from round 0 has aged out (0 + 3 !> 3).
        f.update(3, 60.0);
        assert_eq!(f.max(3), Some(60.0));
    }

    #[test]
    fn windowed_max_tracks_maximum() {
        let mut f = WindowedMax::new(10);
        for (r, v) in [(0, 5.0), (1, 9.0), (2, 3.0)] {
            f.update(r, v);
        }
        assert_eq!(f.max(2), Some(9.0));
    }

    #[test]
    fn empty_filter_returns_none() {
        let f = WindowedMax::new(5);
        assert_eq!(f.max(0), None);
    }
}
