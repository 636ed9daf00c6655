//! TCP Reno congestion control: slow start + AIMD congestion avoidance.

use super::cc::{AckEvent, CongestionControl};
use dessim::SimTime;

/// Classic Reno: slow start doubles the window each RTT; congestion
/// avoidance adds one segment per RTT; a loss event halves the window.
#[derive(Debug)]
pub(crate) struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Reno {
    /// Create with the given initial window (segments).
    pub(crate) fn new(initial_cwnd: f64) -> Reno {
        Reno {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
        }
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.in_recovery {
            // Window inflation during recovery is the sender's job.
            return;
        }
        let acked = ev.newly_acked as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: +1 segment per ACKed segment.
            self.cwnd += acked;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: +1/cwnd per ACKed segment.
            self.cwnd += acked / self.cwnd;
        }
    }

    fn on_loss_event(&mut self, _now: SimTime, inflight_pkts: u64) {
        self.ssthresh = (inflight_pkts as f64 / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate_bps(&self, _mss: u32) -> Option<f64> {
        None
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::SimDuration;

    fn ack(newly: u64, in_recovery: bool) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO,
            rtt_sample: Some(SimDuration::from_millis(20)),
            srtt: SimDuration::from_millis(20),
            min_rtt: SimDuration::from_millis(20),
            newly_acked: newly,
            delivered_total: 0,
            delivery_rate_bps: None,
            in_recovery,
            inflight_pkts: 10,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::new(10.0);
        // Acking a full window in slow start doubles cwnd.
        r.on_ack(&ack(10, false));
        assert!((r.cwnd_pkts() - 20.0).abs() < 1e-9);
        assert!(r.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut r = Reno::new(10.0);
        r.ssthresh = 10.0; // force CA
        assert!(!r.in_slow_start());
        // One full window of ACKs adds ~1 segment.
        let before = r.cwnd_pkts();
        for _ in 0..10 {
            r.on_ack(&ack(1, false));
        }
        assert!((r.cwnd_pkts() - before - 1.0).abs() < 0.06);
    }

    #[test]
    fn loss_halves_inflight() {
        let mut r = Reno::new(64.0);
        r.on_loss_event(SimTime::ZERO, 64);
        assert!((r.cwnd_pkts() - 32.0).abs() < 1e-9);
        assert!(!r.in_slow_start());
    }

    #[test]
    fn loss_floor_two_segments() {
        let mut r = Reno::new(2.0);
        r.on_loss_event(SimTime::ZERO, 2);
        assert_eq!(r.cwnd_pkts(), 2.0);
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut r = Reno::new(40.0);
        r.on_rto(SimTime::ZERO);
        assert_eq!(r.cwnd_pkts(), 1.0);
        assert_eq!(r.ssthresh, 20.0);
        assert!(r.in_slow_start());
    }

    #[test]
    fn recovery_acks_do_not_grow_window() {
        let mut r = Reno::new(10.0);
        r.on_ack(&ack(5, true));
        assert_eq!(r.cwnd_pkts(), 10.0);
    }

    #[test]
    fn slow_start_exit_clamps_to_ssthresh() {
        let mut r = Reno::new(10.0);
        r.ssthresh = 12.0;
        r.on_ack(&ack(10, false));
        assert_eq!(r.cwnd_pkts(), 12.0);
    }
}
