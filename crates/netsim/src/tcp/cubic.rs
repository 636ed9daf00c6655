//! TCP Cubic congestion control (RFC 8312).
//!
//! Window growth follows the cubic function
//! `W(t) = C·(t − K)³ + W_max` anchored at the last loss, with fast
//! convergence and a Reno-friendly lower bound.

use super::cc::{AckEvent, CongestionControl};
use dessim::SimTime;

const C: f64 = 0.4;
const BETA: f64 = 0.7;

/// Cubic congestion control state.
#[derive(Debug)]
pub(crate) struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    /// Epoch start (seconds of sim time); `None` until the first ACK after
    /// a loss establishes a new cubic epoch.
    epoch_start: Option<f64>,
    k: f64,
}

impl Cubic {
    /// Create with the given initial window (segments).
    pub(crate) fn new(initial_cwnd: f64) -> Cubic {
        Cubic {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }

    fn begin_epoch(&mut self, now_s: f64) {
        self.epoch_start = Some(now_s);
        if self.w_max > self.cwnd {
            self.k = ((self.w_max - self.cwnd) / C).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = self.cwnd;
        }
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.in_recovery {
            return;
        }
        let acked = ev.newly_acked as f64;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
            return;
        }
        let now_s = ev.now.as_secs_f64();
        if self.epoch_start.is_none() {
            self.begin_epoch(now_s);
        }
        let t = now_s - self.epoch_start.expect("epoch initialized above");
        let srtt = ev.srtt.as_secs_f64();
        // Target one RTT ahead, per RFC 8312 §4.1.
        let target = {
            let dt = t + srtt - self.k;
            C * dt * dt * dt + self.w_max
        };
        if target > self.cwnd {
            self.cwnd += (target - self.cwnd) / self.cwnd * acked;
        } else {
            // Minimal growth in the concave plateau.
            self.cwnd += 0.01 * acked / self.cwnd;
        }
        // TCP-friendly region (standard TCP's AIMD estimate).
        if srtt > 0.0 {
            let w_est = self.w_max * BETA + 3.0 * (1.0 - BETA) / (1.0 + BETA) * (t / srtt);
            if w_est > self.cwnd {
                self.cwnd = w_est;
            }
        }
    }

    fn on_loss_event(&mut self, _now: SimTime, inflight_pkts: u64) {
        let inflight = inflight_pkts as f64;
        // Fast convergence: release bandwidth when the window is shrinking.
        if inflight < self.w_max {
            self.w_max = inflight * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = inflight;
        }
        self.cwnd = (inflight * BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * BETA).max(2.0);
        self.cwnd = 1.0;
        self.epoch_start = None;
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

    fn ack_at(secs: f64, newly: u64) -> AckEvent {
        AckEvent {
            now: SimTime::from_nanos((secs * 1e9) as u64),
            rtt_sample: Some(SimDuration::from_millis(20)),
            srtt: SimDuration::from_millis(20),
            min_rtt: SimDuration::from_millis(20),
            newly_acked: newly,
            delivered_total: 0,
            delivery_rate_bps: None,
            in_recovery: false,
            inflight_pkts: 10,
        }
    }

    #[test]
    fn slow_start_grows_exponentially() {
        let mut c = Cubic::new(10.0);
        c.on_ack(&ack_at(0.0, 10));
        assert!((c.cwnd_pkts() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut c = Cubic::new(100.0);
        c.ssthresh = 100.0;
        c.on_loss_event(SimTime::ZERO, 100);
        assert!((c.cwnd_pkts() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_recovers_toward_wmax() {
        // After a loss at w=100 the window should climb back toward ~100
        // over the K horizon rather than growing linearly like Reno.
        let mut c = Cubic::new(100.0);
        c.ssthresh = 100.0;
        c.on_loss_event(SimTime::ZERO, 100);
        let w_after_loss = c.cwnd_pkts();
        // Simulate steady ACK clock: 500 acks over 10 seconds.
        for i in 0..500 {
            let t = 0.02 * (i + 1) as f64;
            c.on_ack(&ack_at(t, 1));
        }
        assert!(
            c.cwnd_pkts() > w_after_loss,
            "window should grow after loss"
        );
        // Should have grown back near or past W_max.
        assert!(c.cwnd_pkts() > 90.0, "cwnd {}", c.cwnd_pkts());
    }

    fn ack_at_rtt(secs: f64, rtt_ms: u64, newly: u64) -> AckEvent {
        AckEvent {
            now: SimTime::from_nanos((secs * 1e9) as u64),
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            srtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            newly_acked: newly,
            delivered_total: 0,
            delivery_rate_bps: None,
            in_recovery: false,
            inflight_pkts: 10,
        }
    }

    #[test]
    fn growth_is_concave_then_convex() {
        // In the high-BDP regime (large window, 100 ms RTT) the cubic
        // curve dominates the TCP-friendly bound: growth is fast right
        // after loss, flattens near w_max (concave), then accelerates
        // past it (convex).
        let mut c = Cubic::new(1000.0);
        c.ssthresh = 1000.0;
        c.on_loss_event(SimTime::ZERO, 1000);
        // K = cbrt(300/0.4) ≈ 9.1 s for this drop.
        let mut deltas = Vec::new();
        let mut prev = c.cwnd_pkts();
        for i in 0..2000 {
            let t = 0.01 * (i + 1) as f64; // 20 s total
                                           // ~1000 segs/s ack clock so cwnd tracks the cubic target.
            c.on_ack(&ack_at_rtt(t, 100, 10));
            if i % 200 == 199 {
                deltas.push(c.cwnd_pkts() - prev);
                prev = c.cwnd_pkts();
            }
        }
        // Growth per 2 s interval should first shrink (concave approach
        // to the plateau)...
        assert!(deltas[1] < deltas[0], "deltas {deltas:?}");
        // ...and eventually accelerate (convex probing past w_max).
        let late = deltas[deltas.len() - 1];
        let mid = deltas[4]; // near the K plateau
        assert!(late > mid, "deltas {deltas:?}");
        assert!(
            c.cwnd_pkts() > 1000.0,
            "probed past w_max: {}",
            c.cwnd_pkts()
        );
    }

    #[test]
    fn fast_convergence_reduces_wmax() {
        let mut c = Cubic::new(100.0);
        c.ssthresh = 100.0;
        c.w_max = 200.0; // previous peak was higher
        c.on_loss_event(SimTime::ZERO, 100);
        // w_max should be reduced below the inflight at loss.
        assert!((c.w_max - 100.0 * (2.0 - BETA) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn rto_resets_window() {
        let mut c = Cubic::new(50.0);
        c.on_rto(SimTime::ZERO);
        assert_eq!(c.cwnd_pkts(), 1.0);
        assert!(c.in_slow_start());
    }

    #[test]
    fn tcp_friendly_floor_in_plateau() {
        // Deep in an epoch with tiny cubic growth, the Reno estimate must
        // take over eventually.
        let mut c = Cubic::new(10.0);
        c.ssthresh = 10.0;
        c.w_max = 10.2; // small gap => flat cubic curve
        c.begin_epoch(0.0);
        for i in 0..5000 {
            let t = 0.02 * (i + 1) as f64;
            c.on_ack(&ack_at(t, 1));
        }
        // After 100 seconds the Reno component alone is large.
        assert!(c.cwnd_pkts() > 20.0, "cwnd {}", c.cwnd_pkts());
    }
}
