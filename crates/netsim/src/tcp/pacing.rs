//! Packet pacing.
//!
//! Linux has paced TCP since 2013 (`fq`/TSQ): packets are spread at
//! `2·cwnd/sRTT` during slow start and `1.2·cwnd/sRTT` during congestion
//! avoidance, per the `tcp_pacing_ss_ratio`/`tcp_pacing_ca_ratio` sysctls
//! the paper cites. BBR supplies its own rate (`pacing_gain × BtlBw`).

use dessim::{SimDuration, SimTime};

/// Pacing factor applied to `cwnd/sRTT` during slow start.
pub(crate) const LINUX_SS_FACTOR: f64 = 2.0;
/// Pacing factor applied to `cwnd/sRTT` during congestion avoidance.
pub(crate) const LINUX_CA_FACTOR: f64 = 1.2;
/// cwnd-based pacing at an explicit factor: `factor × cwnd / sRTT`.
///
/// Factor 1.0 reproduces the `(cwnd+1)/RTT` pacing of Aggarwal et al.
/// (the paper's §3.2 citation); because sRTT includes queueing delay, a
/// flow paced at ≤ 1.0 can never send faster than its recently *achieved*
/// rate, which is the mechanism that lets unpaced traffic outcompete it.
pub(crate) fn cwnd_pacing_rate_bps(
    cwnd_pkts: f64,
    mss_bytes: u32,
    srtt: SimDuration,
    factor: f64,
) -> f64 {
    let srtt_s = srtt.as_secs_f64().max(1e-6);
    factor * cwnd_pkts * mss_bytes as f64 * 8.0 / srtt_s
}

/// Token-less pacer: tracks the earliest time the next packet may leave.
#[derive(Debug, Clone)]
pub(crate) struct Pacer {
    next_send: SimTime,
}

impl Default for Pacer {
    fn default() -> Self {
        Pacer::new()
    }
}

impl Pacer {
    /// A pacer that allows an immediate first transmission.
    pub(crate) fn new() -> Pacer {
        Pacer {
            next_send: SimTime::ZERO,
        }
    }

    /// Whether a packet may be sent at `now`.
    pub(crate) fn ready(&self, now: SimTime) -> bool {
        now >= self.next_send
    }

    /// Earliest permitted send time.
    pub(crate) fn next_send(&self) -> SimTime {
        self.next_send
    }

    /// Account for a transmission of `bytes` at `now` with the given rate;
    /// the next packet is released one serialization time later.
    pub(crate) fn on_send(&mut self, now: SimTime, bytes: u32, rate_bps: f64) {
        let gap = SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps.max(1.0));
        self.next_send = self.next_send.max(now) + gap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_first_send() {
        let p = Pacer::new();
        assert!(p.ready(SimTime::ZERO));
    }

    #[test]
    fn spaces_packets_at_rate() {
        let mut p = Pacer::new();
        let t0 = SimTime::ZERO;
        // 1500 B at 12 Mb/s = 1 ms per packet.
        p.on_send(t0, 1500, 12e6);
        assert!(!p.ready(t0));
        assert_eq!(p.next_send(), t0 + SimDuration::from_millis(1));
        p.on_send(p.next_send(), 1500, 12e6);
        assert_eq!(p.next_send(), t0 + SimDuration::from_millis(2));
    }

    #[test]
    fn idle_period_does_not_bank_credit() {
        let mut p = Pacer::new();
        let late = SimTime::ZERO + SimDuration::from_secs(5);
        p.on_send(late, 1500, 12e6);
        // Next send is relative to `late`, not to the epoch.
        assert_eq!(p.next_send(), late + SimDuration::from_millis(1));
    }

    #[test]
    fn linux_rates() {
        let srtt = SimDuration::from_millis(20);
        // cwnd 10, mss 1500: raw rate = 10*1500*8/0.02 = 6 Mb/s.
        let ss = cwnd_pacing_rate_bps(10.0, 1500, srtt, LINUX_SS_FACTOR);
        let ca = cwnd_pacing_rate_bps(10.0, 1500, srtt, 1.2);
        assert!((ss - 12e6).abs() < 1.0);
        assert!((ca - 7.2e6).abs() < 1.0);
        assert!(ss > ca);
    }

    #[test]
    fn zero_rtt_guard() {
        let r = cwnd_pacing_rate_bps(10.0, 1500, SimDuration::ZERO, 1.2);
        assert!(r.is_finite() && r > 0.0);
    }
}
