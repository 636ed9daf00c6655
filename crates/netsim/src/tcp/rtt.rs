//! RTT estimation and retransmission-timeout computation (RFC 6298).

use dessim::SimDuration;

/// Smoothed RTT estimator with RTO calculation.
///
/// Follows RFC 6298: `srtt ← 7/8·srtt + 1/8·sample`,
/// `rttvar ← 3/4·rttvar + 1/4·|srtt − sample|`, `rto = srtt + 4·rttvar`,
/// clamped below by `min_rto` (Linux uses 200 ms) and above by `max_rto`.
#[derive(Debug, Clone)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: Option<SimDuration>,
    min_rto: SimDuration,
    max_rto: SimDuration,
    initial_rto: SimDuration,
}

impl RttEstimator {
    /// New estimator with the given RTO floor.
    pub(crate) fn new(min_rto: SimDuration) -> RttEstimator {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: None,
            min_rto,
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
        }
    }

    /// Incorporate a new RTT sample (from a non-retransmitted segment).
    pub(crate) fn update(&mut self, sample: SimDuration) {
        self.min_rtt = Some(match self.min_rtt {
            None => sample,
            Some(m) => m.min(sample),
        });
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = SimDuration::from_nanos(sample.as_nanos() / 2);
            }
            Some(srtt) => {
                let sample_ns = sample.as_nanos() as i128;
                let srtt_ns = srtt.as_nanos() as i128;
                let err = (srtt_ns - sample_ns).unsigned_abs() as u64;
                self.rttvar = SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err) / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    ((7 * srtt_ns + sample_ns) / 8) as u64,
                ));
            }
        }
    }

    /// Smoothed RTT, if at least one sample has arrived.
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Minimum RTT observed so far.
    pub(crate) fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Current base RTO (before exponential backoff).
    pub(crate) fn rto(&self) -> SimDuration {
        match self.srtt {
            None => self.initial_rto,
            Some(srtt) => {
                let rto = srtt + self.rttvar.saturating_mul(4);
                rto.max(self.min_rto).min(self.max_rto)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(ms(200));
        assert_eq!(e.rto(), SimDuration::from_secs(1)); // initial RTO
        e.update(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        assert_eq!(e.min_rtt(), Some(ms(100)));
        // rto = srtt + 4*rttvar = 100 + 4*50 = 300ms.
        assert_eq!(e.rto(), ms(300));
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = RttEstimator::new(ms(10));
        for _ in 0..100 {
            e.update(ms(50));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_secs_f64() - 0.05).abs() < 0.001);
        // With zero variance the RTO converges to srtt but is floored.
        assert!(e.rto() >= ms(10));
        assert!(e.rto() <= ms(60));
    }

    #[test]
    fn min_rtt_tracks_smallest() {
        let mut e = RttEstimator::new(ms(200));
        e.update(ms(80));
        e.update(ms(40));
        e.update(ms(120));
        assert_eq!(e.min_rtt(), Some(ms(40)));
    }

    #[test]
    fn rto_floor_applies() {
        let mut e = RttEstimator::new(ms(200));
        for _ in 0..50 {
            e.update(ms(1));
        }
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn variance_widens_rto() {
        let mut stable = RttEstimator::new(ms(1));
        let mut jittery = RttEstimator::new(ms(1));
        for i in 0..100 {
            stable.update(ms(50));
            jittery.update(if i % 2 == 0 { ms(20) } else { ms(80) });
        }
        assert!(jittery.rto() > stable.rto());
    }
}
