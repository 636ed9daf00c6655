//! BBR v1 congestion control (Cardwell et al., "BBR: Congestion-Based
//! Congestion Control", CACM 2017).
//!
//! Model-based control: estimate the bottleneck bandwidth (windowed max of
//! delivery-rate samples over 10 rounds) and the round-trip propagation
//! delay (windowed min over 10 s, refreshed by ProbeRTT), then pace at
//! `pacing_gain × BtlBw` with an in-flight cap of `cwnd_gain × BDP`.
//! Loss is not a congestion signal — which is exactly why BBR competes
//! unfairly against loss-based algorithms in shallow buffers (§3.3 of the
//! paper).

use super::cc::{AckEvent, CongestionControl, WindowedMax};
use dessim::{SimDuration, SimTime};

/// Startup/Drain gain: 2/ln(2).
const HIGH_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Window (in rounds) of the bandwidth max filter.
const BW_WINDOW_ROUNDS: u64 = 10;
/// Max age of the min-RTT estimate before ProbeRTT.
const RTPROP_MAX_AGE: SimDuration = SimDuration::from_secs(10);
/// Duration cwnd is held at minimum during ProbeRTT.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// Minimal window in segments.
const MIN_CWND: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBR v1 state.
#[derive(Debug)]
pub(crate) struct Bbr {
    state: State,
    cwnd: f64,
    pacing_gain: f64,
    cwnd_gain: f64,

    bw_filter: WindowedMax,
    /// Round-trip propagation estimate (seconds).
    rt_prop_s: f64,
    rt_prop_stamp: SimTime,

    round_count: u64,
    next_round_delivered: u64,

    full_bw: f64,
    full_bw_count: u32,
    filled_pipe: bool,

    cycle_index: usize,
    cycle_stamp: SimTime,

    probe_rtt_done_stamp: Option<SimTime>,
    prior_cwnd: f64,
    /// In packet-conservation mode (loss recovery): cwnd tracks inflight.
    packet_conservation: bool,

    /// Initial window, used before the model has any samples.
    initial_cwnd: f64,
    mss_bytes: u32,
    last_srtt_s: f64,
}

impl Bbr {
    /// Create with the given initial window (segments) and segment size.
    pub(crate) fn new(initial_cwnd: f64, mss_bytes: u32) -> Bbr {
        Bbr {
            state: State::Startup,
            cwnd: initial_cwnd,
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            bw_filter: WindowedMax::new(BW_WINDOW_ROUNDS),
            rt_prop_s: f64::INFINITY,
            rt_prop_stamp: SimTime::ZERO,
            round_count: 0,
            next_round_delivered: 0,
            full_bw: 0.0,
            full_bw_count: 0,
            filled_pipe: false,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_stamp: None,
            prior_cwnd: initial_cwnd,
            packet_conservation: false,
            initial_cwnd,
            mss_bytes,
            last_srtt_s: 0.0,
        }
    }

    /// Current bottleneck-bandwidth estimate in bits/s.
    pub(crate) fn btl_bw_bps(&self) -> Option<f64> {
        self.bw_filter.max(self.round_count)
    }

    /// BDP in segments for the current model.
    fn bdp_pkts(&self, mss: u32, gain: f64) -> Option<f64> {
        let bw = self.btl_bw_bps()?;
        if !self.rt_prop_s.is_finite() {
            return None;
        }
        Some(gain * bw * self.rt_prop_s / (mss as f64 * 8.0))
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = State::ProbeBw;
        self.pacing_gain = 1.0;
        self.cwnd_gain = 2.0;
        // Start just past the 1.25 phase so freshly converged flows do not
        // all probe in lockstep; v1 randomizes similarly.
        self.cycle_index = (2 + (now.as_nanos() % 6) as usize) % 8;
        self.cycle_stamp = now;
    }

    fn check_cycle_phase(&mut self, now: SimTime, inflight: u64, mss: u32) {
        if self.state != State::ProbeBw {
            return;
        }
        let phase_len = SimDuration::from_secs_f64(self.rt_prop_s.max(1e-4));
        let elapsed = now.since(self.cycle_stamp.min(now));
        let advance = if CYCLE_GAINS[self.cycle_index] == 0.75 {
            // Leave the drain phase as soon as the queue we built is gone.
            elapsed >= phase_len
                || self
                    .bdp_pkts(mss, 1.0)
                    .is_some_and(|bdp| (inflight as f64) <= bdp)
        } else {
            elapsed >= phase_len
        };
        if advance {
            self.cycle_index = (self.cycle_index + 1) % 8;
            self.cycle_stamp = now;
        }
        self.pacing_gain = CYCLE_GAINS[self.cycle_index];
    }

    fn check_full_pipe(&mut self, round_start: bool) {
        if self.filled_pipe || !round_start {
            return;
        }
        let bw = self.btl_bw_bps().unwrap_or(0.0);
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
            if self.full_bw_count >= 3 {
                self.filled_pipe = true;
            }
        }
    }

    fn update_cwnd(&mut self, ev: &AckEvent, mss: u32) {
        if self.state == State::ProbeRtt {
            self.cwnd = MIN_CWND;
            return;
        }
        // Packet conservation throughout loss recovery (bbr_set_cwnd in
        // Linux): the window tracks what is actually in flight, which is
        // what makes BBRv1 yield ground to loss-based algorithms while
        // they are in their multiplicative-decrease phase.
        if ev.in_recovery {
            if self.packet_conservation {
                self.cwnd = (ev.inflight_pkts as f64 + ev.newly_acked as f64).max(MIN_CWND);
            }
            return;
        }
        if self.packet_conservation {
            // Recovery ended: resume normal growth from conserved state.
            // (We deliberately do not restore the pre-recovery window in
            // one jump; regrowing toward the BDP target avoids re-bursting
            // into a queue that just overflowed.)
            self.packet_conservation = false;
        }
        let target = match self.bdp_pkts(mss, self.cwnd_gain) {
            Some(t) => t.max(MIN_CWND),
            None => self.initial_cwnd.max(MIN_CWND),
        };
        if self.filled_pipe {
            self.cwnd = (self.cwnd + ev.newly_acked as f64).min(target);
        } else {
            // Startup: grow without the target cap so probing can continue.
            self.cwnd += ev.newly_acked as f64;
            if self.cwnd > target && self.btl_bw_bps().is_some() {
                self.cwnd = self.cwnd.min(target.max(self.initial_cwnd * 2.0));
            }
        }
        self.cwnd = self.cwnd.max(MIN_CWND);
    }
}

impl CongestionControl for Bbr {
    fn on_ack(&mut self, ev: &AckEvent) {
        let now = ev.now;
        let mss = self.mss_bytes;
        self.last_srtt_s = ev.srtt.as_secs_f64();

        // Round accounting.
        let round_start = ev.delivered_total >= self.next_round_delivered;
        if round_start {
            self.round_count += 1;
            self.next_round_delivered = ev.delivered_total + ev.inflight_pkts;
        }

        // Model updates.
        if let Some(rate) = ev.delivery_rate_bps {
            if rate > 0.0 {
                self.bw_filter.update(self.round_count, rate);
            }
        }
        // Compute staleness BEFORE refreshing the estimate: the same flag
        // both admits a higher sample and triggers ProbeRTT entry below
        // (mirrors BBRUpdateRTprop / BBRCheckProbeRTT ordering in the
        // reference pseudocode).
        let rt_prop_expired = now.since(self.rt_prop_stamp.min(now)) > RTPROP_MAX_AGE;
        if let Some(rtt) = ev.rtt_sample {
            let rtt_s = rtt.as_secs_f64();
            if rtt_s <= self.rt_prop_s || rt_prop_expired {
                self.rt_prop_s = rtt_s;
                self.rt_prop_stamp = now;
            }
        }

        // State machine.
        self.check_full_pipe(round_start);
        match self.state {
            State::Startup => {
                if self.filled_pipe {
                    self.state = State::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
            State::Drain => {
                if let Some(bdp) = self.bdp_pkts(mss, 1.0) {
                    if (ev.inflight_pkts as f64) <= bdp {
                        self.enter_probe_bw(now);
                    }
                }
            }
            State::ProbeBw => {}
            State::ProbeRtt => {
                if self.probe_rtt_done_stamp.is_none() && ev.inflight_pkts as f64 <= MIN_CWND {
                    self.probe_rtt_done_stamp = Some(
                        now + PROBE_RTT_DURATION.max(SimDuration::from_secs_f64(self.last_srtt_s)),
                    );
                }
                if let Some(done) = self.probe_rtt_done_stamp {
                    if now >= done {
                        self.rt_prop_stamp = now;
                        self.cwnd = self.prior_cwnd;
                        if self.filled_pipe {
                            self.enter_probe_bw(now);
                        } else {
                            self.state = State::Startup;
                            self.pacing_gain = HIGH_GAIN;
                            self.cwnd_gain = HIGH_GAIN;
                        }
                        self.probe_rtt_done_stamp = None;
                    }
                }
            }
        }

        // ProbeRTT entry: the min-RTT estimate had gone stale.
        if self.state != State::ProbeRtt && rt_prop_expired && ev.rtt_sample.is_some() {
            self.state = State::ProbeRtt;
            self.pacing_gain = 1.0;
            self.prior_cwnd = self.cwnd;
            self.probe_rtt_done_stamp = None;
        }

        self.check_cycle_phase(now, ev.inflight_pkts, mss);
        self.update_cwnd(ev, mss);
    }

    fn on_loss_event(&mut self, _now: SimTime, inflight_pkts: u64) {
        // BBR v1 does not reduce its *model* on loss, but Linux's
        // implementation applies packet conservation on recovery entry:
        // cwnd collapses to the data actually in flight and tracks it for
        // the rest of the recovery episode (bbr_save_cwnd / bbr_set_cwnd),
        // restoring the saved window afterwards.
        if !self.packet_conservation {
            self.prior_cwnd = self.cwnd;
        }
        self.packet_conservation = true;
        self.cwnd = (inflight_pkts as f64 + 1.0).max(MIN_CWND);
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Conservative restart after a timeout.
        self.prior_cwnd = self.cwnd;
        self.cwnd = MIN_CWND;
    }

    fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate_bps(&self, mss_bytes: u32) -> Option<f64> {
        match self.btl_bw_bps() {
            Some(bw) => Some((self.pacing_gain * bw).max(1e3)),
            None => {
                // No samples yet: pace the initial window over the
                // smoothed RTT (or a 10 ms guess before any sample).
                let rtt = if self.last_srtt_s > 0.0 {
                    self.last_srtt_s
                } else {
                    0.01
                };
                Some(HIGH_GAIN * self.initial_cwnd * mss_bytes as f64 * 8.0 / rtt)
            }
        }
    }

    fn in_slow_start(&self) -> bool {
        self.state == State::Startup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(
        secs: f64,
        rtt_ms: u64,
        newly: u64,
        delivered: u64,
        rate: f64,
        inflight: u64,
    ) -> AckEvent {
        AckEvent {
            now: SimTime::from_nanos((secs * 1e9) as u64),
            rtt_sample: Some(SimDuration::from_millis(rtt_ms)),
            srtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            newly_acked: newly,
            delivered_total: delivered,
            delivery_rate_bps: Some(rate),
            in_recovery: false,
            inflight_pkts: inflight,
        }
    }

    /// Drive BBR with a steady 100 Mb/s delivery rate and 20 ms RTT.
    fn drive_steady(b: &mut Bbr, start: f64, steps: usize) -> f64 {
        let mut delivered = 0;
        let mut t = start;
        for _ in 0..steps {
            delivered += 10;
            t += 0.02;
            b.on_ack(&ack(t, 20, 10, delivered, 100e6, 20));
        }
        t
    }

    #[test]
    fn startup_exits_when_bandwidth_plateaus() {
        let mut b = Bbr::new(10.0, 1500);
        assert!(b.in_slow_start());
        drive_steady(&mut b, 0.0, 50);
        // Bandwidth stopped growing => pipe filled => left Startup.
        assert!(b.filled_pipe);
        assert!(!b.in_slow_start());
    }

    #[test]
    fn converges_to_probe_bw() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 200);
        assert_eq!(b.state, State::ProbeBw);
        // In ProbeBW the pacing gain cycles around 1.0.
        assert!(CYCLE_GAINS.contains(&b.pacing_gain));
    }

    #[test]
    fn bandwidth_estimate_tracks_delivery_rate() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 100);
        let bw = b.btl_bw_bps().unwrap();
        assert!((bw - 100e6).abs() / 100e6 < 0.01, "bw {bw}");
    }

    #[test]
    fn cwnd_capped_near_two_bdp_after_convergence() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 500);
        // BDP = 100 Mb/s * 20 ms / (1500*8) ≈ 167 pkts; cwnd_gain = 2.
        let cwnd = b.cwnd_pkts();
        assert!(cwnd > 150.0 && cwnd < 400.0, "cwnd {cwnd}");
    }

    #[test]
    fn loss_applies_packet_conservation_not_model_reduction() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 200);
        let bw_before = b.btl_bw_bps().unwrap();
        b.on_loss_event(SimTime::ZERO, 100);
        // cwnd collapses to inflight + 1 (packet conservation)...
        assert_eq!(b.cwnd_pkts(), 101.0);
        // ...but the bandwidth model is untouched.
        assert_eq!(b.btl_bw_bps().unwrap(), bw_before);
        // And the window regrows from conserved state on further acks.
        // Continue the ack clock where drive_steady left off so the
        // min-RTT estimate does not go stale mid-test.
        let mut delivered = 20_000;
        let mut t = 4.0;
        for _ in 0..50 {
            delivered += 10;
            t += 0.02;
            b.on_ack(&ack(t, 20, 10, delivered, 100e6, 20));
        }
        assert!(b.cwnd_pkts() > 100.0);
    }

    #[test]
    fn probe_rtt_entered_when_estimate_stale() {
        let mut b = Bbr::new(10.0, 1500);
        let t = drive_steady(&mut b, 0.0, 100);
        // Keep acking with *higher* RTTs for > 10 s so rt_prop goes stale.
        let mut delivered = 10_000;
        let mut now = t;
        let mut entered = false;
        for _ in 0..800 {
            delivered += 10;
            now += 0.02;
            b.on_ack(&ack(now, 40, 10, delivered, 100e6, 20));
            if b.state == State::ProbeRtt {
                entered = true;
                break;
            }
        }
        assert!(entered, "never entered ProbeRTT");
        assert_eq!(b.cwnd_pkts(), MIN_CWND);
    }

    #[test]
    fn pacing_rate_follows_gain() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 200);
        let rate = b.pacing_rate_bps(1500).unwrap();
        let bw = b.btl_bw_bps().unwrap();
        assert!((rate - b.pacing_gain * bw).abs() < 1.0);
    }

    #[test]
    fn pacing_defined_before_any_sample() {
        let b = Bbr::new(10.0, 1500);
        assert!(b.pacing_rate_bps(1500).unwrap() > 0.0);
    }

    #[test]
    fn rto_shrinks_window_to_minimum() {
        let mut b = Bbr::new(10.0, 1500);
        drive_steady(&mut b, 0.0, 200);
        b.on_rto(SimTime::ZERO);
        assert_eq!(b.cwnd_pkts(), MIN_CWND);
    }
}
