//! The send-side TCP state machine: sliding window, SACK scoreboard
//! (RFC 6675-style pipe accounting), fast retransmit, RTO with backoff,
//! pacing hooks and BBR-style delivery-rate samples.
//!
//! Loss detection: an unSACKed segment is deemed lost once the highest
//! SACKed sequence is at least `DUP_ACK_THRESHOLD` (3) segments above it
//! (the sequence-based approximation of "three duplicate ACKs"). Lost
//! segments are queued for retransmission; the send loop services the
//! retransmission queue before new data, gated by `pipe < cwnd`.

use super::cc::{build_cc, AckEvent, CongestionControl};
use super::pacing::{cwnd_pacing_rate_bps, Pacer, LINUX_CA_FACTOR, LINUX_SS_FACTOR};
use super::rtt::RttEstimator;
use crate::config::CcKind;
use crate::metrics::FlowCounters;
use crate::packet::{Ack, AppId, FlowId, Packet};
use dessim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Segment-gap threshold for deeming a segment lost (mirrors the
/// classic three-duplicate-ACK rule).
const DUP_ACK_THRESHOLD: u64 = 3;
/// Initial congestion window in segments (Linux IW10).
const INITIAL_CWND: f64 = 10.0;
/// Maximum RTO backoff exponent.
const MAX_BACKOFF: u32 = 6;

/// Metadata retained per in-flight segment for RTT/rate sampling.
///
/// The extra timestamps implement the delivery-rate estimator of
/// draft-cheng-iccrg-delivery-rate-estimation: a sample's interval is the
/// *maximum* of the send-side and ack-side elapsed times, which prevents
/// overestimation when sending was bursty.
#[derive(Debug, Clone, Copy)]
struct PktMeta {
    sent_at: SimTime,
    delivered_at_send: u64,
    delivered_time_at_send: SimTime,
    first_sent_at_send: SimTime,
    is_retx: bool,
}

/// A bulk-transfer TCP sender (always has data to send).
pub struct Sender {
    flow: FlowId,
    app: AppId,
    mss: u32,
    paced: bool,

    next_seq: u64,
    high_ack: u64,

    /// SACKed segments above `high_ack`.
    sacked: BTreeSet<u64>,
    /// Segments deemed lost and awaiting retransmission.
    retx_queue: BTreeSet<u64>,
    /// Retransmitted segments not yet (S)ACKed, with retransmission time.
    /// Used to detect *lost retransmissions* (RACK-style reordering
    /// window), without which a dropped retransmission stalls until RTO.
    retx_inflight: BTreeMap<u64, SimTime>,
    /// Highest sequence already scanned for loss marking.
    loss_scan_frontier: u64,
    /// While `Some(p)`, in fast recovery until `high_ack >= p`.
    recovery_point: Option<u64>,

    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    rtt: RttEstimator,
    rtt_hint: SimDuration,

    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    pace_wake: Option<SimTime>,

    delivered: u64,
    /// Delivered count *including* SACKed segments (Linux `tp->delivered`),
    /// used for rate samples and round counting; smoother than the
    /// cumulative count under loss.
    delivered_rate_ctr: u64,
    /// Time of the most recent delivery (rate-sample bookkeeping).
    delivered_time: SimTime,
    /// Send time of the packet that started the current send window.
    first_sent_time: SimTime,
    meta: HashMap<u64, PktMeta>,

    /// Measurement counters (public: the harness snapshots them).
    pub counters: FlowCounters,
}

impl std::fmt::Debug for Sender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("flow", &self.flow)
            .field("next_seq", &self.next_seq)
            .field("high_ack", &self.high_ack)
            .field("cwnd", &self.cc.cwnd_pkts())
            .field("pipe", &self.pipe())
            .finish()
    }
}

impl Sender {
    /// Create a sender.
    ///
    /// `rtt_hint` seeds pacing-rate computation before the first RTT
    /// sample (a real sender knows a ballpark RTT from the handshake).
    pub fn new(
        flow: FlowId,
        app: AppId,
        cc_kind: CcKind,
        paced: bool,
        mss: u32,
        rtt_hint: SimDuration,
        min_rto: SimDuration,
    ) -> Sender {
        Sender {
            flow,
            app,
            mss,
            paced,
            next_seq: 0,
            high_ack: 0,
            sacked: BTreeSet::new(),
            retx_queue: BTreeSet::new(),
            retx_inflight: BTreeMap::new(),
            loss_scan_frontier: 0,
            recovery_point: None,
            cc: build_cc(cc_kind, INITIAL_CWND, mss),
            pacer: Pacer::new(),
            rtt: RttEstimator::new(min_rto),
            rtt_hint,
            rto_deadline: None,
            rto_backoff: 0,
            pace_wake: None,
            delivered: 0,
            delivered_rate_ctr: 0,
            delivered_time: SimTime::ZERO,
            first_sent_time: SimTime::ZERO,
            meta: HashMap::new(),
            counters: FlowCounters::default(),
        }
    }

    /// Owning application.
    pub(crate) fn app(&self) -> AppId {
        self.app
    }

    /// Flow id.
    pub(crate) fn flow(&self) -> FlowId {
        self.flow
    }

    /// Sequence-space outstanding (sent, not cumulatively acked).
    pub fn outstanding(&self) -> u64 {
        self.next_seq - self.high_ack
    }

    /// RFC 6675 pipe estimate: segments believed to be in the network.
    pub fn pipe(&self) -> u64 {
        self.outstanding() - self.sacked.len() as u64 - self.retx_queue.len() as u64
    }

    /// Current RTO deadline (the network arms a timer for it lazily).
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Earliest time the pacer will release the next blocked packet,
    /// if the last send attempt was pacing-blocked.
    pub(crate) fn pace_wake(&self) -> Option<SimTime> {
        self.pace_wake
    }

    /// Smoothed RTT (or the configuration hint before any sample).
    pub(crate) fn srtt(&self) -> SimDuration {
        self.rtt.srtt().unwrap_or(self.rtt_hint)
    }

    fn pacing_rate_bps(&self) -> Option<f64> {
        if let Some(rate) = self.cc.pacing_rate_bps(self.mss) {
            return Some(rate); // algorithm-dictated (BBR)
        }
        if self.paced {
            let factor = if self.cc.in_slow_start() {
                LINUX_SS_FACTOR
            } else {
                LINUX_CA_FACTOR
            };
            Some(cwnd_pacing_rate_bps(
                self.cc.cwnd_pkts(),
                self.mss,
                self.srtt(),
                factor,
            ))
        } else {
            None
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        let backoff = 1u64 << self.rto_backoff.min(MAX_BACKOFF);
        self.rto_deadline = Some(now + self.rtt.rto().saturating_mul(backoff));
    }

    fn transmit(&mut self, now: SimTime, seq: u64) -> Packet {
        // RTO keeps the scoreboard, so the send point never moves back:
        // everything below it has been sent before.
        let is_retx = seq < self.next_seq;
        self.counters.segs_sent += 1;
        if is_retx {
            self.counters.segs_retx += 1;
        }
        self.meta.insert(
            seq,
            PktMeta {
                sent_at: now,
                delivered_at_send: self.delivered_rate_ctr,
                delivered_time_at_send: self.delivered_time,
                first_sent_at_send: self.first_sent_time,
                is_retx,
            },
        );
        self.first_sent_time = now;
        if let Some(rate) = self.pacing_rate_bps() {
            self.pacer.on_send(now, self.mss, rate);
        }
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        Packet {
            flow: self.flow,
            seq,
            size_bytes: self.mss,
            is_retx,
            sent_at: now,
        }
    }

    fn try_send(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pace_wake = None;
        loop {
            let cwnd = self.cc.cwnd_pkts().floor().max(1.0);
            if (self.pipe() as f64) >= cwnd {
                break;
            }
            if self.pacing_rate_bps().is_some() && !self.pacer.ready(now) {
                self.pace_wake = Some(self.pacer.next_send());
                break;
            }
            // Retransmissions take priority over new data (RFC 6675).
            if let Some(&seq) = self.retx_queue.iter().next() {
                self.retx_queue.remove(&seq);
                self.retx_inflight.insert(seq, now);
                out.push(self.transmit(now, seq));
            } else {
                let seq = self.next_seq;
                out.push(self.transmit(now, seq));
                self.next_seq += 1;
            }
        }
    }

    /// Apply SACK blocks to the scoreboard and update loss marks.
    fn update_scoreboard(&mut self, ack: &Ack) {
        for block in ack.sacks.iter().flatten() {
            let start = block.start.max(self.high_ack);
            let end = block.end.min(self.next_seq);
            for q in start..end {
                if self.sacked.insert(q) {
                    self.delivered_rate_ctr += 1;
                    self.retx_queue.remove(&q);
                    self.retx_inflight.remove(&q);
                }
            }
        }
        // Loss marking: unSACKed segments sufficiently below the highest
        // SACKed sequence are lost. Scan each sequence once.
        if let Some(&high_sacked) = self.sacked.iter().next_back() {
            let limit = high_sacked.saturating_sub(DUP_ACK_THRESHOLD - 1);
            let from = self.loss_scan_frontier.max(self.high_ack);
            for s in from..limit {
                if !self.sacked.contains(&s) {
                    self.retx_queue.insert(s);
                }
            }
            self.loss_scan_frontier = self.loss_scan_frontier.max(limit);
        }
    }

    /// Re-mark retransmissions that have themselves been lost: if a
    /// retransmitted segment is still unSACKed one reordering window
    /// (1.25 × sRTT) after it was retransmitted, queue it again.
    fn check_lost_retransmissions(&mut self, now: SimTime) {
        if self.retx_inflight.is_empty() {
            return;
        }
        let reo_wnd = self.srtt().mul_f64(1.25);
        let mut expired = Vec::new();
        for (&seq, &sent) in &self.retx_inflight {
            if now.since(sent.min(now)) > reo_wnd {
                expired.push(seq);
            }
        }
        for seq in expired {
            self.retx_inflight.remove(&seq);
            self.retx_queue.insert(seq);
        }
    }

    /// Kick off the connection (initial window burst or paced trickle).
    pub fn start(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.try_send(now, &mut out);
        out
    }

    /// The pace timer fired: release whatever the window now allows.
    pub(crate) fn on_pace_timer(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        self.try_send(now, &mut out);
        out
    }

    /// Process an incoming cumulative ACK. Returns packets to transmit.
    pub fn on_ack(&mut self, now: SimTime, ack: Ack) -> Vec<Packet> {
        debug_assert_eq!(ack.flow, self.flow);
        let mut out = Vec::new();

        let mut newly = 0u64;
        let mut rtt_sample = None;
        let mut rate_sample = None;

        if ack.cum_ack > self.high_ack {
            // `on_ack` is public and may be handed an ACK beyond anything
            // this sender sent; never let the ACK point pass the send point.
            self.next_seq = self.next_seq.max(ack.cum_ack);
            newly = ack.cum_ack - self.high_ack;

            // RTT sample (Karn-filtered by the receiver's echo).
            rtt_sample = ack.echo_sent_at.map(|sent| now.since(sent));
            if let Some(s) = rtt_sample {
                self.rtt.update(s);
                self.counters.record_rtt(s.as_secs_f64());
            }

            // Delivery-rate sample from the triggering segment's metadata.
            self.delivered += newly;
            self.counters.segs_delivered += newly;
            // Count only the segments not already credited via SACK.
            let sacked_in_range = self.sacked.range(self.high_ack..ack.cum_ack).count() as u64;
            self.delivered_rate_ctr += newly - sacked_in_range;
            rate_sample = self.meta.get(&ack.for_seq).and_then(|m| {
                if m.is_retx {
                    return None;
                }
                // interval = max(send_elapsed, ack_elapsed) guards against
                // overestimation from bursty sends (delivery-rate draft).
                let send_elapsed = m.sent_at.since(m.first_sent_at_send.min(m.sent_at));
                let ack_elapsed = now.since(m.delivered_time_at_send.min(now));
                let interval = send_elapsed.max(ack_elapsed).as_secs_f64();
                if interval <= 0.0 {
                    return None;
                }
                let delivered_delta = self.delivered_rate_ctr - m.delivered_at_send;
                Some(delivered_delta as f64 * self.mss as f64 * 8.0 / interval)
            });
            self.delivered_time = now;
            for s in self.high_ack..ack.cum_ack {
                self.meta.remove(&s);
            }
            self.high_ack = ack.cum_ack;
            self.rto_backoff = 0;

            // Prune scoreboard below the new cumulative point.
            self.sacked = self.sacked.split_off(&self.high_ack);
            self.retx_queue = self.retx_queue.split_off(&self.high_ack);
            self.retx_inflight = self.retx_inflight.split_off(&self.high_ack);
            self.loss_scan_frontier = self.loss_scan_frontier.max(self.high_ack);

            if let Some(rp) = self.recovery_point {
                if self.high_ack >= rp {
                    self.recovery_point = None;
                }
            }
        }

        self.update_scoreboard(&ack);
        self.check_lost_retransmissions(now);

        // Enter fast recovery when fresh losses appear outside recovery.
        if self.recovery_point.is_none() && !self.retx_queue.is_empty() {
            self.recovery_point = Some(self.next_seq);
            // Halve from the flight size (outstanding minus SACKed), the
            // quantity that was actually in the network at detection.
            let flight = self.outstanding() - self.sacked.len() as u64;
            self.cc.on_loss_event(now, flight.max(1));
            self.counters.loss_events += 1;
            // Fast retransmit: the first lost segment goes out immediately,
            // bypassing the pipe gate (this *is* the fast retransmission).
            if let Some(&seq) = self.retx_queue.iter().next() {
                self.retx_queue.remove(&seq);
                self.retx_inflight.insert(seq, now);
                out.push(self.transmit(now, seq));
            }
        }

        if newly > 0 {
            let ev = AckEvent {
                now,
                rtt_sample,
                srtt: self.srtt(),
                min_rtt: self.rtt.min_rtt().unwrap_or(self.rtt_hint),
                newly_acked: newly,
                delivered_total: self.delivered_rate_ctr,
                delivery_rate_bps: rate_sample,
                in_recovery: self.recovery_point.is_some(),
                inflight_pkts: self.pipe(),
            };
            self.cc.on_ack(&ev);
            if self.outstanding() == 0 {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
        }

        self.try_send(now, &mut out);
        out
    }

    /// The (lazily scheduled) RTO timer fired. Checks the live deadline;
    /// on a real expiry queues every unSACKed outstanding segment for
    /// retransmission and hands the timeout to the congestion control.
    pub fn on_rto_fire(&mut self, now: SimTime) -> Vec<Packet> {
        match self.rto_deadline {
            Some(d) if d <= now => {}
            _ => return Vec::new(),
        }
        if self.outstanding() == 0 {
            self.rto_deadline = None;
            return Vec::new();
        }
        self.counters.rtos += 1;
        self.cc.on_rto(now);
        // Keep the SACK scoreboard (RFC 6675 §5.1: retain state after a
        // timeout) and mark every unSACKed outstanding segment lost; the
        // head retransmits first and recovery proceeds SACK-driven rather
        // than by go-back-N duplication.
        self.recovery_point = Some(self.next_seq);
        self.retx_inflight.clear();
        for seq in self.high_ack..self.next_seq {
            if !self.sacked.contains(&seq) {
                self.retx_queue.insert(seq);
            }
        }
        self.loss_scan_frontier = self.next_seq;
        self.rto_backoff = (self.rto_backoff + 1).min(MAX_BACKOFF);
        self.rto_deadline = None;
        let mut out = Vec::new();
        self.try_send(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{SackBlock, MAX_SACK_BLOCKS};

    fn sender(cc: CcKind, paced: bool) -> Sender {
        Sender::new(
            FlowId(0),
            AppId(0),
            cc,
            paced,
            1500,
            SimDuration::from_millis(20),
            SimDuration::from_millis(200),
        )
    }

    fn no_sacks() -> [Option<SackBlock>; MAX_SACK_BLOCKS] {
        [None; MAX_SACK_BLOCKS]
    }

    fn ack(cum: u64, for_seq: u64, sent_at: SimTime) -> Ack {
        Ack {
            flow: FlowId(0),
            cum_ack: cum,
            for_seq,
            sacks: no_sacks(),
            echo_sent_at: Some(sent_at),
        }
    }

    /// Duplicate ACK carrying a SACK of `start..end`.
    fn sack_ack(cum: u64, start: u64, end: u64) -> Ack {
        let mut sacks = no_sacks();
        sacks[0] = Some(SackBlock { start, end });
        Ack {
            flow: FlowId(0),
            cum_ack: cum,
            for_seq: end - 1,
            sacks,
            echo_sent_at: None,
        }
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender(CcKind::Reno, false);
        let pkts = s.start(SimTime::ZERO);
        assert_eq!(pkts.len(), 10); // IW10
        assert_eq!(s.outstanding(), 10);
        assert_eq!(s.pipe(), 10);
        assert!(s.rto_deadline().is_some());
        assert!(pkts
            .iter()
            .enumerate()
            .all(|(i, p)| p.seq == i as u64 && !p.is_retx));
    }

    #[test]
    fn paced_start_releases_one_packet() {
        let mut s = sender(CcKind::Reno, true);
        let pkts = s.start(SimTime::ZERO);
        assert_eq!(pkts.len(), 1, "pacer releases one packet, then blocks");
        assert!(s.pace_wake().is_some());
        let wake = s.pace_wake().unwrap();
        let pkts = s.on_pace_timer(wake);
        assert_eq!(pkts.len(), 1);
    }

    #[test]
    fn acks_advance_window_and_grow_cwnd() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0);
        let t1 = t0 + SimDuration::from_millis(20);
        let sent = s.on_ack(t1, ack(1, 0, t0));
        // Slow start: one ACK frees one slot and grows cwnd by 1 => 2 sends.
        assert_eq!(sent.len(), 2);
        assert_eq!(s.counters.segs_delivered, 1);
        assert!(s.srtt() == SimDuration::from_millis(20));
    }

    #[test]
    fn sack_gap_triggers_fast_retransmit() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0); // 0..10 in flight
        let t = t0 + SimDuration::from_millis(25);
        // Seq 0 lost. SACKs for 1..2, then 1..3, then 1..4 arrive.
        assert!(s.recovery_point.is_none());
        s.on_ack(t, sack_ack(0, 1, 2));
        s.on_ack(t, sack_ack(0, 1, 3));
        assert!(s.recovery_point.is_none(), "gap below threshold");
        let pkts = s.on_ack(t, sack_ack(0, 1, 4));
        // Highest sacked = 3 >= 0 + 3 => seq 0 deemed lost and retransmitted.
        assert!(s.recovery_point.is_some());
        assert!(
            pkts.iter().any(|p| p.seq == 0 && p.is_retx),
            "pkts {pkts:?}"
        );
        assert_eq!(s.counters.loss_events, 1);
    }

    #[test]
    fn recovery_exits_on_full_ack_and_sending_resumes() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0);
        let t = t0 + SimDuration::from_millis(25);
        s.on_ack(t, sack_ack(0, 1, 4));
        assert!(s.recovery_point.is_some());
        // Full cumulative ACK of everything sent so far.
        let t2 = t + SimDuration::from_millis(25);
        let high = s.next_seq;
        let pkts = s.on_ack(t2, ack(high, high - 1, t0));
        assert!(s.recovery_point.is_none());
        // Bulk sender resumes with new data.
        assert!(pkts.iter().all(|p| p.seq >= high));
        assert!(!pkts.is_empty());
    }

    #[test]
    fn multiple_holes_all_retransmitted() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0); // 0..10
        let t = t0 + SimDuration::from_millis(25);
        // Holes at 0,1,2; 3..10 sacked.
        let pkts = s.on_ack(t, sack_ack(0, 3, 10));
        let retx: Vec<u64> = pkts.iter().filter(|p| p.is_retx).map(|p| p.seq).collect();
        // The first hole is fast-retransmitted immediately; the others are
        // either sent now (pipe permitting) or queued for retransmission.
        assert!(retx.contains(&0), "retx {retx:?}");
        let pending: Vec<u64> = s.retx_queue.iter().copied().collect();
        for hole in [1u64, 2] {
            assert!(
                retx.contains(&hole) || pending.contains(&hole),
                "hole {hole} neither sent nor queued (retx {retx:?}, pending {pending:?})"
            );
        }
        // Only one loss event (one recovery episode).
        assert_eq!(s.counters.loss_events, 1);
        // Follow-up ACK progress releases the remaining holes.
        let t2 = t + SimDuration::from_millis(5);
        let pkts2 = s.on_ack(t2, ack(1, 0, t0));
        let all_retx: Vec<u64> = retx
            .into_iter()
            .chain(pkts2.iter().filter(|p| p.is_retx).map(|p| p.seq))
            .collect();
        assert!(
            all_retx.contains(&1) || s.retx_queue.is_empty(),
            "{all_retx:?}"
        );
    }

    #[test]
    fn pipe_accounts_for_sacked_and_lost() {
        let mut s = sender(CcKind::Reno, false);
        s.start(SimTime::ZERO);
        assert_eq!(s.pipe(), 10);
        let t = SimTime::ZERO + SimDuration::from_millis(25);
        // SACK 5..10 => 5 sacked; seqs 0..5 below 9-2 => lost.
        // (retransmissions go out immediately, so pipe partially refills)
        let pkts = s.on_ack(t, sack_ack(0, 5, 10));
        let retx_count = pkts.iter().filter(|p| p.is_retx).count() as u64;
        // outstanding = 10 (+ maybe new data), sacked = 5.
        assert!(s.pipe() <= s.outstanding() - 5 + retx_count);
    }

    #[test]
    fn rto_marks_all_outstanding_lost() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0); // 0..10 in flight
        let deadline = s.rto_deadline().unwrap();
        let pkts = s.on_rto_fire(deadline);
        assert_eq!(s.counters.rtos, 1);
        // cwnd collapsed to 1 → exactly one retransmission, of the head.
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].seq, 0);
        assert!(pkts[0].is_retx);
        // The scoreboard is retained: remaining outstanding segments are
        // queued as lost rather than blindly re-sent (no go-back-N).
        assert_eq!(s.outstanding(), 10);
        assert_eq!(s.retx_queue.len(), 9);
        // RTO timer re-armed with backoff for the retransmission.
        assert!(s.rto_deadline().unwrap() > deadline);
    }

    #[test]
    fn rto_fire_before_deadline_is_noop() {
        let mut s = sender(CcKind::Reno, false);
        s.start(SimTime::ZERO);
        let early = SimTime::from_nanos(1);
        assert!(s.on_rto_fire(early).is_empty());
        assert_eq!(s.counters.rtos, 0);
    }

    #[test]
    fn rto_backoff_doubles_deadline() {
        let mut s = sender(CcKind::Reno, false);
        s.start(SimTime::ZERO);
        let d1 = s.rto_deadline().unwrap();
        s.on_rto_fire(d1);
        let d2 = s.rto_deadline().unwrap();
        let gap1 = d1.since(SimTime::ZERO).as_secs_f64();
        let gap2 = d2.since(d1).as_secs_f64();
        assert!(
            gap2 > 1.5 * gap1,
            "backoff should roughly double: {gap1} {gap2}"
        );
    }

    #[test]
    fn stale_ack_after_go_back_n_does_not_corrupt_state() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0); // 0..10 in flight
        let deadline = s.rto_deadline().unwrap();
        s.on_rto_fire(deadline); // keeps next_seq at 10, resends seq 0
                                 // A late ACK for the pre-RTO flight arrives.
        let t = deadline + SimDuration::from_millis(5);
        s.on_ack(t, ack(7, 6, t0));
        // The send point must never lag the cumulative ACK.
        assert!(s.next_seq >= s.high_ack);
        assert_eq!(s.high_ack, 7);
        // pipe() must not underflow.
        let _ = s.pipe();
    }

    #[test]
    fn delivery_counter_monotone() {
        let mut s = sender(CcKind::Cubic, false);
        let t0 = SimTime::ZERO;
        s.start(t0);
        let mut t = t0;
        for i in 0..10u64 {
            t += SimDuration::from_millis(2);
            s.on_ack(t, ack(i + 1, i, t0));
        }
        assert_eq!(s.counters.segs_delivered, 10);
        assert_eq!(s.outstanding() + 10, s.next_seq);
    }

    #[test]
    fn bbr_sender_is_always_paced() {
        let mut s = sender(CcKind::Bbr, false);
        let pkts = s.start(SimTime::ZERO);
        // BBR paces from the very first packet.
        assert_eq!(pkts.len(), 1);
        assert!(s.pace_wake().is_some());
    }

    #[test]
    fn stale_ack_ignored() {
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0);
        let t1 = t0 + SimDuration::from_millis(20);
        s.on_ack(t1, ack(5, 4, t0));
        let before = s.counters.segs_delivered;
        s.on_ack(
            t1,
            Ack {
                flow: FlowId(0),
                cum_ack: 3,
                for_seq: 2,
                sacks: no_sacks(),
                echo_sent_at: None,
            },
        );
        assert_eq!(s.counters.segs_delivered, before);
        assert_eq!(s.high_ack, 5);
    }

    #[test]
    fn sack_of_everything_unblocks_new_data() {
        // SACKed-but-not-cum-acked segments free pipe for new data
        // (the "limited transmit" effect falls out of pipe accounting).
        let mut s = sender(CcKind::Reno, false);
        let t0 = SimTime::ZERO;
        s.start(t0);
        let t = t0 + SimDuration::from_millis(25);
        let pkts = s.on_ack(t, sack_ack(0, 1, 3)); // 2 sacked, gap below threshold
                                                   // pipe = 10 - 2 = 8 < cwnd 10 => 2 new segments go out.
        assert_eq!(pkts.len(), 2);
        assert!(pkts.iter().all(|p| !p.is_retx));
    }
}
