//! The dumbbell network model: senders feed a shared access link, which
//! feeds the DropTail bottleneck; ACKs return over a clean reverse path.
//!
//! ```text
//!  senders ──► access link (k×C, FIFO) ──► bottleneck (C, DropTail) ──► receiver
//!     ▲                                                                    │
//!     └───────────────────────── ACK path (delay only) ◄──────────────────┘
//! ```
//!
//! The access link runs at a multiple of the bottleneck rate (the paper's
//! sender had 2×10 G bonded NICs into a 10 G port), so unpaced window
//! bursts arrive at the bottleneck faster than it drains — the mechanism
//! that makes pacing experiments interesting.

use crate::config::DumbbellConfig;
use crate::packet::{Ack, AppId, FlowId, Packet};
use crate::queue::{DropTailQueue, QueueStats};
use crate::tcp::{Receiver, Sender};
use dessim::{Model, Scheduler, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// A flow begins transmitting.
    FlowStart(FlowId),
    /// The access link finished serializing its head packet.
    AccessDone,
    /// A packet reached the bottleneck queue.
    BottleneckArrive(Packet),
    /// The bottleneck finished serializing its head packet.
    BottleneckDone,
    /// A data packet reached the receiver.
    ReceiverArrive(Packet),
    /// An ACK reached its sender.
    SenderAck(Ack),
    /// Pacing timer for a flow.
    PaceTimer(FlowId),
    /// Delayed-ACK flush timer for a flow's receiver.
    AckFlush(FlowId),
    /// Retransmission timer check for a flow.
    RtoTimer(FlowId),
    /// End-of-warm-up counter snapshot.
    WarmupSnapshot,
}

/// Access-link rate as a multiple of the bottleneck rate (the paper's
/// sender had 2×10 G bonded NICs feeding a 10 G bottleneck ⇒ 2.0).
const ACCESS_MULTIPLE: f64 = 2.0;

/// Relative jitter applied to each flow's base RTT (breaks phase
/// locking between otherwise identical flows): ±10%.
const RTT_JITTER: f64 = 0.1;

/// Delayed-ACK flush timeout for a partially filled aggregate.
const ACK_FLUSH_DELAY: SimDuration = SimDuration::from_millis(1);

/// One serializing link with a FIFO staging queue.
struct SerialLink {
    rate_bps: f64,
    queue: VecDeque<Packet>,
    in_service: Option<Packet>,
}

impl SerialLink {
    fn new(rate_bps: f64) -> SerialLink {
        SerialLink {
            rate_bps,
            queue: VecDeque::new(),
            in_service: None,
        }
    }

    fn tx_time(&self, size_bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(size_bytes as f64 * 8.0 / self.rate_bps)
    }
}

/// The full dumbbell state: implements [`dessim::Model`].
pub(crate) struct Network {
    senders: Vec<Sender>,
    receivers: Vec<Receiver>,
    /// Per-flow one-way propagation delay (applied on the uplink and the
    /// ACK path; two of these give the flow's base RTT).
    flow_delay: Vec<SimDuration>,
    access: SerialLink,
    bottleneck_q: DropTailQueue,
    bottleneck: SerialLink,
    rto_pending: Vec<bool>,
    pace_pending: Vec<bool>,
    ack_flush_pending: Vec<bool>,
    /// Per-flow counter snapshots at warm-up.
    pub warmup_counters: Option<Vec<crate::metrics::FlowCounters>>,
}

impl Network {
    /// Build a network from a validated config.
    pub(crate) fn new(cfg: &DumbbellConfig) -> Network {
        debug_assert!(cfg.validate().is_ok(), "config must be validated");
        let mut rng = SimRng::new(cfg.seed);
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        let mut flow_delay = Vec::new();
        let min_rto = SimDuration::from_millis(200);
        for (app_idx, app) in cfg.apps.iter().enumerate() {
            for _ in 0..app.connections {
                let flow = FlowId(senders.len());
                let jitter = 1.0 + RTT_JITTER * (2.0 * rng.uniform01() - 1.0);
                let one_way = cfg.base_rtt.mul_f64(jitter * 0.5);
                senders.push(Sender::new(
                    flow,
                    AppId(app_idx),
                    app.cc,
                    app.paced,
                    cfg.mss_bytes,
                    cfg.base_rtt,
                    min_rto,
                ));
                receivers.push(Receiver::with_aggregation(flow, cfg.ack_aggregation));
                flow_delay.push(one_way);
            }
        }
        let n = senders.len();
        let access_rate = cfg.bottleneck_bps * ACCESS_MULTIPLE;
        let buffer = cfg.buffer_bytes();
        Network {
            senders,
            receivers,
            flow_delay,
            access: SerialLink::new(access_rate),
            bottleneck_q: DropTailQueue::new(buffer),
            bottleneck: SerialLink::new(cfg.bottleneck_bps),
            rto_pending: vec![false; n],
            pace_pending: vec![false; n],
            ack_flush_pending: vec![false; n],
            warmup_counters: None,
        }
    }

    /// Immutable view of the senders (metrics extraction).
    pub(crate) fn senders(&self) -> &[Sender] {
        &self.senders
    }

    /// Bottleneck queue statistics.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.bottleneck_q.stats()
    }

    fn emit(&mut self, pkts: Vec<Packet>, sched: &mut Scheduler<Event>) {
        for pkt in pkts {
            self.access.queue.push_back(pkt);
        }
        self.kick_access(sched);
    }

    fn kick_access(&mut self, sched: &mut Scheduler<Event>) {
        if self.access.in_service.is_none() {
            if let Some(pkt) = self.access.queue.pop_front() {
                let tx = self.access.tx_time(pkt.size_bytes);
                self.access.in_service = Some(pkt);
                sched.after(tx, Event::AccessDone);
            }
        }
    }

    fn kick_bottleneck(&mut self, sched: &mut Scheduler<Event>) {
        if self.bottleneck.in_service.is_none() {
            if let Some(pkt) = self.bottleneck_q.take() {
                let tx = self.bottleneck.tx_time(pkt.size_bytes);
                self.bottleneck.in_service = Some(pkt);
                sched.after(tx, Event::BottleneckDone);
            }
        }
    }

    fn arm_flow_timers(&mut self, flow: FlowId, sched: &mut Scheduler<Event>) {
        let idx = flow.0;
        if let Some(deadline) = self.senders[idx].rto_deadline() {
            if !self.rto_pending[idx] {
                self.rto_pending[idx] = true;
                sched.at(deadline, Event::RtoTimer(flow));
            }
        }
        if let Some(wake) = self.senders[idx].pace_wake() {
            if !self.pace_pending[idx] {
                self.pace_pending[idx] = true;
                sched.at(wake, Event::PaceTimer(flow));
            }
        }
    }
}

impl Model for Network {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::FlowStart(flow) => {
                let pkts = self.senders[flow.0].start(now);
                self.emit(pkts, sched);
                self.arm_flow_timers(flow, sched);
            }
            Event::AccessDone => {
                let pkt = self
                    .access
                    .in_service
                    .take()
                    .expect("AccessDone without a packet in service");
                let delay = self.flow_delay[pkt.flow.0];
                sched.after(delay, Event::BottleneckArrive(pkt));
                self.kick_access(sched);
            }
            Event::BottleneckArrive(pkt) => {
                let flow = pkt.flow;
                if !self.bottleneck_q.offer(pkt) {
                    self.senders[flow.0].counters.drops += 1;
                } else {
                    self.kick_bottleneck(sched);
                }
            }
            Event::BottleneckDone => {
                let pkt = self
                    .bottleneck
                    .in_service
                    .take()
                    .expect("BottleneckDone without a packet in service");
                // Receiver sits at the bottleneck egress; downstream
                // propagation is folded into the ACK-path delay.
                sched.at(now, Event::ReceiverArrive(pkt));
                self.kick_bottleneck(sched);
            }
            Event::ReceiverArrive(pkt) => {
                let flow = pkt.flow;
                let decision = self.receivers[flow.0].on_segment(&pkt);
                let delay = self.flow_delay[flow.0];
                if let Some(ack) = decision.ack {
                    sched.after(delay, Event::SenderAck(ack));
                }
                if decision.want_flush_timer && !self.ack_flush_pending[flow.0] {
                    self.ack_flush_pending[flow.0] = true;
                    sched.after(ACK_FLUSH_DELAY, Event::AckFlush(flow));
                }
            }
            Event::AckFlush(flow) => {
                self.ack_flush_pending[flow.0] = false;
                if let Some(ack) = self.receivers[flow.0].flush() {
                    let delay = self.flow_delay[flow.0];
                    sched.after(delay, Event::SenderAck(ack));
                }
            }
            Event::SenderAck(ack) => {
                let flow = ack.flow;
                let pkts = self.senders[flow.0].on_ack(now, ack);
                self.emit(pkts, sched);
                self.arm_flow_timers(flow, sched);
            }
            Event::PaceTimer(flow) => {
                self.pace_pending[flow.0] = false;
                let pkts = self.senders[flow.0].on_pace_timer(now);
                self.emit(pkts, sched);
                self.arm_flow_timers(flow, sched);
            }
            Event::RtoTimer(flow) => {
                self.rto_pending[flow.0] = false;
                match self.senders[flow.0].rto_deadline() {
                    None => {}
                    Some(d) if d > now => {
                        // Deadline moved later (ACKs arrived); re-check then.
                        self.rto_pending[flow.0] = true;
                        sched.at(d, Event::RtoTimer(flow));
                    }
                    Some(_) => {
                        let pkts = self.senders[flow.0].on_rto_fire(now);
                        self.emit(pkts, sched);
                        self.arm_flow_timers(flow, sched);
                    }
                }
            }
            Event::WarmupSnapshot => {
                let mut snaps = Vec::with_capacity(self.senders.len());
                for s in &mut self.senders {
                    snaps.push(s.counters);
                    s.counters.reset_rtt_window();
                }
                self.warmup_counters = Some(snaps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppConfig, CcKind};
    use dessim::Simulation;

    fn small_cfg(apps: Vec<AppConfig>) -> DumbbellConfig {
        DumbbellConfig {
            bottleneck_bps: 50e6,
            base_rtt: SimDuration::from_millis(20),
            buffer_bdp: 1.0,
            mss_bytes: 1500,
            apps,
            duration: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(2),
            seed: 42,
            ..Default::default()
        }
    }

    fn run(cfg: &DumbbellConfig) -> Simulation<Network> {
        let net = Network::new(cfg);
        let mut sim = Simulation::new(net);
        for i in 0..cfg.total_flows() {
            sim.schedule(SimTime::ZERO, Event::FlowStart(FlowId(i)));
        }
        sim.schedule(SimTime::ZERO + cfg.warmup, Event::WarmupSnapshot);
        sim.run_until(SimTime::ZERO + cfg.duration);
        sim
    }

    #[test]
    fn single_flow_fills_the_link() {
        let cfg = small_cfg(vec![AppConfig::plain(CcKind::Reno)]);
        let sim = run(&cfg);
        let s = &sim.model.senders()[0];
        let snap = &sim.model.warmup_counters.as_ref().unwrap()[0];
        let window = (cfg.duration - cfg.warmup).as_secs_f64();
        let delivered = s.counters.segs_delivered - snap.segs_delivered;
        let tput = delivered as f64 * 1500.0 * 8.0 / window;
        // A single Reno flow should achieve most of 50 Mb/s.
        assert!(tput > 0.8 * 50e6, "throughput {tput}");
        assert!(
            tput < 1.02 * 50e6,
            "throughput cannot exceed capacity: {tput}"
        );
    }

    #[test]
    fn two_flows_share_fairly() {
        let cfg = small_cfg(vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Reno),
        ]);
        let sim = run(&cfg);
        let snaps = sim.model.warmup_counters.as_ref().unwrap();
        let window = (cfg.duration - cfg.warmup).as_secs_f64();
        let tputs: Vec<f64> = sim
            .model
            .senders()
            .iter()
            .zip(snaps)
            .map(|(s, sn)| {
                (s.counters.segs_delivered - sn.segs_delivered) as f64 * 12000.0 / window
            })
            .collect();
        let total: f64 = tputs.iter().sum();
        assert!(total > 0.8 * 50e6, "aggregate {total}");
        let ratio = tputs[0] / tputs[1];
        assert!(
            (0.6..1.67).contains(&ratio),
            "fair-ish split, got {tputs:?}"
        );
    }

    #[test]
    fn congestion_causes_drops_and_retransmits() {
        let cfg = small_cfg(vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Reno),
        ]);
        let sim = run(&cfg);
        assert!(
            sim.model.queue_stats().dropped > 0,
            "expected bottleneck drops"
        );
        let retx: u64 = sim
            .model
            .senders()
            .iter()
            .map(|s| s.counters.segs_retx)
            .sum();
        assert!(retx > 0, "expected retransmissions");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg(vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Cubic),
        ]);
        let a = run(&cfg);
        let b = run(&cfg);
        for (sa, sb) in a.model.senders().iter().zip(b.model.senders()) {
            assert_eq!(sa.counters.segs_sent, sb.counters.segs_sent);
            assert_eq!(sa.counters.segs_delivered, sb.counters.segs_delivered);
            assert_eq!(sa.counters.segs_retx, sb.counters.segs_retx);
        }
        assert_eq!(a.processed(), b.processed());
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = small_cfg(vec![
            AppConfig::plain(CcKind::Reno),
            AppConfig::plain(CcKind::Reno),
        ]);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let a = run(&cfg);
        let b = run(&cfg2);
        let sent_a: u64 = a.model.senders().iter().map(|s| s.counters.segs_sent).sum();
        let sent_b: u64 = b.model.senders().iter().map(|s| s.counters.segs_sent).sum();
        assert_ne!(sent_a, sent_b);
    }

    #[test]
    fn congestion_drops_force_recovery() {
        // Four Reno flows overrunning a quarter-BDP drop-tail buffer.
        let mut cfg = small_cfg(vec![AppConfig::plain(CcKind::Reno); 4]);
        cfg.buffer_bdp = 0.25;
        let sim = run(&cfg);
        for s in sim.model.senders() {
            assert!(s.counters.drops > 0, "buffer overflow should drop");
            assert!(s.counters.segs_retx > 0, "recovery should retransmit");
            // Each flow must keep making progress despite losses.
            assert!(s.counters.segs_delivered > 1000);
        }
    }

    #[test]
    fn conservation_no_packet_creation() {
        // Delivered segments can never exceed sent segments.
        let cfg = small_cfg(vec![
            AppConfig {
                connections: 2,
                cc: CcKind::Reno,
                paced: false,
            },
            AppConfig::plain(CcKind::Cubic),
        ]);
        let sim = run(&cfg);
        for s in sim.model.senders() {
            assert!(s.counters.segs_delivered <= s.counters.segs_sent);
        }
    }
}
