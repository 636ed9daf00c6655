//! Property tests on the TCP sender state machine: sequence-space and
//! scoreboard invariants must hold under arbitrary ACK streams.

use dessim::{SimDuration, SimTime};
use netsim::config::CcKind;
use netsim::packet::{Ack, AppId, FlowId, SackBlock, MAX_SACK_BLOCKS};
use netsim::tcp::Sender;
use proptest::prelude::*;

fn sender(cc: CcKind) -> Sender {
    Sender::new(
        FlowId(0),
        AppId(0),
        cc,
        false,
        1500,
        SimDuration::from_millis(20),
        SimDuration::from_millis(200),
    )
}

/// A scripted ACK: cumulative point (as an offset to apply) plus an
/// optional SACK range, both clamped to valid sequence space by the test.
#[derive(Debug, Clone)]
struct AckScript {
    cum_advance: u64,
    sack_lo: u64,
    sack_len: u64,
    fire_rto: bool,
}

fn ack_script() -> impl Strategy<Value = AckScript> {
    (0u64..4, 0u64..30, 0u64..8, prop::bool::weighted(0.05)).prop_map(
        |(cum_advance, sack_lo, sack_len, fire_rto)| AckScript {
            cum_advance,
            sack_lo,
            sack_len,
            fire_rto,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any ACK/SACK/RTO interleaving:
    /// * `high_ack <= next_seq` (via `outstanding()` not underflowing),
    /// * `pipe() <= outstanding()`,
    /// * delivered counter is monotone,
    /// * every returned packet is within the valid sequence space.
    #[test]
    fn sender_invariants_hold(
        cc_pick in 0usize..3,
        scripts in prop::collection::vec(ack_script(), 1..60),
    ) {
        let cc = [CcKind::Reno, CcKind::Cubic, CcKind::Bbr][cc_pick];
        let mut s = sender(cc);
        let mut now = SimTime::ZERO;
        let mut cum = 0u64;
        let mut delivered_prev = 0u64;
        s.start(now);
        for script in scripts {
            now += SimDuration::from_millis(7);

            if script.fire_rto {
                if let Some(d) = s.rto_deadline() {
                    let pkts = s.on_rto_fire(d.max(now));
                    now = now.max(d);
                    for p in &pkts {
                        prop_assert!(p.seq < 10_000_000);
                    }
                }
            }

            // Build a plausible ACK: cumulative point advances by at most
            // what is outstanding; SACK range sits above the cum point.
            let outstanding_before = s.outstanding();
            cum += script.cum_advance.min(outstanding_before);
            let next = cum + outstanding_before;
            let mut sacks = [None; MAX_SACK_BLOCKS];
            if script.sack_len > 0 && next > cum + 1 {
                let lo = (cum + 1 + script.sack_lo % (next - cum - 1)).min(next - 1);
                let hi = (lo + script.sack_len).min(next);
                if hi > lo {
                    sacks[0] = Some(SackBlock { start: lo, end: hi });
                }
            }
            let ack = Ack {
                flow: FlowId(0),
                cum_ack: cum,
                for_seq: cum.saturating_sub(1),
                sacks,
                echo_sent_at: Some(SimTime::ZERO),
            };
            let pkts = s.on_ack(now, ack);

            // Invariants.
            prop_assert!(s.pipe() <= s.outstanding(), "pipe {} > outstanding {}", s.pipe(), s.outstanding());
            prop_assert!(s.counters.segs_delivered >= delivered_prev);
            delivered_prev = s.counters.segs_delivered;
            prop_assert!(s.counters.segs_retx <= s.counters.segs_sent);
            for p in &pkts {
                prop_assert!(p.seq >= cum, "sent {} below cum {}", p.seq, cum);
            }
        }
    }

    /// The receiver's cumulative point is monotone and never runs ahead
    /// of the highest sequence it has seen, for any arrival order.
    #[test]
    fn receiver_cum_ack_monotone(seqs in prop::collection::vec(0u64..64, 1..200)) {
        use netsim::packet::Packet;
        use netsim::tcp::Receiver;
        let mut r = Receiver::new(FlowId(0));
        let mut last_cum = 0;
        let mut max_seen = 0;
        for seq in seqs {
            max_seen = max_seen.max(seq);
            let d = r.on_segment(&Packet {
                flow: FlowId(0),
                seq,
                size_bytes: 1500,
                is_retx: false,
                sent_at: SimTime::ZERO,
            });
            if let Some(ack) = d.ack {
                prop_assert!(ack.cum_ack >= last_cum);
                prop_assert!(ack.cum_ack <= max_seen + 1);
                last_cum = ack.cum_ack;
            }
        }
    }
}
