//! The receive side: cumulative ACKs with SACK blocks.
//!
//! Out-of-order data is tracked as merged intervals, so the cumulative
//! point jumps as soon as a hole fills and every ACK carries up to
//! [`MAX_SACK_BLOCKS`] selective-acknowledgment ranges (the range
//! containing the segment that triggered the ACK first, then the
//! highest-sequence ranges — mirroring RFC 2018 receiver behaviour).

use crate::packet::{Ack, FlowId, Packet, SackBlock, MAX_SACK_BLOCKS};
use dessim::SimTime;
use std::collections::BTreeMap;

/// Outcome of processing one data segment.
#[derive(Debug)]
pub struct AckDecision {
    /// ACK to send now, if any.
    pub ack: Option<Ack>,
    /// Caller should ensure an ACK-flush timer is pending (aggregation
    /// in progress).
    pub want_flush_timer: bool,
}

/// Per-flow receiver state with GRO-style ACK aggregation.
///
/// At 10 G with jumbo frames, real receivers coalesce segments (GRO /
/// interrupt moderation) and emit roughly one ACK per aggregate. This is
/// the mechanism that makes *unpaced* senders bursty: a stretch ACK
/// releases many segments at once, which leave at line rate. Out-of-order
/// or duplicate segments are ACKed immediately (RFC 5681 requires
/// undelayed duplicate ACKs), so loss feedback stays prompt.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    rcv_next: u64,
    /// Out-of-order data as disjoint, non-adjacent intervals
    /// `start → end` (end exclusive), all above `rcv_next`.
    ranges: BTreeMap<u64, u64>,
    /// ACK every `aggregation` in-order segments (1 = every segment).
    aggregation: u32,
    /// In-order segments received since the last ACK.
    pending: u32,
    /// Metadata of the most recent pending segment (for ACK echo fields).
    pending_last: Option<(u64, SimTime, bool)>,
    /// Segments received more than once (diagnostics).
    pub duplicate_segments: u64,
}

impl Receiver {
    /// New receiver for `flow`, expecting segment 0 first, ACKing every
    /// segment (no aggregation).
    pub fn new(flow: FlowId) -> Receiver {
        Receiver::with_aggregation(flow, 1)
    }

    /// New receiver ACKing every `aggregation` in-order segments.
    pub(crate) fn with_aggregation(flow: FlowId, aggregation: u32) -> Receiver {
        Receiver {
            flow,
            rcv_next: 0,
            ranges: BTreeMap::new(),
            aggregation: aggregation.max(1),
            pending: 0,
            pending_last: None,
            duplicate_segments: 0,
        }
    }

    /// Number of buffered out-of-order segments.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.ranges.iter().map(|(s, e)| (e - s) as usize).sum()
    }

    /// Insert `seq` into the out-of-order interval set.
    /// Returns `false` if it was already present.
    fn insert_ooo(&mut self, seq: u64) -> bool {
        // Find the closest range starting at or before seq.
        if let Some((&start, &end)) = self.ranges.range(..=seq).next_back() {
            if seq < end {
                return false; // duplicate
            }
            if seq == end {
                // Extend this range rightward, possibly merging the next.
                let mut new_end = end + 1;
                if let Some(&next_end) = self.ranges.get(&new_end) {
                    self.ranges.remove(&new_end);
                    new_end = next_end;
                }
                self.ranges.insert(start, new_end);
                return true;
            }
        }
        // seq starts a new range or prepends the following one.
        let mut new_end = seq + 1;
        if let Some(&next_end) = self.ranges.get(&new_end) {
            self.ranges.remove(&new_end);
            new_end = next_end;
        }
        self.ranges.insert(seq, new_end);
        true
    }

    /// Build SACK blocks: the range containing `for_seq` first, then the
    /// highest ranges.
    fn sack_blocks(&self, for_seq: u64) -> [Option<SackBlock>; MAX_SACK_BLOCKS] {
        let mut blocks: [Option<SackBlock>; MAX_SACK_BLOCKS] = [None; MAX_SACK_BLOCKS];
        let mut n = 0;
        // Triggering range first (RFC 2018: most recent info first).
        let trigger = self
            .ranges
            .range(..=for_seq)
            .next_back()
            .filter(|&(_, &end)| for_seq < end)
            .map(|(&s, &e)| SackBlock { start: s, end: e });
        if let Some(b) = trigger {
            blocks[n] = Some(b);
            n += 1;
        }
        for (&s, &e) in self.ranges.iter().rev() {
            if n == MAX_SACK_BLOCKS {
                break;
            }
            if trigger.is_some_and(|t| t.start == s) {
                continue;
            }
            blocks[n] = Some(SackBlock { start: s, end: e });
            n += 1;
        }
        blocks
    }

    fn build_ack(&self, for_seq: u64, sent_at: SimTime, is_retx: bool) -> Ack {
        Ack {
            flow: self.flow,
            cum_ack: self.rcv_next,
            for_seq,
            sacks: self.sack_blocks(for_seq),
            // Karn's rule: never sample RTT from retransmitted segments.
            echo_sent_at: if is_retx { None } else { Some(sent_at) },
        }
    }

    /// Process an arriving data segment.
    pub fn on_segment(&mut self, pkt: &Packet) -> AckDecision {
        debug_assert_eq!(pkt.flow, self.flow, "segment routed to wrong receiver");
        let mut out_of_order = false;
        if pkt.seq == self.rcv_next {
            self.rcv_next += 1;
            // Swallow a now-contiguous buffered range, if any.
            if let Some(&end) = self.ranges.get(&self.rcv_next) {
                self.ranges.remove(&self.rcv_next);
                self.rcv_next = end;
            }
        } else if pkt.seq > self.rcv_next {
            out_of_order = true;
            if !self.insert_ooo(pkt.seq) {
                self.duplicate_segments += 1;
            }
        } else {
            // Below the cumulative point: a spurious retransmission.
            out_of_order = true;
            self.duplicate_segments += 1;
        }

        // Immediate ACK when: feedback is urgent (out-of-order data or
        // open holes), or the aggregation quota is reached.
        self.pending += 1;
        let urgent = out_of_order || !self.ranges.is_empty();
        if urgent || self.pending >= self.aggregation {
            self.pending = 0;
            self.pending_last = None;
            AckDecision {
                ack: Some(self.build_ack(pkt.seq, pkt.sent_at, pkt.is_retx)),
                want_flush_timer: false,
            }
        } else {
            self.pending_last = Some((pkt.seq, pkt.sent_at, pkt.is_retx));
            AckDecision {
                ack: None,
                want_flush_timer: true,
            }
        }
    }

    /// Flush a withheld aggregated ACK (delayed-ACK timer fired).
    pub(crate) fn flush(&mut self) -> Option<Ack> {
        if self.pending == 0 {
            return None;
        }
        let (seq, sent_at, is_retx) = self.pending_last.take()?;
        self.pending = 0;
        Some(self.build_ack(seq, sent_at, is_retx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwrap the immediate ACK (valid for aggregation = 1 receivers).
    fn ack_of(r: &mut Receiver, p: &Packet) -> Ack {
        r.on_segment(p)
            .ack
            .expect("aggregation=1 receivers ack every segment")
    }

    fn pkt(seq: u64, retx: bool) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            size_bytes: 1500,
            is_retx: retx,
            sent_at: SimTime::from_nanos(123),
        }
    }

    #[test]
    fn in_order_delivery_advances_cum_ack() {
        let mut r = Receiver::new(FlowId(0));
        for i in 0..5 {
            let ack = ack_of(&mut r, &pkt(i, false));
            assert_eq!(ack.cum_ack, i + 1);
            assert!(ack.sacks[0].is_none(), "no SACKs without holes");
        }
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn hole_generates_dup_acks_with_sacks() {
        let mut r = Receiver::new(FlowId(0));
        ack_of(&mut r, &pkt(0, false));
        // Segment 1 lost; 2, 3, 4 arrive.
        for seq in [2, 3, 4] {
            let ack = ack_of(&mut r, &pkt(seq, false));
            assert_eq!(ack.cum_ack, 1, "dup ack while hole open");
            let sack = ack.sacks[0].expect("sack block present");
            assert_eq!(sack.start, 2);
            assert_eq!(sack.end, seq + 1);
        }
        assert_eq!(r.buffered(), 3);
        // Retransmission of 1 fills the hole; cumulative point jumps to 5.
        let ack = ack_of(&mut r, &pkt(1, true));
        assert_eq!(ack.cum_ack, 5);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn multiple_holes_produce_multiple_blocks() {
        let mut r = Receiver::new(FlowId(0));
        ack_of(&mut r, &pkt(0, false));
        // Holes at 1, 4, 7: received 2-3, 5-6, 8.
        for seq in [2, 3, 5, 6] {
            ack_of(&mut r, &pkt(seq, false));
        }
        let ack = ack_of(&mut r, &pkt(8, false));
        let blocks: Vec<SackBlock> = ack.sacks.iter().flatten().copied().collect();
        assert_eq!(blocks.len(), 3);
        // Triggering range (containing 8) first.
        assert_eq!(blocks[0], SackBlock { start: 8, end: 9 });
        // Then the highest remaining ranges.
        assert!(blocks.contains(&SackBlock { start: 5, end: 7 }));
        assert!(blocks.contains(&SackBlock { start: 2, end: 4 }));
    }

    #[test]
    fn block_limit_respected() {
        let mut r = Receiver::new(FlowId(0));
        // Four disjoint ranges: 2, 4, 6, 8.
        for seq in [2, 4, 6, 8] {
            ack_of(&mut r, &pkt(seq, false));
        }
        let ack = ack_of(&mut r, &pkt(10, false));
        let blocks: Vec<SackBlock> = ack.sacks.iter().flatten().copied().collect();
        assert_eq!(blocks.len(), MAX_SACK_BLOCKS);
        assert_eq!(blocks[0], SackBlock { start: 10, end: 11 });
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut r = Receiver::new(FlowId(0));
        // Build 2..5 out of order: 4, 2, 3.
        ack_of(&mut r, &pkt(4, false));
        ack_of(&mut r, &pkt(2, false));
        let ack = ack_of(&mut r, &pkt(3, false));
        let blocks: Vec<SackBlock> = ack.sacks.iter().flatten().copied().collect();
        assert_eq!(blocks.len(), 1, "ranges must merge: {blocks:?}");
        assert_eq!(blocks[0], SackBlock { start: 2, end: 5 });
    }

    #[test]
    fn karn_rule_suppresses_echo_for_retx() {
        let mut r = Receiver::new(FlowId(0));
        assert!(ack_of(&mut r, &pkt(0, false)).echo_sent_at.is_some());
        assert!(ack_of(&mut r, &pkt(1, true)).echo_sent_at.is_none());
    }

    #[test]
    fn duplicates_counted_not_redelivered() {
        let mut r = Receiver::new(FlowId(0));
        ack_of(&mut r, &pkt(0, false));
        let ack = ack_of(&mut r, &pkt(0, true));
        assert_eq!(ack.cum_ack, 1);
        assert_eq!(r.duplicate_segments, 1);
        ack_of(&mut r, &pkt(5, false));
        ack_of(&mut r, &pkt(5, false));
        assert_eq!(r.duplicate_segments, 2);
    }

    #[test]
    fn interleaved_holes() {
        let mut r = Receiver::new(FlowId(0));
        for seq in [0, 2, 4, 6] {
            ack_of(&mut r, &pkt(seq, false));
        }
        assert_eq!(r.rcv_next, 1);
        ack_of(&mut r, &pkt(1, false));
        assert_eq!(r.rcv_next, 3);
        ack_of(&mut r, &pkt(3, false));
        assert_eq!(r.rcv_next, 5);
        ack_of(&mut r, &pkt(5, false));
        assert_eq!(r.rcv_next, 7);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn buffered_counts_bytes_in_ranges() {
        let mut r = Receiver::new(FlowId(0));
        for seq in [5, 6, 7, 20, 21, 40] {
            ack_of(&mut r, &pkt(seq, false));
        }
        assert_eq!(r.buffered(), 6);
    }
}
