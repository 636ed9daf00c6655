//! DropTail (FIFO, byte-bounded) queue — the bottleneck buffer.
//!
//! The paper's switch has a buffer of one bandwidth-delay product; the
//! experiments in §3 all hinge on how competing flows share this queue.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Statistics accumulated by a queue over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped because the buffer was full.
    pub dropped: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_occupancy_bytes: u64,
}

/// A byte-capacity DropTail queue.
#[derive(Debug)]
pub(crate) struct DropTailQueue {
    capacity_bytes: u64,
    occupancy_bytes: u64,
    packets: VecDeque<Packet>,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Create a queue holding at most `capacity_bytes` of packets.
    pub(crate) fn new(capacity_bytes: u64) -> DropTailQueue {
        DropTailQueue {
            capacity_bytes,
            occupancy_bytes: 0,
            packets: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// Lifetime statistics.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Offer a packet. Returns `true` if accepted, `false` if dropped.
    ///
    /// A packet is accepted if it fits entirely within the remaining
    /// capacity (tail drop).
    pub(crate) fn offer(&mut self, pkt: Packet) -> bool {
        let size = pkt.size_bytes as u64;
        if self.occupancy_bytes + size > self.capacity_bytes {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += size;
            false
        } else {
            self.occupancy_bytes += size;
            self.stats.enqueued += 1;
            self.stats.max_occupancy_bytes =
                self.stats.max_occupancy_bytes.max(self.occupancy_bytes);
            self.packets.push_back(pkt);
            true
        }
    }

    /// Dequeue the head packet.
    pub(crate) fn take(&mut self) -> Option<Packet> {
        let pkt = self.packets.pop_front()?;
        self.occupancy_bytes -= pkt.size_bytes as u64;
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use dessim::SimTime;

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet {
            flow: FlowId(0),
            seq,
            size_bytes: size,
            is_retx: false,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10_000);
        for i in 0..5 {
            assert!(q.offer(pkt(i, 1000)));
        }
        for i in 0..5 {
            assert_eq!(q.take().unwrap().seq, i);
        }
        assert!(q.take().is_none());
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTailQueue::new(2_500);
        assert!(q.offer(pkt(0, 1000)));
        assert!(q.offer(pkt(1, 1000)));
        assert!(!q.offer(pkt(2, 1000))); // 3000 > 2500
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.packets.len(), 2);
    }

    #[test]
    fn occupancy_conservation() {
        // Invariant: occupancy equals the sum of the sizes of held packets.
        let mut q = DropTailQueue::new(100_000);
        let mut expected = 0u64;
        for i in 0..50 {
            let size = 100 + (i as u32 * 37) % 1400;
            if q.offer(pkt(i, size)) {
                expected += size as u64;
            }
            if i % 3 == 0 {
                if let Some(p) = q.take() {
                    expected -= p.size_bytes as u64;
                }
            }
            assert_eq!(q.occupancy_bytes, expected);
        }
    }

    #[test]
    fn drop_counts_bytes() {
        let mut q = DropTailQueue::new(1_000);
        assert!(q.offer(pkt(0, 1000)));
        assert!(!q.offer(pkt(1, 1000)));
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().dropped_bytes, 1000);
    }

    #[test]
    fn high_water_mark_tracks_peak() {
        let mut q = DropTailQueue::new(10_000);
        q.offer(pkt(0, 4000));
        q.offer(pkt(1, 4000));
        q.take();
        q.take();
        q.offer(pkt(2, 1000));
        assert_eq!(q.stats().max_occupancy_bytes, 8000);
    }
}
