//! The event queue: a priority queue ordered by event time with FIFO
//! tie-breaking for determinism.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first. seq breaks ties in insertion order.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same instant pop in the order they were
/// pushed, which keeps simulations reproducible regardless of heap
/// internals.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        let t = |n| SimTime::from_nanos(n);
        q.push(t(10), 1);
        q.push(t(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(t(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_nanos(9), ());
        q.push(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(3));
    }

    mod properties {
        //! Property tests for the determinism contract: the queue drains
        //! as a *stable* sort by time — events at equal instants pop in
        //! push order, under any interleaving of pushes and pops. The
        //! hybrid engine's within-tick ordering (hour flush before
        //! arrivals) rides on exactly this guarantee.
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Draining a batch of pushes yields the stable time-sort of
            /// the inputs. Times are drawn from a tiny range so nearly
            /// every case exercises duplicate timestamps.
            #[test]
            fn drain_is_stable_time_sort(times in prop::collection::vec(0u64..8, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(SimTime::from_nanos(t), i);
                }
                let mut expect: Vec<(u64, usize)> =
                    times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
                // `sort_by_key` is stable: ties keep push order, which is
                // the queue's documented FIFO tie-break.
                expect.sort_by_key(|&(t, _)| t);
                for &(t, i) in &expect {
                    let (pt, pi) = q.pop().unwrap();
                    prop_assert_eq!(pt, SimTime::from_nanos(t));
                    prop_assert_eq!(pi, i);
                }
                prop_assert!(q.pop().is_none());
            }

            /// Interleaved pushes and pops match a model that re-sorts
            /// (stably) on every pop: a pop mid-stream returns the
            /// earliest (time, push-seq) among events pushed *so far*,
            /// and later pushes at the same instant never jump ahead.
            #[test]
            fn interleaved_push_pop_matches_model(
                ops in prop::collection::vec((0u64..8, prop::bool::weighted(0.4)), 1..200),
            ) {
                let mut q = EventQueue::new();
                let mut model: Vec<(u64, usize)> = Vec::new();
                let mut seq = 0usize;
                for &(t, is_pop) in &ops {
                    if is_pop {
                        let got = q.pop();
                        if model.is_empty() {
                            prop_assert!(got.is_none());
                        } else {
                            let best = *model
                                .iter()
                                .min_by_key(|&&(bt, bs)| (bt, bs))
                                .unwrap();
                            model.retain(|&e| e != best);
                            let (pt, ps) = got.unwrap();
                            prop_assert_eq!(pt, SimTime::from_nanos(best.0));
                            prop_assert_eq!(ps, best.1);
                        }
                    } else {
                        q.push(SimTime::from_nanos(t), seq);
                        model.push((t, seq));
                        seq += 1;
                    }
                    match q.peek_time() {
                        Some(pt) => {
                            let bt = model.iter().map(|&(bt, _)| bt).min().unwrap();
                            prop_assert_eq!(pt, SimTime::from_nanos(bt));
                        }
                        None => prop_assert!(model.is_empty()),
                    }
                }
            }
        }
    }
}
