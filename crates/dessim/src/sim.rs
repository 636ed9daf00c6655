//! The simulation driver: pops events in time order and dispatches them to
//! a user-supplied model, which may schedule further events.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Interface between the kernel and a domain model.
///
/// The model owns all domain state; the kernel owns the clock and queue.
/// `handle` receives the current virtual time, one event, and a
/// [`Scheduler`] through which it can enqueue follow-up events.
pub trait Model {
    /// Domain event type.
    type Event;

    /// Process one event. Called exactly once per scheduled event, in
    /// non-decreasing time order.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle for scheduling events from inside `Model::handle`.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Schedule an event at an absolute time (clamped to now if earlier,
    /// since the past cannot be scheduled).
    pub fn at(&mut self, time: SimTime, event: E) {
        let t = time.max(self.now);
        self.queue.push(t, event);
    }

    /// Schedule an event `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }
}

/// A running simulation: a model plus the kernel state.
pub struct Simulation<M: Model> {
    /// The domain model (public so callers can inspect state mid-run).
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Wrap a model with an empty queue at time zero.
    pub fn new(model: M) -> Simulation<M> {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Seed an initial event before running.
    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        self.queue.push(time.max(self.now), event);
    }

    /// Process a single event. Returns `false` when the queue is empty.
    fn step(&mut self) -> bool {
        match self.queue.pop() {
            None => false,
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "event queue went backwards in time");
                self.now = t;
                let mut sched = Scheduler {
                    now: t,
                    queue: &mut self.queue,
                };
                self.model.handle(t, ev, &mut sched);
                self.processed += 1;
                true
            }
        }
    }

    /// Run until the queue empties or virtual time would exceed `until`.
    ///
    /// Events scheduled exactly at `until` are processed; later events
    /// stay queued (the simulation can be resumed).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_completion<M: Model>(sim: &mut Simulation<M>) {
        while sim.step() {}
    }

    /// A model that counts ticks and re-schedules itself `limit` times.
    struct Ticker {
        ticks: u64,
        limit: u64,
        times: Vec<SimTime>,
    }

    enum TickEvent {
        Tick,
    }

    impl Model for Ticker {
        type Event = TickEvent;
        fn handle(&mut self, now: SimTime, _ev: TickEvent, sched: &mut Scheduler<TickEvent>) {
            self.ticks += 1;
            self.times.push(now);
            if self.ticks < self.limit {
                sched.after(SimDuration::from_millis(10), TickEvent::Tick);
            }
        }
    }

    #[test]
    fn ticker_runs_to_completion() {
        let mut sim = Simulation::new(Ticker {
            ticks: 0,
            limit: 5,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        run_to_completion(&mut sim);
        assert_eq!(sim.model.ticks, 5);
        assert_eq!(sim.processed(), 5);
        assert_eq!(sim.now, SimTime::ZERO + SimDuration::from_millis(40));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new(Ticker {
            ticks: 0,
            limit: 100,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(25));
        // Ticks at 0, 10, 20 ms processed; 30 ms still pending.
        assert_eq!(sim.model.ticks, 3);
        // Resume.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(45));
        assert_eq!(sim.model.ticks, 5);
    }

    #[test]
    fn time_is_monotone() {
        let mut sim = Simulation::new(Ticker {
            ticks: 0,
            limit: 50,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        run_to_completion(&mut sim);
        let times = &sim.model.times;
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clock_advances_to_horizon_even_when_idle() {
        let mut sim = Simulation::new(Ticker {
            ticks: 0,
            limit: 1,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, TickEvent::Tick);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(sim.now, SimTime::ZERO + SimDuration::from_secs(10));
    }

    /// Model used to verify same-time FIFO dispatch.
    struct Recorder {
        seen: Vec<u32>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
            self.seen.push(ev);
        }
    }

    #[test]
    fn same_time_events_dispatch_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let t = SimTime::from_nanos(5);
        for i in 0..20 {
            sim.schedule(t, i);
        }
        run_to_completion(&mut sim);
        assert_eq!(sim.model.seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        struct PastScheduler {
            fired: Vec<SimTime>,
        }
        impl Model for PastScheduler {
            type Event = bool;
            fn handle(&mut self, now: SimTime, first: bool, sched: &mut Scheduler<bool>) {
                self.fired.push(now);
                if first {
                    // Attempt to schedule in the past: must clamp to now.
                    sched.at(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler { fired: vec![] });
        sim.schedule(SimTime::from_nanos(100), true);
        run_to_completion(&mut sim);
        assert_eq!(sim.model.fired.len(), 2);
        assert_eq!(sim.model.fired[1], SimTime::from_nanos(100));
    }
}
