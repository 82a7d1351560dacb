//! The discrete-event kernel: a time-ordered event queue and run loop.
//!
//! Events are opaque payloads of type `E`; the queue guarantees delivery in
//! non-decreasing timestamp order, with FIFO order among equal timestamps
//! (insertion sequence breaks ties), which keeps runs deterministic.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vc_obs::Recorder;

/// Running totals an [`EventQueue`] keeps about itself.
///
/// Maintained unconditionally — three integer updates per operation — so
/// instrumented and uninstrumented runs execute identical queue code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped (fired).
    pub fired: u64,
    /// High-water mark of pending events.
    pub max_depth: usize,
}

/// A scheduled event: a payload due at an instant.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of events of type `E`.
///
/// ```
/// use vc_sim::event::EventQueue;
/// use vc_sim::time::SimTime;
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Lifetime totals: events scheduled, fired, and the depth high-water
    /// mark.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is before the current time — the past is immutable.
    pub fn schedule(&mut self, due: SimTime, payload: E) {
        assert!(due >= self.now, "cannot schedule into the past ({due} < {})", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { due, seq, payload });
        self.stats.scheduled += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.heap.len());
    }

    /// Schedules `payload` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        let due = self.now + delay;
        self.schedule(due, payload);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.due)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.due >= self.now);
        self.now = s.due;
        self.stats.fired += 1;
        Some((s.due, s.payload))
    }

    /// Drops every pending event (the clock is unchanged).
    pub fn clear_pending(&mut self) {
        self.heap.clear();
    }
}

/// Outcome of handling one event: whether the simulation should continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep processing events.
    Continue,
    /// Stop the run loop after this event.
    Halt,
}

/// A simulation driver: an event queue plus a run loop with a horizon.
///
/// The handler receives each event together with mutable access to the queue
/// so it can schedule follow-up events.
#[derive(Debug)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    events_processed: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a fresh simulation at time zero.
    pub fn new() -> Self {
        Simulation { queue: EventQueue::new(), events_processed: 0 }
    }

    /// The queue, for scheduling initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs until the queue drains, `horizon` is passed, or the handler halts.
    ///
    /// Events due strictly after `horizon` are left in the queue; the clock
    /// does not advance past the last processed event. With a recorder, a
    /// summary `sim`/`kernel` event is emitted when the loop exits: lifetime
    /// events scheduled/fired, the queue-depth high-water mark, and what is
    /// still pending.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F, rec: Option<&mut Recorder>)
    where
        F: FnMut(SimTime, E, &mut EventQueue<E>) -> Flow,
    {
        while let Some(due) = self.queue.peek_time() {
            if due > horizon {
                break;
            }
            let (t, payload) = self.queue.pop().expect("peeked event vanished");
            self.events_processed += 1;
            if handler(t, payload, &mut self.queue) == Flow::Halt {
                break;
            }
        }
        if let Some(rec) = rec {
            let stats = self.queue.stats();
            rec.event(
                self.queue.now(),
                "sim",
                "kernel",
                vec![
                    ("scheduled", stats.scheduled.into()),
                    ("fired", stats.fired.into()),
                    ("max_depth", stats.max_depth.into()),
                    ("pending", self.queue.len().into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(3), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new();
        for s in 1..=10 {
            sim.queue_mut().schedule(SimTime::from_secs(s), s);
        }
        let mut seen = Vec::new();
        sim.run_until(
            SimTime::from_secs(4),
            |_, e, _| {
                seen.push(e);
                Flow::Continue
            },
            None,
        );
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim = Simulation::new();
        sim.queue_mut().schedule(SimTime::from_secs(1), 0u32);
        let mut count = 0;
        sim.run_until(
            SimTime::from_secs(100),
            |_, gen, q| {
                count += 1;
                if gen < 4 {
                    q.schedule_in(SimDuration::from_secs(1), gen + 1);
                }
                Flow::Continue
            },
            None,
        );
        assert_eq!(count, 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn handler_halt_stops_run() {
        let mut sim = Simulation::new();
        for s in 1..=10 {
            sim.queue_mut().schedule(SimTime::from_secs(s), s);
        }
        let mut seen = 0;
        sim.run_until(
            SimTime::MAX,
            |_, e, _| {
                seen = e;
                if e == 3 {
                    Flow::Halt
                } else {
                    Flow::Continue
                }
            },
            None,
        );
        assert_eq!(seen, 3);
    }

    #[test]
    fn queue_stats_track_traffic_and_depth() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.schedule(SimTime::from_secs(3), ());
        q.pop();
        q.pop();
        let stats = q.stats();
        assert_eq!(stats, QueueStats { scheduled: 3, fired: 2, max_depth: 3 });
    }

    #[test]
    fn run_until_with_recorder_emits_kernel_summary() {
        use vc_obs::Value;

        let run = |rec: Option<&mut Recorder>| {
            let mut sim = Simulation::new();
            for s in 1..=6 {
                sim.queue_mut().schedule(SimTime::from_secs(s), s);
            }
            let mut seen = Vec::new();
            sim.run_until(
                SimTime::from_secs(4),
                |_, e, _| {
                    seen.push(e);
                    Flow::Continue
                },
                rec,
            );
            (seen, sim.now(), sim.events_processed(), sim.queue_mut().len())
        };
        let mut rec = Recorder::new();
        assert_eq!(run(None), run(Some(&mut rec)));
        assert_eq!(rec.len(), 1);
        let summary = rec.events().next().unwrap();
        assert_eq!((summary.component, summary.kind), ("sim", "kernel"));
        assert_eq!(summary.at, SimTime::from_secs(4));
        let fields = &summary.fields;
        assert!(fields.contains(&("scheduled", Value::U64(6))));
        assert!(fields.contains(&("fired", Value::U64(4))));
        assert!(fields.contains(&("max_depth", Value::U64(6))));
        assert!(fields.contains(&("pending", Value::U64(2))));
    }

    #[test]
    fn clear_pending_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.clear_pending();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
