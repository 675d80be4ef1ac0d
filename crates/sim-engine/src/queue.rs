//! Stable event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Min-heap of timestamped events with stable FIFO tie-breaking.
///
/// Events scheduled for the same instant fire in the order they were
/// scheduled. A plain `BinaryHeap` does not guarantee this, so entries
/// carry a monotonically increasing sequence number and pop by
/// `(time, seq)`. That total order is what makes a simulation
/// reproducible bit for bit.
///
/// There is no cancellation: the simulators never retract a scheduled
/// event (the net-sim runner guards against double-scheduling a MAC
/// send with per-node flags instead), so the queue holds only the heap,
/// the sequence counter and the clock.
///
/// # Examples
///
/// ```
/// use pbbf_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "timeout");
/// q.schedule(SimTime::from_secs(1.0), "beacon");
/// q.schedule(SimTime::from_secs(1.0), "data");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "beacon")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "data")));
/// assert_eq!(q.now(), SimTime::from_secs(1.0));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

#[derive(Debug)]
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
        // Reverse: BinaryHeap is a max-heap, we need earliest-first, and
        // among equals lowest sequence number first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current clock — scheduling into the past
    /// would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned past event");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5.0));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 1);
        q.pop().unwrap();
        // now == 1.0 s; scheduling at exactly now is legal ("immediately").
        q.schedule(q.now(), 2);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn schedule_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        q.pop().unwrap();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 1);
        let (t, v) = q.pop().unwrap();
        assert_eq!(v, 1);
        q.schedule(t + SimDuration::from_secs(1.0), 2);
        q.schedule(t + SimDuration::from_secs(0.5), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
