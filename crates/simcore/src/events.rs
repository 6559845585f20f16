//! A deterministic future-event list.
//!
//! [`EventQueue`] is a [`MinHeap4`] of entries keyed on ([`SimTime`],
//! insertion sequence): events fire in time order and, within the same
//! instant, in insertion order. The sequence tie-break makes simulations
//! bit-for-bit reproducible regardless of payload type, and it keeps
//! every key unique, so the pop order is a pure function of the schedule
//! history.
//!
//! The queue offers no cancellation. Its users invalidate stale events
//! instead: a kernel timer carries its core's generation stamp and is
//! dropped on pop if the core has moved on, so a discrete-event loop needs
//! only push and pop-min.

use crate::heap::MinHeap4;
use crate::time::SimTime;

/// One scheduled event, ordered by `(at, seq)` alone: the payload never
/// takes part in a comparison, so it needs no `Ord` (nor `Copy`).
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking and an
/// allocation-free steady state.
///
/// # Examples
///
/// ```
/// use faas_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(1), "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: MinHeap4<Entry<E>>,
    /// Next insertion sequence number (the FIFO tie-break).
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap4::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at instant `at`, after every event
    /// already scheduled for the same instant.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop_min().map(|e| (e.at, e.payload))
    }

    /// The instant of the earliest event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek_min().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event and restarts the insertion sequence,
    /// keeping the heap's allocation, so a queue can be reused across
    /// benchmark cases (or simulation runs) without reallocating.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_is_a_read_only_view() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), 2);
        q.schedule(SimTime::from_millis(1), 1);
        let q_ref = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_and_invalidates_old_ids() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(9), 9);
        q.schedule(SimTime::from_millis(8), 8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // Events from before the clear never fire; new scheduling starts
        // a fresh FIFO epoch.
        let t = SimTime::from_millis(1);
        q.schedule(t, 100);
        q.schedule(t, 200);
        assert_eq!(q.pop(), Some((t, 100)));
        assert_eq!(q.pop(), Some((t, 200)));
    }
}
