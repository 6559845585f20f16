//! A deterministic future-event list.
//!
//! [`EventQueue`] orders entries on ([`SimTime`], insertion sequence):
//! events fire in time order and, within the same instant, in insertion
//! order. The sequence tie-break makes simulations bit-for-bit
//! reproducible regardless of payload type, and it keeps every key unique,
//! so the pop order is a pure function of the schedule history.
//!
//! Entries live in one of two places:
//!
//! * a [`MinHeap4`], for events scheduled at an instant
//!   ([`EventQueue::schedule`]);
//! * a few FIFO *delay lanes*, for timers armed a fixed delay ahead of the
//!   caller's clock ([`EventQueue::schedule_after`]). Each lane holds the
//!   entries of one delay. The caller's clock must never run backwards
//!   from one call to the next (debug builds assert it) and the sequence
//!   only grows, so each lane is already sorted by (time, seq), and
//!   appending keeps it so.
//!
//! A pop takes the smallest of the heap's top and the lanes' fronts. Every
//! entry sits in a source sorted by the same key, so the pop order is
//! exactly the order one heap over every entry would give. A simulation
//! whose timers mostly repeat a few delays (CFS slices at the same
//! granularity, periodic ticks, deadline cancels one fixed timeout past
//! each arrival) pays an append and a short scan for them instead of a
//! heap push and pop.
//!
//! The queue offers no cancellation. Its users invalidate stale events
//! instead: a kernel timer carries its core's generation stamp and is
//! dropped on pop if the core has moved on, so a discrete-event loop needs
//! only push and pop-min.

use std::collections::VecDeque;

use crate::heap::MinHeap4;
use crate::time::{SimDuration, SimTime};

/// Delay lanes per queue (a power of two, for the pairwise merge). A
/// delay that finds no lane keyed to it and no empty lane to re-key goes
/// to the heap, which keeps the order exact.
const LANES: usize = 8;
const _: () = assert!(LANES.is_power_of_two());

/// The key of an empty lane's front; above every real key, whose
/// sequence half never reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// `(at, seq)` packed into one integer that sorts as the pair does, so
/// each comparison is one wide compare.
#[inline]
fn key(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_micros()) << 64) | u128::from(seq)
}

/// One scheduled event, ordered by its key alone: the payload never
/// takes part in a comparison, so it needs no `Ord` (nor `Copy`).
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn at(&self) -> SimTime {
        SimTime::from_micros((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

/// A future-event list with deterministic FIFO tie-breaking and an
/// allocation-free steady state.
///
/// Events scheduled with [`schedule`](Self::schedule) go to a heap; timers
/// armed with [`schedule_after`](Self::schedule_after) go to FIFO lanes
/// keyed by their delay. Both share one insertion sequence, so the pop
/// order is (time, insertion order) across all of them, whichever call
/// scheduled each event.
///
/// # Examples
///
/// ```
/// use faas_simcore::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// // A timer armed 1 ms after instant 1 ms: due at 2 ms, after "late".
/// q.schedule_after(SimTime::from_millis(1), SimDuration::from_millis(1), "timer");
/// assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// // Nothing fires strictly before 2 ms any more.
/// assert_eq!(q.pop_before(SimTime::from_millis(2)), None);
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "timer")));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: MinHeap4<Entry<E>>,
    /// Each lane's front key, [`EMPTY`] while the lane is empty, so a pop
    /// reads one small array.
    fronts: [u128; LANES],
    /// The delay each lane holds entries of.
    delays: [SimDuration; LANES],
    lanes: [VecDeque<Entry<E>>; LANES],
    /// Lanes keyed so far: a prefix of the arrays, the only lanes a new
    /// delay is looked up in. While it is zero a pop reads the heap alone.
    keyed: usize,
    /// Next insertion sequence number (the FIFO tie-break).
    next_seq: u64,
    /// `now` of the latest [`schedule_after`](Self::schedule_after) call.
    last_now: SimTime,
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
            fronts: [EMPTY; LANES],
            delays: [SimDuration::ZERO; LANES],
            lanes: std::array::from_fn(|_| VecDeque::new()),
            keyed: 0,
            next_seq: 0,
            last_now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at instant `at`, after every event
    /// already scheduled for the same instant.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let entry = self.entry(at, payload);
        self.heap.push(entry);
    }

    /// Schedules `payload` to fire `delay` after `now`, after every event
    /// already scheduled for that instant: the same as
    /// `schedule(now + delay, payload)`, but timers that repeat a delay
    /// share a FIFO lane instead of the heap.
    ///
    /// `now` must never decrease from one call to the next (until
    /// [`clear`](Self::clear)); a simulation passes its clock, which only
    /// moves forward. That is what keeps each lane sorted. Debug builds
    /// assert it.
    #[inline]
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, payload: E) {
        debug_assert!(
            now >= self.last_now,
            "schedule_after: now went back from {} to {now}",
            self.last_now
        );
        self.last_now = now;
        let entry = self.entry(now + delay, payload);
        match self.lane_for(delay) {
            Some(i) => {
                if self.fronts[i] == EMPTY {
                    self.fronts[i] = entry.key;
                }
                self.lanes[i].push_back(entry);
            }
            None => self.heap.push(entry),
        }
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (min, source) = self.min();
        (min != EMPTY).then(|| self.take(source))
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `limit`; otherwise leaves the queue as it is. One merge of the heap
    /// and the lanes, where `peek_time` followed by `pop` would take two.
    #[inline]
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (min, source) = self.min();
        // `at < limit` exactly when the key is below `limit`'s lowest key.
        (min < key(limit, 0)).then(|| self.take(source))
    }

    /// The instant of the earliest event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let (min, _) = self.min();
        (min != EMPTY).then(|| SimTime::from_micros((min >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every pending event, in the heap and the lanes, and restarts
    /// the insertion sequence and the clock [`schedule_after`] checks,
    /// keeping the allocations, so a queue can be reused across benchmark
    /// cases (or simulation runs) without reallocating.
    ///
    /// [`schedule_after`]: Self::schedule_after
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
        self.fronts = [EMPTY; LANES];
        self.keyed = 0;
        self.next_seq = 0;
        self.last_now = SimTime::ZERO;
    }

    /// A new entry for `at`, taking the next sequence number.
    #[inline]
    fn entry(&mut self, at: SimTime, payload: E) -> Entry<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry {
            key: key(at, seq),
            payload,
        }
    }

    /// The lane for entries of `delay`: the lane keyed to it, else an
    /// empty lane re-keyed to it, else `None` (the heap takes the entry).
    #[inline]
    fn lane_for(&mut self, delay: SimDuration) -> Option<usize> {
        if let Some(i) = self.delays[..self.keyed].iter().position(|&d| d == delay) {
            return Some(i);
        }
        let i = match self.fronts[..self.keyed].iter().position(|&f| f == EMPTY) {
            Some(i) => i,
            None if self.keyed < LANES => {
                self.keyed += 1;
                self.keyed - 1
            }
            None => return None,
        };
        self.delays[i] = delay;
        Some(i)
    }

    /// The smallest key pending ([`EMPTY`] if none) and where it sits: a
    /// lane index, or [`LANES`] for the heap. The lane fronts reduce
    /// pairwise, so their compares overlap instead of forming one chain;
    /// a queue that never armed a timer skips them.
    #[inline(always)]
    fn min(&self) -> (u128, usize) {
        fn lower(a: (u128, usize), b: (u128, usize)) -> (u128, usize) {
            if b.0 < a.0 {
                b
            } else {
                a
            }
        }
        let heap = (self.heap.peek_min().map_or(EMPTY, |e| e.key), LANES);
        if self.keyed == 0 {
            return heap;
        }
        let mut best: [(u128, usize); LANES] = std::array::from_fn(|i| (self.fronts[i], i));
        let mut n = LANES;
        while n > 1 {
            n /= 2;
            for i in 0..n {
                best[i] = lower(best[2 * i], best[2 * i + 1]);
            }
        }
        lower(heap, best[0])
    }

    /// Removes the front entry of `source` (see [`min`](Self::min)).
    #[inline(always)]
    fn take(&mut self, source: usize) -> (SimTime, E) {
        let entry = if source == LANES {
            self.heap.pop_min().expect("the heap holds the minimum")
        } else {
            let lane = &mut self.lanes[source];
            let entry = lane.pop_front().expect("the lane holds the minimum");
            self.fronts[source] = lane.front().map_or(EMPTY, |e| e.key);
            entry
        };
        (entry.at(), entry.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clear_empties_the_queue_and_restarts_the_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(9), 9);
        q.schedule(SimTime::from_millis(8), 8);
        q.schedule_after(SimTime::from_millis(5), SimDuration::from_millis(2), 7);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        // Events from before the clear never fire; new scheduling starts
        // a fresh FIFO epoch, with a clock that may start over.
        let t = SimTime::from_millis(1);
        q.schedule_after(SimTime::ZERO, SimDuration::from_millis(1), 100);
        q.schedule(t, 200);
        assert_eq!(q.pop(), Some((t, 100)));
        assert_eq!(q.pop(), Some((t, 200)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lanes_and_heap_merge_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        let ms = SimTime::from_millis;
        let d = SimDuration::from_millis;
        q.schedule_after(ms(0), d(3), "a"); // 3 ms, lane of 3 ms
        q.schedule(ms(3), "b"); // 3 ms, heap
        q.schedule_after(ms(1), d(2), "c"); // 3 ms, lane of 2 ms
        q.schedule_after(ms(1), d(3), "d"); // 4 ms, lane of 3 ms
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_before(ms(3)), None, "nothing before 3 ms");
        assert_eq!(q.pop_before(ms(4)), Some((ms(3), "a")));
        assert_eq!(q.pop(), Some((ms(3), "b")));
        assert_eq!(q.pop(), Some((ms(3), "c")));
        assert_eq!(q.peek_time(), Some(ms(4)));
        assert_eq!(q.pop(), Some((ms(4), "d")));
        assert!(q.is_empty());
    }

    #[test]
    fn delays_beyond_the_lanes_overflow_to_the_heap_in_order() {
        let mut q = EventQueue::new();
        let n = LANES as u64 + 4;
        // Every delay gets a lane until they run out; the rest share the
        // heap, and the merge still pops by time.
        for i in 0..n {
            q.schedule_after(SimTime::ZERO, SimDuration::from_micros(n - i), i);
        }
        assert_eq!(q.keyed, LANES);
        assert_eq!(q.heap.len(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..n).rev().collect::<Vec<_>>());
        // Emptied lanes are re-keyed to new delays.
        q.schedule_after(SimTime::ZERO, SimDuration::from_micros(1_000), 0);
        assert_eq!(q.keyed, LANES);
        assert!(q.heap.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "now went back")]
    fn schedule_after_rejects_a_clock_that_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_millis(2), SimDuration::from_millis(1), ());
        q.schedule_after(SimTime::from_millis(1), SimDuration::from_millis(1), ());
    }
}
