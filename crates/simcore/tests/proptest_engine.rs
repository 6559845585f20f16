//! Property-based tests for the discrete-event engine.

use faas_simcore::{check, EventQueue, MinHeap4, SimDuration, SimTime, SortedDeque};

/// Popped timestamps are non-decreasing for arbitrary schedules.
#[test]
fn pop_order_is_monotone() {
    check::run("pop_order_is_monotone", 256, |g| {
        let times = g.vec_u64(0, 1_000_000, 1, 200);
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

/// Every scheduled event is delivered exactly once.
#[test]
fn delivery_is_exactly_once() {
    check::run("delivery_is_exactly_once", 256, |g| {
        let times = g.vec_u64(0, 1_000, 1, 100);
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        got.sort_unstable();
        assert_eq!(got, (0..times.len()).collect::<Vec<_>>());
    });
}

/// Ties at the same instant preserve insertion order.
#[test]
fn fifo_within_instant() {
    check::run("fifo_within_instant", 64, |g| {
        let n = g.usize_in(1, 100);
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..n {
            q.schedule(t, i);
        }
        let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    });
}

/// Delays `schedule_after` draws from in the queue's model checks: more
/// than the queue's eight delay lanes, so lanes fill, empty, get re-keyed
/// to other delays, and overflow to the heap.
const DELAYS_US: [u64; 12] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];

/// Differential model check of the queue: under chaotic schedule/pop/
/// peek interleavings, the queue must agree with a brute-force reference
/// model of the documented contract — pops ordered by (time, insertion
/// sequence), `len`/`peek_time` consistent throughout — whether an event
/// went through `schedule` (the heap) or `schedule_after` (a delay lane).
///
/// A clock advances to each popped instant, as a simulation's does, and
/// `schedule_after` arms timers a delay ahead of it. `schedule` lands
/// near the clock, so many events share an instant with others from
/// both sources. Pops are plain or bounded (`pop_before`).
#[test]
fn event_queue_matches_reference_model() {
    use std::cell::Cell;
    // Timers armed while more delays were pending than the queue has
    // lanes: some of those must have overflowed to the heap.
    let overflowing = Cell::new(0u32);
    check::run("event_queue_matches_reference_model", 192, |g| {
        let steps = g.usize_in(1, 200);
        let mut q = EventQueue::new();
        // The model: per scheduled event, its (time, seq) key while still
        // pending (`None` once popped), indexed by schedule order, and
        // the delay it was armed with (`None` for `schedule`). Payloads
        // are the schedule indices.
        let mut pending: Vec<Option<(SimTime, u64)>> = Vec::new();
        let mut armed: Vec<Option<u64>> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        for _ in 0..steps {
            match g.usize_in(0, 6) {
                // Schedule at an instant at or shortly after the clock.
                0 | 1 => {
                    let at = now + SimDuration::from_micros(g.u64_in(0, 20));
                    q.schedule(at, pending.len());
                    pending.push(Some((at, seq)));
                    armed.push(None);
                    seq += 1;
                }
                // Arm a timer a fixed delay ahead of the clock.
                2 | 3 => {
                    let d = DELAYS_US[g.usize_in(0, DELAYS_US.len())];
                    let mut live: Vec<u64> = pending
                        .iter()
                        .zip(&armed)
                        .filter_map(|(k, d)| k.and(*d))
                        .filter(|&other| other != d)
                        .collect();
                    live.sort_unstable();
                    live.dedup();
                    if live.len() >= 8 {
                        overflowing.set(overflowing.get() + 1);
                    }
                    q.schedule_after(now, SimDuration::from_micros(d), pending.len());
                    pending.push(Some((now + SimDuration::from_micros(d), seq)));
                    armed.push(Some(d));
                    seq += 1;
                }
                // Pop, or pop before a limit near the clock: either must
                // deliver the model's (time, seq)-minimum, or nothing.
                op => {
                    let min = pending
                        .iter()
                        .enumerate()
                        .filter_map(|(i, k)| k.map(|key| (key, i)))
                        .min();
                    let limit = (op == 5).then(|| now + SimDuration::from_micros(g.u64_in(0, 40)));
                    let got = match limit {
                        Some(limit) => q.pop_before(limit),
                        None => q.pop(),
                    };
                    match min {
                        Some(((at, _), i)) if limit.is_none_or(|l| at < l) => {
                            assert_eq!(got, Some((at, i)), "pop (limit {limit:?})");
                            pending[i] = None;
                            now = at;
                        }
                        _ => assert_eq!(got, None, "pop (limit {limit:?}) with nothing due"),
                    }
                }
            }
            let live = pending.iter().flatten().count();
            assert_eq!(q.len(), live, "len diverged");
            assert_eq!(q.is_empty(), live == 0, "is_empty diverged");
            let min_t = pending.iter().flatten().map(|&(at, _)| at).min();
            assert_eq!(q.peek_time(), min_t, "peek_time diverged");
        }
    });
    assert!(
        overflowing.get() > 500,
        "only {} timers armed past the lane count",
        overflowing.get()
    );
}

/// Differential model check of the 4-ary heap: `push`/`pop_min` over
/// unique keys must mirror a `BTreeSet`'s `iter().next()` picks exactly.
#[test]
fn min_heap4_matches_btreeset_model() {
    use std::collections::BTreeSet;
    check::run("min_heap4_matches_btreeset_model", 192, |g| {
        let steps = g.usize_in(1, 150);
        let mut h: MinHeap4<(u64, u64)> = MinHeap4::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut uniq = 0u64;
        for _ in 0..steps {
            if g.usize_in(0, 3) < 2 {
                // Unique keys, as the event queue guarantees via its
                // insertion-order tie-break.
                let key = (g.u64_in(0, 50), uniq);
                uniq += 1;
                h.push(key);
                model.insert(key);
            } else {
                assert_eq!(h.pop_min(), model.pop_first(), "pop_min diverged");
            }
            assert_eq!(h.len(), model.len(), "len diverged");
            assert_eq!(h.peek_min(), model.first(), "peek diverged");
        }
        let drained: Vec<_> = std::iter::from_fn(|| h.pop_min()).collect();
        let sorted: Vec<_> = model.into_iter().collect();
        assert_eq!(drained, sorted, "final drain diverged");
    });
}

/// Differential model check of the run-queue deque: `push`/`pop_min`/
/// `take_max` over unique keys must mirror a `BTreeSet`'s
/// `iter().next()` / `iter().next_back()` picks exactly. Pushed keys are
/// drawn at random, behind the back (the append path) or ahead of the
/// front (front inserts), and the run checks that both paths were hit.
#[test]
fn sorted_deque_matches_btreeset_model() {
    use std::cell::Cell;
    use std::collections::BTreeSet;
    let (appends, front_inserts) = (Cell::new(0u32), Cell::new(0u32));
    check::run("sorted_deque_matches_btreeset_model", 192, |g| {
        let steps = g.usize_in(1, 150);
        let mut q: SortedDeque<(u64, u64)> = SortedDeque::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut uniq = 0u64;
        for _ in 0..steps {
            let op = g.usize_in(0, 6);
            if op < 4 {
                // Unique keys, as the run queues guarantee via the task-id
                // tie-break; `uniq` grows, so a key at the back's vruntime
                // sorts after it.
                let vr = match (g.usize_in(0, 3), model.first(), model.last()) {
                    (0, _, Some(back)) => back.0 + g.u64_in(0, 3),
                    (1, Some(front), _) => front.0.saturating_sub(g.u64_in(1, 4)),
                    _ => g.u64_in(0, 1_000),
                };
                let key = (vr, uniq);
                uniq += 1;
                if model.last().is_none_or(|back| key > *back) {
                    appends.set(appends.get() + 1);
                } else if model.first().is_some_and(|front| key < *front) {
                    front_inserts.set(front_inserts.get() + 1);
                }
                model.insert(key);
                q.push(key);
            } else if op == 4 {
                assert_eq!(q.pop_min(), model.pop_first(), "pop_min diverged");
            } else {
                assert_eq!(q.take_max(), model.pop_last(), "take_max diverged");
            }
            assert_eq!(q.len(), model.len(), "len diverged");
            assert_eq!(q.peek_min(), model.first(), "peek diverged");
        }
        let drained: Vec<_> = std::iter::from_fn(|| q.pop_min()).collect();
        let sorted: Vec<_> = model.into_iter().collect();
        assert_eq!(drained, sorted, "final drain diverged");
    });
    assert!(appends.get() > 1_000, "{} appends", appends.get());
    assert!(
        front_inserts.get() > 1_000,
        "{} front inserts",
        front_inserts.get()
    );
}

/// `clear` starts a fresh FIFO epoch: events scheduled after it pop in
/// (time, insertion) order and no stale entry leaks through, from the
/// heap or from a delay lane. The new epoch's clock may start below the
/// old one's.
#[test]
fn clear_preserves_order() {
    check::run("clear_preserves_order", 128, |g| {
        let mut q = EventQueue::new();
        // A throwaway epoch that `clear` must fully erase, its clock
        // ahead of the next epoch's.
        let mut now = SimTime::from_micros(100);
        for i in 0..g.usize_in(0, 20) {
            if g.boolean() {
                q.schedule(SimTime::from_micros(g.u64_in(100, 200)), i);
            } else {
                now += SimDuration::from_micros(g.u64_in(0, 3));
                let d = DELAYS_US[g.usize_in(0, DELAYS_US.len())];
                q.schedule_after(now, SimDuration::from_micros(d), i);
            }
        }
        q.clear();
        assert!(q.is_empty(), "clear left events behind");
        let n = g.usize_in(1, 60);
        let mut expected: Vec<(SimTime, usize)> = Vec::new();
        now = SimTime::ZERO;
        for i in 0..n {
            let at = if g.boolean() {
                let at = SimTime::from_micros(g.u64_in(0, 50));
                q.schedule(at, i);
                at
            } else {
                now += SimDuration::from_micros(g.u64_in(0, 3));
                let d = SimDuration::from_micros(DELAYS_US[g.usize_in(0, DELAYS_US.len())]);
                q.schedule_after(now, d, i);
                now + d
            };
            expected.push((at, i));
        }
        expected.sort();
        let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<usize> = expected.into_iter().map(|(_, i)| i).collect();
        assert_eq!(got, want);
    });
}

/// SimTime/SimDuration arithmetic round-trips.
#[test]
fn time_arithmetic_roundtrip() {
    check::run("time_arithmetic_roundtrip", 256, |g| {
        let base = g.u64_in(0, u32::MAX as u64);
        let delta = g.u64_in(0, u32::MAX as u64);
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    });
}
