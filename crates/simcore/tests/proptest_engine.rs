//! Property-based tests for the discrete-event engine.

use faas_simcore::{check, EventQueue, MinHeap4, SimDuration, SimTime};

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

/// Differential model check of the queue: under chaotic schedule/pop/
/// peek interleavings, the queue must agree with a brute-force reference
/// model of the documented contract — pops ordered by (time, insertion
/// sequence), `len`/`peek_time` consistent throughout.
#[test]
fn event_queue_matches_reference_model() {
    check::run("event_queue_matches_reference_model", 192, |g| {
        let steps = g.usize_in(1, 120);
        let mut q = EventQueue::new();
        // The model: per scheduled event, its (time, seq) key while still
        // pending (`None` once popped), indexed by schedule order.
        // Payloads are the schedule indices.
        let mut pending: Vec<Option<(SimTime, u64)>> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..steps {
            match g.usize_in(0, 3) {
                // Schedule (twice as likely, so queues actually grow).
                0 | 1 => {
                    let at = SimTime::from_micros(g.u64_in(0, 1_000));
                    q.schedule(at, pending.len());
                    pending.push(Some((at, seq)));
                    seq += 1;
                }
                // Pop must deliver the model's (time, seq)-minimum.
                _ => {
                    let min = pending
                        .iter()
                        .enumerate()
                        .filter_map(|(i, k)| k.map(|key| (key, i)))
                        .min();
                    match min {
                        Some(((at, _), i)) => {
                            assert_eq!(q.pop(), Some((at, i)), "pop");
                            pending[i] = None;
                        }
                        None => assert_eq!(q.pop(), None, "pop on empty"),
                    }
                }
            }
            let live = pending.iter().flatten().count();
            assert_eq!(q.len(), live, "len diverged");
            let min_t = pending.iter().flatten().map(|&(at, _)| at).min();
            assert_eq!(q.peek_time(), min_t, "peek_time diverged");
        }
    });
}

/// Differential model check of the runqueue heap: `push`/`pop_min`/
/// `take_max` over unique keys must mirror a `BTreeSet`'s
/// `iter().next()` / `iter().next_back()` picks exactly (the old
/// runqueue implementation).
#[test]
fn min_heap4_matches_btreeset_model() {
    use std::collections::BTreeSet;
    check::run("min_heap4_matches_btreeset_model", 192, |g| {
        let steps = g.usize_in(1, 150);
        let mut h: MinHeap4<(u64, u64)> = MinHeap4::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut uniq = 0u64;
        for _ in 0..steps {
            match g.usize_in(0, 4) {
                0 | 1 => {
                    // Unique keys, as the runqueues guarantee via the
                    // task-id tie-break.
                    let key = (g.u64_in(0, 50), uniq);
                    uniq += 1;
                    h.push(key);
                    model.insert(key);
                }
                2 => {
                    let expect = model.iter().next().copied();
                    if let Some(k) = expect {
                        model.remove(&k);
                    }
                    assert_eq!(h.pop_min(), expect, "pop_min diverged");
                }
                _ => {
                    let expect = model.iter().next_back().copied();
                    if let Some(k) = expect {
                        model.remove(&k);
                    }
                    assert_eq!(h.take_max(), expect, "take_max diverged");
                }
            }
            assert_eq!(h.len(), model.len(), "len diverged");
            assert_eq!(h.peek_min(), model.iter().next(), "peek diverged");
        }
        let sorted: Vec<_> = model.iter().copied().collect();
        assert_eq!(h.into_sorted_vec(), sorted, "final drain diverged");
    });
}

/// `clear` starts a fresh FIFO epoch: events scheduled after it pop in
/// (time, insertion) order and no stale entry leaks through.
#[test]
fn clear_preserves_order() {
    check::run("clear_preserves_order", 128, |g| {
        let mut q = EventQueue::new();
        // A throwaway epoch that `clear` must fully erase.
        for i in 0..g.usize_in(0, 20) {
            q.schedule(SimTime::from_micros(g.u64_in(0, 100)), i);
        }
        q.clear();
        let n = g.usize_in(1, 60);
        let mut expected: Vec<(SimTime, usize)> = Vec::new();
        for i in 0..n {
            let at = SimTime::from_micros(g.u64_in(0, 50));
            q.schedule(at, i);
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
