//! A fixed event-queue simulation of the benchmark's own, run before every
//! repeat of a workload to measure how fast the host is at the time.
//!
//! On a shared host, other tenants slow whole runs down for tens of seconds
//! at a time, and no repeat of a workload escapes that. The reference slows
//! down with them: it does the simulator's kind of work (pops and pushes on
//! a binary heap of pending events, and updates of per-entity state), but
//! on the standard library's heap, so no change to the workspace's crates
//! changes its speed. `invocations_per_s` divides that speed out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::marks::Marks;

/// Pending events, one per entity.
const EVENTS: u32 = 1 << 16;
/// Timed pieces after the heap is filled.
const PIECES: usize = 10;
/// Events each piece pops and re-schedules.
const POPS_PER_PIECE: usize = 60_000;

/// The reference's time with every stretch at its fastest, on the host the
/// benchmark's bounds were set on: a host that runs the reference in this
/// time runs at speed 1.
pub const NOMINAL_S: f64 = 0.09;

/// Runs the reference once. It marks its start, the heap filled, and the
/// end of each piece.
pub fn run(marks: &Marks) {
    let mut rng: u64 = 0x5EED;
    let mut draw = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    marks.mark();
    let mut heap = BinaryHeap::with_capacity(EVENTS as usize);
    let mut state = vec![0u64; EVENTS as usize];
    for id in 0..EVENTS {
        heap.push(Reverse((draw() % 1_000_000, id)));
    }
    marks.mark();
    for _ in 0..PIECES {
        for _ in 0..POPS_PER_PIECE {
            let Reverse((now, id)) = heap.pop().expect("every pop re-schedules its event");
            state[id as usize] = state[id as usize].wrapping_add(now);
            heap.push(Reverse((now + draw() % 10_000, id)));
        }
        marks.mark();
    }
    black_box(&state);
}
