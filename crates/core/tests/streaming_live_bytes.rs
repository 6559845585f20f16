//! Live heap bytes of a long streaming hybrid run stay flat.
//!
//! A streaming run bounds a `MachineRun`'s utilization ledger, feeds it
//! chunk by chunk and retires finished tasks between chunks, so its
//! memory should follow the tasks
//! in flight, not the tasks ever fed (the contract of
//! `faas_cluster::stream`). Task ids keep rising through such a run, so
//! any policy state indexed by task id grows without bound. This test
//! streams 100,000 tasks through a 2+2-core hybrid, one in a hundred long
//! enough to migrate to the CFS group, and checks with a counting global
//! allocator (integration tests are their own crate, so the workspace's
//! `forbid(unsafe_code)` library crates are untouched) that the live heap
//! after the last chunk is within a fixed bound of the live heap after
//! warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use faas_kernel::{CostModel, MachineConfig, MachineRun, TaskSpec};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler, TimeLimitPolicy};

/// Tracks the bytes currently allocated through the system allocator.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

const TASKS: u64 = 100_000;
const CHUNK: u64 = 1_000;
const WARMUP_CHUNKS: u64 = 10;
/// Allowed growth of the live heap from warm-up to the end. The measured
/// growth is 0 B: the bounded ledger folds the busy time behind the
/// policy's window as it is recorded, so nothing grows with simulated
/// time any more
/// (3,584 B while the ledger kept one word per core per simulated
/// second). The bound leaves 1 KiB for queue capacity a later change
/// might reach at peak backlog, far below one word per task fed.
const BOUND: i64 = 1024;

/// Task `i`: an arrival every millisecond, 1 ms of work, except that one
/// in a hundred runs 80 ms and so outlives the 50 ms FIFO limit and
/// migrates to the CFS group. The FIFO group is about 75% busy.
fn spec(i: u64) -> TaskSpec {
    let work = if i % 100 == 7 { 80 } else { 1 };
    TaskSpec::function(SimTime::from_millis(i), SimDuration::from_millis(work), 128)
}

#[test]
fn live_heap_stays_flat_through_a_long_hybrid_stream() {
    let cfg = HybridConfig::split(2, 2)
        .with_time_limit(TimeLimitPolicy::Fixed(SimDuration::from_millis(50)));
    let machine = MachineConfig::new(cfg.total_cores()).with_cost(CostModel::default());
    let mut run = MachineRun::new(machine, Vec::new(), HybridScheduler::new(cfg));
    run.bound_utilization();
    let mut finished = 0;
    let mut warm = None;
    for c in 0..TASKS / CHUNK {
        let specs: Vec<TaskSpec> = (c * CHUNK..(c + 1) * CHUNK).map(spec).collect();
        run.feed_specs(specs);
        run.run_until(SimTime::from_millis((c + 1) * CHUNK))
            .expect("chunk runs");
        finished += run.retire_finished(|_| {});
        if c + 1 == WARMUP_CHUNKS {
            warm = Some(live());
        }
    }
    run.run_to_end().expect("drain runs");
    finished += run.retire_finished(|_| {});
    let grown = live() - warm.expect("warm-up ended");
    assert_eq!(finished as u64, TASKS, "every task finished and retired");
    assert!(
        run.policy().tasks_migrated() >= TASKS / 100,
        "only {} tasks migrated to the CFS group",
        run.policy().tasks_migrated()
    );
    assert!(
        grown <= BOUND,
        "live heap grew by {grown} bytes over {} streamed tasks (bound {BOUND})",
        TASKS - WARMUP_CHUNKS * CHUNK
    );
}
