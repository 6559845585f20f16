//! Steady-state allocation budget of the front-end fold.
//!
//! PR 10's contract is an *allocation-free* dispatch hot path: after
//! warmup, a dispatch decision touches only retained structures — the
//! indexed heaps, the global completion heap, the candidate scratch, the
//! warm-site index and the health tracker's reusable query sketch. The
//! only heap traffic left per chunk is the `Assignment` output itself
//! (one outer `Vec` plus amortized growth of the per-machine spec
//! vectors), which is O(log chunk) reallocations per machine, not O(1)
//! per invocation.
//!
//! This test pins that budget with a counting `#[global_allocator]`
//! (zero-dep; integration tests are their own crate, so the workspace's
//! `forbid(unsafe_code)` kernel crates are untouched): on a
//! cluster01-shaped stream, post-warmup chunks must stay under a small
//! per-chunk allocation cap — orders of magnitude below one allocation
//! per invocation — for both the bare fleet and the full
//! chaos + health + hedging stack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use azure_trace::{AzureTrace, TraceConfig};
use faas_cluster::dispatch::{KeepAliveDispatch, LeastOutstanding};
use faas_cluster::{
    workload_from_trace, ChaosConfig, ClusterConfig, ClusterTask, ColdStartConfig, Dispatch,
    EjectionConfig, FaultPlan, FaultPlanConfig, FrontEnd, HealthConfig, HedgeConfig,
};
use faas_kernel::MachineConfig;
use faas_simcore::SimDuration;

/// Counts every `alloc`/`realloc` hitting the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const MACHINES: usize = 8;
const CHUNK: usize = 2_048;
const WARMUP_CHUNKS: usize = 4;
const MEASURED_CHUNKS: usize = 4;

/// The bench suite's cluster01 shape, test-scaled: W2 trace at
/// fleet-proportional RPS, Firecracker cold starts.
fn workload() -> Vec<ClusterTask> {
    let trace = TraceConfig::w2().rps_scaled(MACHINES).downscaled(4);
    workload_from_trace(&AzureTrace::generate(&trace), 1)
}

fn bare_fleet() -> ClusterConfig {
    ClusterConfig::new(MACHINES, MachineConfig::new(4))
        .with_cold_start(ColdStartConfig::firecracker())
}

fn health_fleet() -> ClusterConfig {
    let plan = FaultPlanConfig::new(0xA110_C8ED, 4)
        .with_crashes(1.0, SimDuration::from_secs(10))
        .with_stragglers(1.0, SimDuration::from_secs(20), 4.0);
    bare_fleet()
        .with_chaos(ChaosConfig::new(FaultPlan::generate(&plan, MACHINES)).with_max_retries(3))
        .with_health(
            HealthConfig::default()
                .with_ejection(
                    EjectionConfig::default()
                        .with_threshold(2.0)
                        .with_probation(SimDuration::from_secs(5))
                        .with_min_samples(8),
                )
                .with_hedge(HedgeConfig::default().with_min_samples(64)),
        )
}

/// Folds `tasks` through a front end in `CHUNK`-sized chunks; returns the
/// allocation count of each post-warmup chunk.
fn measure<D: Dispatch>(cfg: &ClusterConfig, tasks: &[ClusterTask], policy: &mut D) -> Vec<u64> {
    let mut fe = FrontEnd::new(cfg);
    let mut counts = Vec::new();
    for (i, chunk) in tasks
        .chunks(CHUNK)
        .take(WARMUP_CHUNKS + MEASURED_CHUNKS)
        .enumerate()
    {
        let before = allocs();
        let out = fe.dispatch_chunk(chunk, policy);
        let after = allocs();
        // Keep the output alive through the measurement so its drop
        // cost can't overlap the next chunk's count.
        drop(out);
        if i >= WARMUP_CHUNKS {
            counts.push(after - before);
        }
    }
    assert_eq!(counts.len(), MEASURED_CHUNKS, "trace too short for test");
    counts
}

#[test]
fn front_end_fold_is_allocation_free_after_warmup() {
    let tasks = workload();
    assert!(
        tasks.len() >= CHUNK * (WARMUP_CHUNKS + MEASURED_CHUNKS),
        "trace holds {} tasks, need {}",
        tasks.len(),
        CHUNK * (WARMUP_CHUNKS + MEASURED_CHUNKS)
    );

    // The output Assignment accounts for one outer Vec plus ≤ log₂(CHUNK)
    // growth doublings per machine vector; everything else must be
    // retained capacity (observed: ~80–95 per chunk, ~0.04 per
    // invocation). The cap sits ~16× below one alloc per invocation.
    let cap = (1 + MACHINES * CHUNK.ilog2() as usize + 40) as u64;

    for (label, counts) in [
        (
            "bare keep-alive",
            measure(&bare_fleet(), &tasks, &mut KeepAliveDispatch),
        ),
        (
            "bare least-outstanding",
            measure(&bare_fleet(), &tasks, &mut LeastOutstanding),
        ),
        (
            "chaos+health stack",
            measure(&health_fleet(), &tasks, &mut LeastOutstanding),
        ),
    ] {
        for (i, &n) in counts.iter().enumerate() {
            assert!(
                n <= cap,
                "{label}: post-warmup chunk {i} allocated {n} times \
                 (cap {cap}, chunk of {CHUNK} invocations)"
            );
        }
        println!("{label}: per-chunk allocs after warmup: {counts:?} (cap {cap})");
    }
}
