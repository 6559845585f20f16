//! Live heap bytes of a streamed fleet follow the machines that get work.
//!
//! `Cluster::run_streaming` promises memory proportional to the tasks in
//! flight plus the machines that were fed (the contract of
//! `faas_cluster::stream`), whatever the stream's length, however its
//! work is spaced and however many machines the fleet has. Three ways of
//! breaking it are checked here with a counting global allocator
//! (integration tests are their own crate, so the workspace's
//! `forbid(unsafe_code)` library crates are untouched), sampling the heap
//! each time the run pulls its next chunk:
//!
//! - **Spread work.** Round-robin dispatch over hybrid nodes keeps every
//!   machine fed and mostly idle for twenty simulated minutes. Anything a
//!   machine keeps per simulated second, such as utilization buckets
//!   nobody reads any more, grows the heap with the stream's length.
//! - **An idle gap.** A machine fed for two minutes, idle for fifteen
//!   and then fed again may not grow with the gap, not even for a moment
//!   while it catches up on the host interference of the gap: the heap's
//!   high-water mark between chunk pulls is bounded too.
//! - **Never-fed machines.** One machine's stream goes to machine 0, and
//!   adding 64 machines that never get an invocation may add only a small
//!   fixed number of bytes each: a front end's per-machine entries, not a
//!   machine.
//!
//! All three run in one test, so no other test allocates while the
//! counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, Ordering};

use azure_trace::TraceConfig;
use faas_cluster::dispatch::RoundRobinDispatch;
use faas_cluster::{
    Cluster, ClusterChunk, ClusterConfig, ClusterTaskStream, ColdStartConfig, Dispatch,
    DispatchCtx, StreamOptions,
};
use faas_kernel::{InterferenceConfig, MachineConfig};
use hybrid_scheduler::{HybridConfig, HybridScheduler};
use lambda_pricing::PriceModel;

/// Tracks the bytes currently allocated through the system allocator,
/// and the most allocated at once since the last [`sample`].
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// One heap sample: the live bytes now and the most live at once since
/// the previous sample.
#[derive(Clone, Copy)]
struct Sample {
    live: i64,
    peak: i64,
}

fn sample() -> Sample {
    let live = LIVE.load(Ordering::Relaxed);
    Sample {
        live,
        peak: PEAK.swap(live, Ordering::Relaxed).max(live),
    }
}

/// Machines of the spread fleet.
const SPREAD_MACHINES: usize = 16;
/// Chunks (simulated minutes) after which the spread fleet counts as warm.
const WARMUP_CHUNKS: usize = 4;
/// Allowed growth of the spread fleet's live heap from warm-up to the
/// end, over sixteen more simulated minutes. Measured: 2,496 B, the
/// in-flight tasks and queues of the moment; 768,704 B while every
/// machine kept one utilization word per core per simulated second.
const SPREAD_BOUND: i64 = 16 * 1024;
/// Cores of the gap machine.
const GAP_CORES: usize = 16;
/// The gap machine gets work in these simulated minutes only.
const GAP_FED_MINUTES: [std::ops::Range<usize>; 2] = [0..2, 17..20];
/// Allowed growth of the gap machine's heap, its high-water mark
/// included, from the end of its first two minutes to the end of the
/// run. Measured: 3,320 B; 197,848 B on a ledger that keeps one word
/// per core per simulated second, and 160,976 B on one that folded only
/// between chunks, after catching up on the gap's interference.
const GAP_BOUND: i64 = 16 * 1024;
/// Machines added to the packed fleet that never get an invocation.
const IDLE_MACHINES: usize = 64;
/// Allowed live bytes per never-fed machine. Measured: 254 B, the front
/// end's entries for the machine; 16,362 B while every machine was built
/// with its agent and three 4 KiB sketch buffers before its first feed.
const IDLE_BOUND: i64 = 512;

/// Twenty minutes of W2's pattern at 1/640 of its rate per machine:
/// about 194 invocations per machine, fewer than a quantile sketch
/// buffers before its first flush, so the sketches stay the size they
/// had after warm-up and only state kept per simulated second can grow.
fn trace(machines: usize) -> TraceConfig {
    let w2 = TraceConfig::w2();
    TraceConfig {
        minutes: w2.minutes * 10,
        total_invocations: w2.total_invocations * 10,
        ..w2
    }
    .rps_scaled(machines)
    .downscaled(640)
}

/// Hybrid nodes of `cores` cores, split evenly, with host interference
/// on, so a fed machine's cores stay busy now and then even between
/// invocations.
fn fleet(machines: usize, cores: usize) -> ClusterConfig {
    let node = MachineConfig::new(cores)
        .with_interference(InterferenceConfig::default())
        .with_seed(0xF1EE7);
    ClusterConfig::new(machines, node).with_cold_start(ColdStartConfig::firecracker())
}

/// Sends every invocation to machine 0.
struct FirstMachine;

impl Dispatch for FirstMachine {
    fn name(&self) -> &str {
        "first-machine"
    }

    fn pick(&mut self, _ctx: &DispatchCtx<'_>) -> usize {
        0
    }
}

/// Streams `chunks` over `fleet` and returns the invocations each
/// machine completed, with the heap sampled at each chunk pull. The
/// report is dropped here, so it holds no heap while the next run is
/// sampled.
fn sampled_run(
    fleet: ClusterConfig,
    mut chunks: impl Iterator<Item = ClusterChunk>,
    dispatch: impl Dispatch,
) -> (Vec<u64>, Vec<Sample>) {
    let split = fleet.machine_config(0).cores / 2;
    let samples = RefCell::new(Vec::with_capacity(64));
    let chunks = std::iter::from_fn(|| {
        samples.borrow_mut().push(sample());
        chunks.next()
    });
    let opts = StreamOptions {
        epsilon: 0.01,
        price: Some(PriceModel::duration_only()),
    };
    let report = Cluster::new(fleet, dispatch, |_| {
        HybridScheduler::new(HybridConfig::split(split, split))
    })
    .run_streaming(chunks, &opts, 1)
    .expect("streaming run completes");
    (report.dispatched(), samples.into_inner())
}

/// The most the heap grew, high-water marks included, from sample `from`
/// on over the live bytes at `from`.
fn growth_from(samples: &[Sample], from: usize) -> i64 {
    let peak = samples[from + 1..]
        .iter()
        .map(|s| s.peak)
        .max()
        .expect("samples");
    peak - samples[from].live
}

#[test]
fn fleet_live_heap_follows_the_fed_machines() {
    // Spread work: every machine fed, the heap flat after warm-up.
    let (dispatched, samples) = sampled_run(
        fleet(SPREAD_MACHINES, 4),
        ClusterTaskStream::new(&trace(SPREAD_MACHINES), 1),
        RoundRobinDispatch::new(),
    );
    assert!(
        dispatched.iter().all(|&n| n > 150),
        "round-robin left a machine without work: {dispatched:?}"
    );
    let warm = samples[WARMUP_CHUNKS].live;
    let peak = samples[WARMUP_CHUNKS..]
        .iter()
        .map(|s| s.live)
        .max()
        .expect("chunks");
    let grown = peak - warm;
    assert!(
        grown <= SPREAD_BOUND,
        "the spread fleet's live heap grew by {grown} bytes after warm-up (bound {SPREAD_BOUND})"
    );

    // An idle gap: one machine's stream with the invocations of fifteen
    // minutes left out. Machines lag a chunk behind the pulls, so the
    // first two minutes are simulated by the pull of the fourth chunk.
    let fed = |minute: usize| GAP_FED_MINUTES.iter().any(|r| r.contains(&minute));
    let chunks = ClusterTaskStream::new(&trace(1), 1)
        .enumerate()
        .map(|(minute, chunk)| ClusterChunk {
            tasks: if fed(minute) { chunk.tasks } else { Vec::new() },
            ..chunk
        });
    let (dispatched, samples) = sampled_run(fleet(1, GAP_CORES), chunks, FirstMachine);
    assert!(dispatched[0] > 20, "the gap machine got {dispatched:?}");
    let grown = growth_from(&samples, 3);
    assert!(
        grown <= GAP_BOUND,
        "the gap machine's heap grew by {grown} bytes over its idle gap (bound {GAP_BOUND})"
    );

    // Never-fed machines: one machine's stream sent to machine 0 of a
    // one-machine fleet and of one 64 machines larger.
    let cfg = trace(1);
    let (small, small_samples) =
        sampled_run(fleet(1, 4), ClusterTaskStream::new(&cfg, 1), FirstMachine);
    let (large, large_samples) = sampled_run(
        fleet(1 + IDLE_MACHINES, 4),
        ClusterTaskStream::new(&cfg, 1),
        FirstMachine,
    );
    assert_eq!(large[..1], small[..]);
    let per_machine = small_samples
        .iter()
        .zip(&large_samples)
        .map(|(s, l)| (l.live - s.live) / IDLE_MACHINES as i64)
        .max()
        .expect("chunks");
    assert!(
        per_machine <= IDLE_BOUND,
        "a never-fed machine holds {per_machine} live bytes (bound {IDLE_BOUND})"
    );
}
