//! Pins of the paper's Table I kernel runs.
//!
//! FIFO, CFS and the hybrid's 25+25 split run W2 on the paper's 50-core
//! machine with host interference on, the shape the `enclave-w2`
//! benchmark workload runs. Each run's `SlimReport` is pinned twice:
//!
//! - a digest of its task records and core stats, which no change to how
//!   the kernel counts its own work may move;
//! - its kernel counts: events processed, idle-core offers and declined
//!   offers. A change that removes events without touching the schedule
//!   (a timer nothing acts on, say) moves only these.
//!
//! The full-scale pin runs the whole trace. The CFS run alone processes
//! 3.4 M kernel events, so that test is ignored in the debug suite; run it
//! with `cargo test --release -p faas-bench --test table1_kernel --
//! --ignored`. The prefix pin runs the trace's first seconds, long enough
//! to saturate the machine, so the three policies order the same work
//! differently, and it stays in the debug suite: the `table1` scenario's
//! digest at `SCALE_DIV=40` cannot see the kernel's ordering, because at
//! that scale it prints one row for all three policies.

use azure_trace::{AzureTrace, TraceConfig};
use faas_bench::paper_machine;
use faas_kernel::{Scheduler, Simulation, SlimReport, TaskSpec};
use faas_policies::{Cfs, Fifo};
use faas_simcore::{SimDuration, SimTime};
use hybrid_scheduler::{HybridConfig, HybridScheduler};

/// FNV-1a 64-bit over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stands for an absent field.
const NONE: u64 = u64::MAX;

/// Every task record and the core stats, as one digest.
fn digest(r: &SlimReport) -> u64 {
    let mut words = Vec::new();
    for t in &r.tasks {
        words.extend([
            t.state() as u64,
            t.first_run().map_or(NONE, SimTime::as_micros),
            t.completion().map_or(NONE, SimTime::as_micros),
            t.cpu_time().as_micros(),
            u64::from(t.preemptions()),
        ]);
    }
    for s in &r.core_stats {
        words.extend([s.preemptions, s.ctx_switches, s.busy.as_micros()]);
    }
    fnv1a(&words)
}

/// What a run is pinned to: its records-and-core-stats digest, then its
/// kernel events, idle-core offers and declined offers.
type Pin = (u64, [u64; 3]);

fn pin(r: &SlimReport) -> Pin {
    (digest(r), [r.events_processed, r.offers, r.declined_offers])
}

fn run(specs: &[TaskSpec], policy: impl Scheduler) -> SlimReport {
    Simulation::new(paper_machine(), specs, policy)
        .run_slim()
        .expect("simulation completes")
}

/// FIFO, CFS and the 25+25 hybrid over `specs`, in that order.
fn table1_runs(specs: &[TaskSpec]) -> [SlimReport; 3] {
    [
        run(specs, Fifo::new()),
        run(specs, Cfs::with_cores(50)),
        run(specs, HybridScheduler::new(HybridConfig::paper_25_25())),
    ]
}

#[test]
#[ignore = "3.4 M kernel events: run in release with --ignored"]
fn table1_full_scale_reports_pinned() {
    let specs = AzureTrace::generate(&TraceConfig::w2()).to_task_specs();
    let got = table1_runs(&specs).each_ref().map(pin);
    assert_eq!(
        got,
        [
            (0x401f_6966_02a4_b026, [26_011, 12_805, 0]),
            (0x046e_b648_b897_f7ea, [3_442_959, 63_451, 29_416]),
            (0x9e6c_5920_35a5_bba0, [225_366, 210_065, 0]),
        ],
        "(digest, [events, offers, declined]) of FIFO, CFS and the hybrid changed"
    );
}

/// W2's arrivals in its first `PREFIX_SECS` seconds: 2,310 invocations
/// that overload the 50 cores from the start, so a backlog builds (FIFO's
/// last starts wait about 17 s) and the three policies order it
/// differently. The three runs take under two seconds in a debug build.
const PREFIX_SECS: u64 = 20;

#[test]
fn table1_saturating_prefix_reports_pinned() {
    let end = SimTime::from_secs(PREFIX_SECS);
    let specs: Vec<TaskSpec> = AzureTrace::generate(&TraceConfig::w2())
        .to_task_specs()
        .into_iter()
        .filter(|s| s.arrival < end)
        .collect();
    let runs = table1_runs(&specs);
    let fifo_wait = runs[0]
        .tasks
        .iter()
        .filter_map(|t| t.response_time())
        .max()
        .expect("the prefix holds tasks");
    assert!(
        fifo_wait > SimDuration::from_secs(10),
        "FIFO's longest wait is only {fifo_wait:?}: the prefix does not saturate"
    );
    let digests = runs.each_ref().map(digest);
    assert!(
        digests[0] != digests[1] && digests[1] != digests[2] && digests[0] != digests[2],
        "two of the three policies produced the same records"
    );
    let got = runs.each_ref().map(pin);
    assert_eq!(
        got,
        [
            (0xc474_6c5e_5443_6678, [4_891, 2_385, 0]),
            (0x79ad_0055_198b_c0db, [424_131, 19_929, 11_156]),
            (0x719c_75e6_e0f2_1561, [42_800, 39_067, 0]),
        ],
        "(digest, [events, offers, declined]) of FIFO, CFS and the hybrid changed"
    );
}
