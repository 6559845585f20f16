//! Full-scale pin of the paper's Table I kernel runs.
//!
//! FIFO, CFS and the hybrid's 25+25 split each run the whole W2 trace on
//! the paper's 50-core machine with host interference on, the shape the
//! `enclave-w2` benchmark workload runs. Each run's `SlimReport` is pinned
//! to a digest of its task records, core stats, kernel event count and
//! idle-core offer counts. The digests were captured from the tree before
//! the kernel's slice timers and ticks moved from the event queue's heap
//! into FIFO delay lanes.
//!
//! The CFS run alone processes 3.4 M kernel events. The three runs take
//! under a second in a release build on a 2-vCPU host and far longer in
//! a debug one, so the test is ignored by default. Run it with
//! `cargo test --release -p faas-bench --test table1_kernel -- --ignored`.

use azure_trace::{AzureTrace, TraceConfig};
use faas_bench::paper_machine;
use faas_kernel::{Scheduler, Simulation, SlimReport, TaskSpec};
use faas_policies::{Cfs, Fifo};
use faas_simcore::SimTime;
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

/// Every task record, the core stats, the event count and the offer
/// counts, as one digest.
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
    words.extend([r.events_processed, r.offers, r.declined_offers]);
    fnv1a(&words)
}

fn run(specs: &[TaskSpec], policy: impl Scheduler) -> SlimReport {
    Simulation::new(paper_machine(), specs, policy)
        .run_slim()
        .expect("simulation completes")
}

#[test]
#[ignore = "3.4 M kernel events: run in release with --ignored"]
fn table1_full_scale_reports_pinned() {
    let specs = AzureTrace::generate(&TraceConfig::w2()).to_task_specs();
    let reports = [
        run(&specs, Fifo::new()),
        run(&specs, Cfs::with_cores(50)),
        run(&specs, HybridScheduler::new(HybridConfig::paper_25_25())),
    ];
    let got: Vec<(u64, u64)> = reports
        .iter()
        .map(|r| (r.events_processed, digest(r)))
        .collect();
    assert_eq!(
        got,
        [
            (26_011, 0x36ea_756f_be2c_80f9),
            (3_442_959, 0xa0b7_e5c0_01ee_e75e),
            (228_185, 0x7b1c_4f85_4709_26e5),
        ],
        "(events, digest) of FIFO, CFS and the hybrid changed vs. the all-heap baseline"
    );
}
