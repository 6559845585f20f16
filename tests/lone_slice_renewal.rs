//! Bitwise pin for the lone-slice renewal in the CFS run queues.
//!
//! When a CFS slice expires and its task is the machine's only waiting
//! task, `CfsRunQueues` dispatches the core again on the spot instead of
//! leaving that to `MachineRun`'s idle-core offers. That shortcut is exact
//! only because every other idle core would have declined the task. This
//! suite runs a lightly loaded 50-core machine, where the long functions
//! run alone on their CFS cores and nearly every expiry takes the
//! shortcut, under the paper's 25+25 hybrid and under plain CFS. Host
//! interference, off-CPU waits and deadlines are on, so the expiries
//! interleave with interference preemptions, I/O returns and cancels.
//!
//! Each run is pinned to an FNV digest of every task record, the core
//! stats, the kernel event count and the whole kernel message log. The
//! digests were captured from the tree before the renewal existed, when
//! every expiry went through `MachineRun`'s offers.

use serverless_hybrid_sched::kernel::{
    CoreId, KernelMessage, MachineRun, SimError, SlimReport, TaskId,
};
use serverless_hybrid_sched::prelude::*;

const CORES: usize = 50;

/// FNV-1a 64-bit over the little-endian bytes of `words`.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// W2 at an eighth of its rate: 1,555 invocations offering 1,347 core-s
/// of work over two minutes, 22% of the machine. Every seventh waits
/// off-CPU after its work and every eleventh carries a deadline, some of
/// which cut the run short.
fn specs() -> Vec<TaskSpec> {
    let trace = AzureTrace::generate(&TraceConfig::w2().downscaled(8));
    trace
        .to_task_specs()
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if i % 7 == 3 {
                spec = spec.with_io_wait(SimDuration::from_millis(1 + (i as u64 % 40)));
            }
            if i % 11 == 5 {
                let slack = spec.work.mul_f64(0.5 + (i % 3) as f64 * 0.5);
                let deadline = spec.arrival + slack + SimDuration::from_millis(5);
                spec = spec.with_deadline(deadline);
            }
            spec
        })
        .collect()
}

fn machine() -> MachineConfig {
    MachineConfig::new(CORES)
        .with_interference(InterferenceConfig {
            mean_interval: SimDuration::from_secs(2),
            duration: SimDuration::from_millis(5),
        })
        .with_seed(0x5eed)
        .with_message_log()
}

fn run(policy: impl Scheduler) -> Result<SlimReport, SimError> {
    MachineRun::new(machine(), specs(), policy).run_slim()
}

/// Stands for an absent field.
const NONE: u64 = u64::MAX;

/// A kernel message as `[kind, task, core, detail]`.
fn message_words(msg: KernelMessage) -> [u64; 4] {
    use KernelMessage::*;
    let t = |t: TaskId| t.index() as u64;
    let c = |c: CoreId| c.index() as u64;
    match msg {
        TaskNew { task } => [0, t(task), NONE, NONE],
        Dispatch { task, core, slice } => [
            1,
            t(task),
            c(core),
            slice.map_or(NONE, SimDuration::as_micros),
        ],
        TaskPreempt {
            task,
            core,
            by_interference,
        } => [2, t(task), c(core), u64::from(by_interference)],
        SliceExpired { task, core } => [3, t(task), c(core), NONE],
        TaskDead { task, core } => [4, t(task), c(core), NONE],
        InterferenceStart { core } => [5, NONE, c(core), NONE],
        InterferenceEnd { core } => [6, NONE, c(core), NONE],
    }
}

/// Every task record, the core stats, the event count and the message
/// log, as one digest.
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
    words.push(r.events_processed);
    for &(at, msg) in &r.messages {
        words.push(at.as_micros());
        words.extend(message_words(msg));
    }
    fnv1a(&words)
}

/// Slice expiries whose very next message re-dispatches the same task on
/// the same core at the same instant: the pattern the renewal produces.
fn same_core_renewals(r: &SlimReport) -> usize {
    r.messages
        .windows(2)
        .filter(|w| match (w[0].1, w[1].1) {
            (
                KernelMessage::SliceExpired { task, core },
                KernelMessage::Dispatch {
                    task: t, core: c, ..
                },
            ) => w[0].0 == w[1].0 && (task, core) == (t, c),
            _ => false,
        })
        .count()
}

/// Checks one run against its digest, after making sure it exercised
/// what the pin is for: renewals, interference preemptions, deadline
/// cancels and off-CPU waits.
fn assert_pinned(name: &str, r: &SlimReport, expected: u64) {
    let renewals = same_core_renewals(r);
    assert!(renewals > 1_000, "{name}: only {renewals} renewals");
    let interference_preempts = r
        .messages
        .iter()
        .filter(|(_, m)| {
            matches!(
                m,
                KernelMessage::TaskPreempt {
                    by_interference: true,
                    ..
                }
            )
        })
        .count();
    assert!(
        interference_preempts > 0,
        "{name}: no interference preemption"
    );
    assert!(r.cancelled > 0, "{name}: no deadline cancel");
    assert!(
        r.tasks
            .iter()
            .any(|t| !t.spec().io_wait.is_zero() && t.completion().is_some()),
        "{name}: no off-CPU wait completed"
    );
    assert_eq!(
        digest(r),
        expected,
        "{name}: output changed vs. the pre-renewal baseline"
    );
}

#[test]
fn hybrid_25_25_lone_expiries_pinned() {
    let r = run(HybridScheduler::new(HybridConfig::paper_25_25())).expect("hybrid run completes");
    assert_pinned("hybrid", &r, 0x0f22_dfc9_1e31_3fda);
}

#[test]
fn cfs_50_lone_expiries_pinned() {
    let r = run(Cfs::with_cores(CORES)).expect("cfs run completes");
    assert_pinned("cfs", &r, 0x9401_4fc4_d72d_7f48);
}
