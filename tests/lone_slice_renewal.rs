//! Bitwise pins for the in-place slice dispatches in the CFS run queues.
//!
//! When a CFS slice expires, `CfsRunQueues` may dispatch the core again on
//! the spot instead of leaving that to `MachineRun`'s idle-core offers.
//! It does so in two regimes, and this suite pins both:
//!
//! - **Lone renewal.** The expired task is the machine's only waiting
//!   task. The shortcut is exact only because every other idle core would
//!   have declined the task. A lightly loaded 50-core machine, where the
//!   long functions run alone on their CFS cores, takes it on nearly
//!   every expiry.
//! - **Saturated hand-off.** The expiring core is the machine's only idle
//!   core. The offers would have reached only that core, which would have
//!   run its own queue head, usually another task. The same work on an
//!   8-core machine keeps the CFS queues long: under plain CFS most
//!   expiries hand the core to another task, and the 4+4 hybrid's CFS
//!   side does so thousands of times.
//!
//! Each regime runs under plain CFS and under a hybrid split (the paper's
//! 25+25 on 50 cores, 4+4 on 8). Host interference, off-CPU waits and
//! deadlines are on, so the expiries interleave with interference
//! preemptions, I/O returns and cancels.
//!
//! Each run is pinned twice: to an FNV digest of every task record, the
//! core stats and the whole kernel message log, and to its kernel counts
//! (events processed, idle-core offers, declined offers and the slice
//! expiries the kernel renewed itself). A change to how the kernel counts
//! its own work, such as a timer nothing acts on, may move the counts but
//! never the digest. The records, core stats, log and event counts were
//! first pinned on the tree before the shortcut they pin existed, when
//! every such expiry went through `MachineRun`'s offers.
//!
//! The hybrid publishes its CFS cores with an empty queue, so the kernel
//! renews a lone slice there without calling the policy; plain CFS does
//! not publish, and its renewal count is pinned at zero. The digests and
//! the other counts are those of the tree before the kernel renewed any
//! slice.
//!
//! A third, tie-heavy shape keeps many cores in phase: integer-millisecond
//! arrivals and work on a cost-free 8-core machine, under plain CFS and a
//! 4+4 hybrid. Hundreds of its instants carry the slice expiries of two or
//! more cores, so it pins the event queue's (time, insertion) order where
//! equal instants are common. Its digests were captured from the tree
//! before the kernel's slice timers moved into the queue's delay lanes.

use serverless_hybrid_sched::kernel::{
    CoreId, KernelMessage, MachineRun, SimError, SlimReport, TaskId,
};
use serverless_hybrid_sched::prelude::*;
use serverless_hybrid_sched::simcore::SimRng;

/// The light-load machine: the paper's 50-core enclave.
const CORES: usize = 50;
/// The saturated machine: the same work on 8 cores keeps every CFS queue
/// long.
const SATURATED_CORES: usize = 8;

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

fn machine(cores: usize) -> MachineConfig {
    MachineConfig::new(cores)
        .with_interference(InterferenceConfig {
            mean_interval: SimDuration::from_secs(2),
            duration: SimDuration::from_millis(5),
        })
        .with_seed(0x5eed)
        .with_message_log()
}

/// A finished run's report, with the slice expiries the kernel renewed
/// without a policy call.
struct Run {
    report: SlimReport,
    renewals: u64,
}

impl std::ops::Deref for Run {
    type Target = SlimReport;

    fn deref(&self) -> &SlimReport {
        &self.report
    }
}

fn run_on(
    cfg: MachineConfig,
    specs: Vec<TaskSpec>,
    policy: impl Scheduler,
) -> Result<Run, SimError> {
    let mut run = MachineRun::new(cfg, specs, policy);
    run.run_to_end()?;
    let renewals = run.renewals();
    Ok(Run {
        report: run.run_slim()?,
        renewals,
    })
}

fn run(cores: usize, policy: impl Scheduler) -> Result<Run, SimError> {
    run_on(machine(cores), specs(), policy)
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

/// Every task record, the core stats and the message log, as one digest.
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
    for &(at, msg) in &r.messages {
        words.push(at.as_micros());
        words.extend(message_words(msg));
    }
    fnv1a(&words)
}

/// What a run is pinned to: its digest, then its kernel events, idle-core
/// offers, declined offers and the slice expiries the kernel renewed
/// without a policy call.
type Pin = (u64, [u64; 4]);

fn pin(r: &Run) -> Pin {
    (
        digest(r),
        [r.events_processed, r.offers, r.declined_offers, r.renewals],
    )
}

/// Slice expiries whose very next message dispatches on the same core at
/// the same instant, as `(renewals, hand-offs)`: a renewal runs the
/// expired task again, a hand-off runs a different task.
fn same_core_dispatches(r: &SlimReport) -> (usize, usize) {
    let (mut renewals, mut handoffs) = (0, 0);
    for w in r.messages.windows(2) {
        if let (
            (at, KernelMessage::SliceExpired { task, core }),
            (
                next_at,
                KernelMessage::Dispatch {
                    task: t, core: c, ..
                },
            ),
        ) = (w[0], w[1])
        {
            if at == next_at && core == c {
                if task == t {
                    renewals += 1;
                } else {
                    handoffs += 1;
                }
            }
        }
    }
    (renewals, handoffs)
}

/// Checks one run against its pin, after making sure it exercised what
/// the pin is for: renewals, interference preemptions, deadline cancels
/// and off-CPU waits.
fn assert_pinned(name: &str, r: &Run, expected: Pin) {
    let (renewals, _) = same_core_dispatches(r);
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
        pin(r),
        expected,
        "{name}: (digest, [events, offers, declined, renewals]) changed vs. the pinned baseline"
    );
}

#[test]
fn hybrid_25_25_lone_expiries_pinned() {
    let r = run(CORES, HybridScheduler::new(HybridConfig::paper_25_25()))
        .expect("hybrid run completes");
    assert_pinned(
        "hybrid",
        &r,
        (0xc1c6_d452_3506_4cca, [31_623, 2_563, 0, 20_927]),
    );
}

#[test]
fn cfs_50_lone_expiries_pinned() {
    let r = run(CORES, Cfs::with_cores(CORES)).expect("cfs run completes");
    assert_pinned(
        "cfs",
        &r,
        (0xb9b5_2461_2b5f_256d, [64_846, 97_395, 93_818, 0]),
    );
}

/// Checks a saturated run's pin after making sure more than
/// `min_handoffs` of its expiries handed the core to another queued task.
fn assert_saturated_pinned(name: &str, r: &Run, min_handoffs: usize, expected: Pin) {
    let (_, handoffs) = same_core_dispatches(r);
    assert!(handoffs > min_handoffs, "{name}: only {handoffs} hand-offs");
    assert_pinned(name, r, expected);
}

#[test]
fn cfs_8_saturated_handoffs_pinned() {
    let r = run(SATURATED_CORES, Cfs::with_cores(SATURATED_CORES)).expect("cfs run completes");
    assert_saturated_pinned(
        "cfs-8",
        &r,
        100_000,
        (0xa316_39d5_2b26_48e9, [373_975, 5_312, 855, 0]),
    );
}

#[test]
fn hybrid_4_4_saturated_handoffs_pinned() {
    let r = run(
        SATURATED_CORES,
        HybridScheduler::new(HybridConfig::split(4, 4)),
    )
    .expect("hybrid run completes");
    assert_saturated_pinned(
        "hybrid-4-4",
        &r,
        1_000,
        (0x535e_7242_d79e_4fb0, [28_408, 19_428, 0, 4_840]),
    );
}

/// What the offer mask buys on the two saturated shapes, whose exact
/// offer counts the pins above hold: `Cfs` keeps the full offer mask, so
/// some of its offers find nothing to run. The hybrid's mask leaves out
/// its FIFO cores while the FIFO queue is empty and its CFS cores with
/// nothing to run or steal, so none of its offers is declined.
#[test]
fn saturated_offer_counts_pinned() {
    let cfs = run(SATURATED_CORES, Cfs::with_cores(SATURATED_CORES)).expect("cfs run completes");
    assert!(cfs.declined_offers > 0, "cfs-8 declined no offer");
    let hybrid = run(
        SATURATED_CORES,
        HybridScheduler::new(HybridConfig::split(4, 4)),
    )
    .expect("hybrid run completes");
    assert!(hybrid.offers > 0, "hybrid-4-4 made no offer");
    assert_eq!(hybrid.declined_offers, 0, "hybrid-4-4 declined offers");
}

/// The tie-heavy machine: 8 cores, no switch cost or restore penalty.
fn tie_machine() -> MachineConfig {
    MachineConfig::new(SATURATED_CORES)
        .with_cost(CostModel::free())
        .with_interference(InterferenceConfig::default())
        .with_seed(0x5eed)
        .with_message_log()
}

/// 200 invocations over about a minute, with integer-millisecond
/// arrivals and work: every fourth runs 2–8 s, the rest 1–1,600 ms, 6.2
/// cores of load on 8. With the switch free, every dispatch, slice and
/// completion lands on a millisecond grid shared by all cores, so cores
/// rotating their queues stay in phase and their slice expiries coincide.
/// Host interference knocks single cores off the grid now and then.
fn tie_specs() -> Vec<TaskSpec> {
    let mut rng = SimRng::seed_from(0x71e5);
    let mut at = 0;
    (0..200)
        .map(|i| {
            at += rng.uniform_u64(600);
            let work = if i % 4 == 0 {
                2_000 + rng.uniform_u64(6_000)
            } else {
                1 + rng.uniform_u64(1_600)
            };
            TaskSpec::function(
                SimTime::from_millis(at),
                SimDuration::from_millis(work),
                128,
            )
        })
        .collect()
}

/// Instants at which the slices of two or more cores expire together.
fn coincident_expiry_instants(r: &SlimReport) -> usize {
    let expiries: Vec<(SimTime, CoreId)> = r
        .messages
        .iter()
        .filter_map(|&(at, m)| match m {
            KernelMessage::SliceExpired { core, .. } => Some((at, core)),
            _ => None,
        })
        .collect();
    expiries
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|batch| batch.iter().any(|&(_, core)| core != batch[0].1))
        .count()
}

/// Checks a tie-heavy run's pin after making sure more than
/// `min_instants` instants carry the slice expiries of two or more cores.
fn assert_ties_pinned(name: &str, r: &Run, min_instants: usize, expected: Pin) {
    let instants = coincident_expiry_instants(r);
    assert!(
        instants > min_instants,
        "{name}: only {instants} instants with coincident expiries"
    );
    assert_eq!(
        pin(r),
        expected,
        "{name}: (digest, [events, offers, declined, renewals]) changed vs. the pinned baseline"
    );
}

/// Plain CFS on the tie-heavy shape: the event queue must keep its
/// (time, insertion) order across every batch of coincident expiries.
#[test]
fn cfs_8_coincident_expiries_pinned() {
    let r = run_on(tie_machine(), tie_specs(), Cfs::with_cores(SATURATED_CORES))
        .expect("cfs run completes");
    assert_ties_pinned(
        "cfs-8-ties",
        &r,
        2_000,
        (0x73b2_d5a4_98cb_0be2, [20_347, 18_346, 11_603, 0]),
    );
}

/// The 4+4 hybrid on the tie-heavy shape: coincident CFS-side expiries
/// interleave with the hybrid's ticks and FIFO-side completions.
#[test]
fn hybrid_4_4_coincident_expiries_pinned() {
    let r = run_on(
        tie_machine(),
        tie_specs(),
        HybridScheduler::new(HybridConfig::split(4, 4)),
    )
    .expect("hybrid run completes");
    assert_ties_pinned(
        "hybrid-4-4-ties",
        &r,
        500,
        (0xc970_f10a_e28d_7d26, [9_825, 5_604, 0, 3_310]),
    );
}
