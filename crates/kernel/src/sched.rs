//! The user-space scheduling agent interface and the simulation driver.
//!
//! [`Scheduler`] is the simulated equivalent of a ghOSt user-space agent:
//! the kernel delivers messages (task arrival, slice expiry, …) and the
//! agent reacts by invoking the scheduling verbs on the [`Machine`].
//! [`MachineRun`] is the per-machine driver — it binds one machine to one
//! agent and owns the event loop plus the idle-core offers, counting
//! the offers it makes.
//! [`Simulation`] is its name for a single-machine run; the cluster layer
//! drives many `MachineRun`s side by side.

use std::borrow::Cow;

use faas_simcore::{SimDuration, SimTime};

use crate::core::{CoreId, CoreStats};
use crate::idle::CoreSet;
use crate::machine::{Machine, MachineConfig, PolicyCall, SimError};
use crate::message::KernelMessage;
use crate::task::{Task, TaskId, TaskSpec};

/// A user-space scheduling policy (ghOSt agent).
///
/// The driver guarantees:
///
/// * every callback runs with exclusive access to the [`Machine`];
/// * after every kernel event, while some task waits
///   ([`Machine::num_waiting`] > 0), [`Scheduler::on_core_idle`] is
///   invoked once for each idle core in the offer mask
///   ([`Machine::offer_mask_mut`]), in core-id order, so a policy only
///   needs to react locally. The driver re-reads the mask after every
///   offer. A core freed during the offers is offered in a follow-up
///   pass; no core is offered twice for one event;
/// * offers stop as soon as no task waits, even in the middle of a pass,
///   so an event's cost does not grow with the number of idle cores. A
///   policy must not rely on offers with nothing waiting (periodic work
///   belongs in [`Scheduler::on_tick`]). Every in-tree policy does
///   nothing on such an offer;
/// * a task handed over in `on_slice_expired` / `on_interference_preempt`
///   is in the `Preempted` state and is *owned by the policy* until it is
///   dispatched again — the kernel will never move it.
///
/// The offer mask holds every core until the policy narrows it, which
/// spares the offers to idle cores the policy has no work for (the
/// hybrid's FIFO group while only CFS work waits, say). Two rules keep
/// the narrowing exact:
///
/// * a policy may leave a core out of the mask only while an offer to it
///   would change nothing: the policy would dispatch nothing and leave
///   its own state untouched;
/// * a core the driver skips because the mask leaves it out counts as
///   offered for that event, so a follow-up pass never reaches it, even
///   if the mask has grown since.
///
/// Under both rules, and with nothing done on offers while nothing
/// waits, a policy's outcome is identical to that of a driver offering
/// every idle core after every event.
///
/// A policy may dispatch from inside any callback, not only from
/// [`Scheduler::on_core_idle`]. The CFS run queues use this on a slice
/// expiry: they dispatch the core the task just left at once when the
/// expired task is the only waiting task ([`Machine::num_waiting`] is 1)
/// or that core is the only idle core ([`Machine::num_idle_cores`] is
/// 1). That is exact, not a heuristic. With one task waiting, the offers
/// would find every lower-numbered idle core with nothing to run and
/// nothing to steal, then dispatch that core, and then stop. With one
/// core idle, the offers would reach only that core, which would run its
/// own queue head and leave no idle core to offer. Skipping the offers
/// leaves every event, message and kernel counter unchanged; only the
/// driver's offer count ([`MachineRun::offers`]) falls. An interference
/// preemption must not take this path, because the host still holds the
/// core.
///
/// A policy whose slice expiry on some cores could only renew the
/// expired task there may let the kernel do it. It publishes those cores
/// and the slice through [`Machine::lone_slices_mut`], and on such a
/// core an expiry that meets the in-place condition above (no other task
/// waits, or no other core is idle) ends and restarts the segment in the
/// kernel, with no `on_slice_expired` call: the event, the messages, the
/// counters and the new timer are those of the policy's own renewal. A
/// third rule keeps that exact:
///
/// * a policy may publish a core only while its queue for that core is
///   empty and a slice expiry there would dispatch the same task on that
///   core with the published slice. It keeps the set current from every
///   callback that changes its queues, and catches up on the renewals it
///   was not called for ([`Machine::renewed_cpu`]) before its state
///   depends on them. The CFS run queues fold them into the core's
///   `min_vruntime` before the next dispatch or placement there.
pub trait Scheduler {
    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &str;

    /// If `Some`, the kernel delivers [`Scheduler::on_tick`] periodically.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// How far back the policy reads the machine's utilization ledger
    /// ([`Machine::utilization`]): the longest trailing window it passes
    /// to [`UtilizationLedger::windowed_utilization`]. A streaming run
    /// folds the busy time behind it into per-core totals
    /// ([`MachineRun::bound_utilization`]), after which reading a folded
    /// bucket panics. Default: zero, for a policy that reads no
    /// utilization.
    ///
    /// [`UtilizationLedger::windowed_utilization`]: crate::UtilizationLedger::windowed_utilization
    fn utilization_window(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// A new task arrived (`MSG_TASK_NEW`).
    fn on_task_new(&mut self, m: &mut Machine, task: TaskId);

    /// A task's dispatch slice expired; the task is now `Preempted`.
    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId);

    /// A core has nothing to run and some task waits. Dispatch here if
    /// this policy has work for the core.
    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId);

    /// A task finished (`MSG_TASK_DEAD`). Default: no-op.
    fn on_task_finished(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        let _ = (m, task, core);
    }

    /// The host OS kicked a task off a core, which the host now holds.
    /// Default: treat it like a slice expiry (re-queue per policy rules).
    /// A policy whose `on_slice_expired` may dispatch on the expiring
    /// core must override this, since that core is not idle here.
    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        self.on_slice_expired(m, task, core);
    }

    /// Periodic tick (armed via [`Scheduler::tick_interval`]). Default: no-op.
    fn on_tick(&mut self, m: &mut Machine) {
        let _ = m;
    }
}

/// Outcome of a machine run to completion ([`MachineRun::run_slim`]):
/// the task records, core stats, kernel counters and the message log when
/// enabled, **without** the [`Machine`] itself — the event-queue arena,
/// arrival calendar and utilization ledger are dropped at the end of the
/// run. Big fans (one report per case or per cluster machine held
/// concurrently) thereby keep peak memory proportional to the task count
/// alone. A caller that needs the machine's final state (the utilization
/// ledger of a timeline, say) drives the run with [`MachineRun::step`] or
/// [`MachineRun::run_to_end`] and reads [`MachineRun::machine`].
#[derive(Debug)]
pub struct SlimReport {
    /// Policy name the run used.
    pub policy: String,
    /// Final task records (same order as the input specs).
    pub tasks: Vec<Task>,
    /// Per-core statistics.
    pub core_stats: Vec<CoreStats>,
    /// Virtual instant the last task finished.
    pub finished_at: SimTime,
    /// Kernel events processed (stale generations included) — the
    /// throughput denominator the bench harness uses, carried here
    /// because the machine that counted them is gone.
    pub events_processed: u64,
    /// The kernel→agent message stream — empty unless
    /// [`MachineConfig::log_messages`] was set. Carried here (it is one
    /// empty `Vec` in the common case) so differential tests can compare
    /// whole kernel streams without holding machines alive.
    pub messages: Vec<(SimTime, KernelMessage)>,
    /// Peak in-flight backlog (see [`Machine::max_in_flight`]) — the
    /// quantity overload middleware bounds.
    pub max_in_flight: u64,
    /// Tasks cancelled past their deadline (see [`Machine::num_cancelled`]).
    pub cancelled: u64,
    /// Idle-core offers the driver made (see [`MachineRun::offers`]).
    pub offers: u64,
    /// Offers after which the offered core was still idle (see
    /// [`MachineRun::declined_offers`]).
    pub declined_offers: u64,
}

impl SlimReport {
    /// Total preemptions across all cores.
    pub fn total_preemptions(&self) -> u64 {
        self.core_stats.iter().map(|s| s.preemptions).sum()
    }
}

/// The reusable per-machine driver: one [`Machine`] bound to one
/// [`Scheduler`], plus the idle-core offer state of the event loop.
///
/// This is the unit the cluster layer replicates — M machines of a fleet
/// are M independent `MachineRun`s (after front-end dispatch has split
/// the arrival stream), each advanced to completion with [`step`].
/// [`Simulation`] is the same type, named for a single-machine run.
///
/// After each event, while a task waits, [`step`] offers the cores that
/// are both idle and in the policy's offer mask
/// ([`Machine::offer_mask_mut`]). It scans the two sets 64 cores at a
/// time, so idle cores outside the mask cost nothing, and it counts the
/// offers it makes and those the policy declines ([`offers`],
/// [`declined_offers`]), beside the slice expiries the kernel renewed
/// without calling the policy ([`renewals`]). The counts repeat exactly
/// for a given input, so tests can pin them where wall-clock timings
/// would blur.
///
/// [`step`]: MachineRun::step
/// [`offers`]: MachineRun::offers
/// [`declined_offers`]: MachineRun::declined_offers
/// [`renewals`]: MachineRun::renewals
pub struct MachineRun<P> {
    machine: Machine,
    policy: P,
    /// Cores offered, or skipped as outside the mask, during the current
    /// event: each core gets at most one offer per event.
    offered: CoreSet,
    /// The idle set at the start of the current offer pass.
    pass_idle: CoreSet,
    offers: u64,
    declined_offers: u64,
}

impl<P: Scheduler> MachineRun<P> {
    /// Builds a driver over `specs` with the given policy. `specs` is an
    /// owned `Vec` (moved, no copy) or a borrowed slice (see
    /// [`Machine::new`]).
    pub fn new<'s>(cfg: MachineConfig, specs: impl Into<Cow<'s, [TaskSpec]>>, policy: P) -> Self {
        let mut machine = Machine::new(cfg, specs);
        if let Some(every) = policy.tick_interval() {
            machine.arm_tick(every);
        }
        let cores = machine.num_cores();
        MachineRun {
            machine,
            policy,
            offered: CoreSet::empty(cores),
            pass_idle: CoreSet::empty(cores),
            offers: 0,
            declined_offers: 0,
        }
    }

    /// Read access to the machine mid-run (useful in tests).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Read access to the policy mid-run.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Idle-core offers made so far: calls of [`Scheduler::on_core_idle`].
    pub fn offers(&self) -> u64 {
        self.offers
    }

    /// Offers so far after which the offered core was still idle: the
    /// policy had nothing to run there.
    pub fn declined_offers(&self) -> u64 {
        self.declined_offers
    }

    /// Slice expiries so far that the kernel renewed on a core the policy
    /// published ([`Machine::lone_slices_mut`]), with no policy call. They
    /// are kernel events and preemptions like any other expiry.
    pub fn renewals(&self) -> u64 {
        self.machine.renewals()
    }

    /// Feeds more task specs mid-run (the chunked cluster feed; see
    /// [`Machine::push_specs`] for the ordering contract).
    pub fn feed_specs<'s>(&mut self, specs: impl Into<Cow<'s, [TaskSpec]>>) {
        self.machine.push_specs(specs);
    }

    /// Runs until the next pending event is at or past `bound` (exclusive)
    /// or the machine pauses with every live task finished. The strict
    /// bound matters for chunked feeds: the next chunk's first arrival can
    /// land exactly on the horizon, and at equal instants arrivals must
    /// fire before dynamic events — so nothing at `bound` may be consumed
    /// before the feed.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn run_until(&mut self, bound: SimTime) -> Result<(), SimError> {
        while let Some(call) = self.machine.advance_before(bound)? {
            self.deliver(call);
        }
        Ok(())
    }

    /// Runs until every task fed so far has finished: the final drain of a
    /// streaming run, and the loop of [`MachineRun::run_slim`].
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn run_to_end(&mut self) -> Result<(), SimError> {
        while self.step()? {}
        Ok(())
    }

    /// Retires finished tasks off the front of the id space into `sink`
    /// (see [`Machine::retire_finished`]); returns how many were retired.
    pub fn retire_finished(&mut self, sink: impl FnMut(Task)) -> usize {
        self.machine.retire_finished(sink)
    }

    /// Bounds the machine's utilization ledger to the trailing window the
    /// policy reads ([`Scheduler::utilization_window`]): from now on each
    /// core's busy time older than that folds into the core's total as it
    /// is recorded, so a machine that lives for hours keeps a few buckets
    /// per core instead of one per simulated second, however its work is
    /// spaced. Core stats and every windowed read the policy makes are
    /// unchanged; reading a folded bucket panics. A streaming driver calls
    /// it before its first feed. A run whose whole per-second series is
    /// read afterwards (a timeline figure) does not.
    pub fn bound_utilization(&mut self) {
        let window = self.policy.utilization_window();
        self.machine.bound_utilization(window);
    }

    /// Advances by one kernel event, delivering messages to the policy and
    /// offering the idle cores in the offer mask while a task waits.
    /// Returns `false` when the run is complete.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the machine.
    pub fn step(&mut self) -> Result<bool, SimError> {
        match self.machine.advance()? {
            Some(call) => {
                self.deliver(call);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Delivers one kernel notification to the policy, then offers the
    /// idle cores in the offer mask while a task waits.
    fn deliver(&mut self, call: PolicyCall) {
        let m = &mut self.machine;
        match call {
            PolicyCall::TaskNew(t) => self.policy.on_task_new(m, t),
            PolicyCall::TaskFinished(t, c) => self.policy.on_task_finished(m, t, c),
            PolicyCall::SliceExpired(t, c) => self.policy.on_slice_expired(m, t, c),
            PolicyCall::InterferencePreempt(t, c) => self.policy.on_interference_preempt(m, t, c),
            PolicyCall::Tick => self.policy.on_tick(m),
            PolicyCall::Internal => {}
        }
        // Offers only while a task waits: with nothing waiting no policy
        // has work to place (see the `Scheduler` contract), so the cost of
        // an event does not grow with the number of idle cores.
        if self.machine.num_waiting() > 0 && self.machine.num_idle_cores() > 0 {
            self.offer_idle_cores();
        }
    }

    /// Offers the idle cores in the offer mask, in core-id order, until
    /// no task waits. Each pass walks the idle set as it stood when the
    /// pass began, one 64-core word at a time, re-reading the live idle
    /// set and the mask after every offer. Idle cores the mask leaves out
    /// are skipped by the word, and count as offered (see the `Scheduler`
    /// contract); a core that stopped being idle before the scan reached
    /// it is not marked, so it is offered in a follow-up pass if the pass
    /// frees it again. A follow-up pass runs only if a core was freed
    /// during the last one, and offers each core at most once per event.
    fn offer_idle_cores(&mut self) {
        self.offered.clear();
        loop {
            let pass_transitions = self.machine.idle_transitions();
            self.pass_idle.copy_from(self.machine.idle_set());
            let mut pass_offered = false;
            for w in 0..self.pass_idle.num_words() {
                // Bits above the core this pass last offered in word `w`.
                let mut ahead = u64::MAX;
                loop {
                    let idle = self.pass_idle.word(w)
                        & self.machine.idle_set().word(w)
                        & !self.offered.word(w)
                        & ahead;
                    let due = idle & self.machine.offer_mask().word(w);
                    if due == 0 {
                        *self.offered.word_mut(w) |= idle;
                        break;
                    }
                    if self.machine.num_waiting() == 0 {
                        return;
                    }
                    let bit = due & due.wrapping_neg();
                    let upto = bit | (bit - 1);
                    *self.offered.word_mut(w) |= idle & upto;
                    ahead = !upto;
                    let core = CoreId::from_index(w * 64 + bit.trailing_zeros() as usize);
                    pass_offered = true;
                    self.offers += 1;
                    self.policy.on_core_idle(&mut self.machine, core);
                    if self.machine.idle_set().word(w) & bit != 0 {
                        self.declined_offers += 1;
                    }
                }
            }
            // Another pass only if a core was freed during this one.
            if !pass_offered || self.machine.idle_transitions() == pass_transitions {
                return;
            }
        }
    }

    /// Runs to completion and returns the [`SlimReport`]; the machine
    /// (event-queue arena, calendar, utilization ledger) is dropped here
    /// instead of riding along.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the policy strands tasks or
    /// [`SimError::Stalled`] if progress halts for the configured timeout.
    pub fn run_slim(mut self) -> Result<SlimReport, SimError> {
        self.run_to_end()?;
        let finished_at = self.machine.now();
        let core_stats = self.core_stats();
        let policy = self.policy.name().to_owned();
        let mut machine = self.machine;
        let events_processed = machine.events_processed();
        let max_in_flight = machine.max_in_flight();
        let cancelled = machine.num_cancelled();
        let messages = machine.take_messages();
        let tasks = machine.into_tasks();
        Ok(SlimReport {
            policy,
            tasks,
            core_stats,
            finished_at,
            events_processed,
            messages,
            max_in_flight,
            cancelled,
            offers: self.offers,
            declined_offers: self.declined_offers,
        })
    }

    /// Per-core statistics of the machine, in core-id order (what the
    /// report constructors collect; public so streaming runs can build
    /// their own reports without consuming the driver).
    pub fn core_stats(&self) -> Vec<CoreStats> {
        (0..self.machine.num_cores())
            .map(|i| self.machine.core_stats(CoreId::from_index(i)))
            .collect()
    }
}

/// A single-machine simulation: the [`MachineRun`] driver the cluster
/// layer replicates per machine, run on its own to completion with
/// [`MachineRun::run_slim`].
///
/// # Examples
///
/// Run three tasks under a trivial single-core FIFO agent:
///
/// ```
/// use faas_kernel::{
///     CoreId, Machine, MachineConfig, Scheduler, Simulation, TaskId, TaskSpec,
/// };
/// use faas_simcore::{SimDuration, SimTime};
/// use std::collections::VecDeque;
///
/// struct MiniFifo(VecDeque<TaskId>);
/// impl Scheduler for MiniFifo {
///     fn name(&self) -> &str { "mini-fifo" }
///     fn on_task_new(&mut self, _m: &mut Machine, t: TaskId) { self.0.push_back(t); }
///     fn on_slice_expired(&mut self, _m: &mut Machine, t: TaskId, _c: CoreId) {
///         self.0.push_back(t);
///     }
///     fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
///         if let Some(t) = self.0.pop_front() {
///             m.dispatch(core, t, None).unwrap();
///         }
///     }
/// }
///
/// let specs: Vec<TaskSpec> = (0..3)
///     .map(|i| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10 * (i + 1)), 128))
///     .collect();
/// let report = Simulation::new(MachineConfig::new(1), specs, MiniFifo(VecDeque::new()))
///     .run_slim()
///     .unwrap();
/// assert_eq!(report.tasks.len(), 3);
/// assert!(report.tasks.iter().all(|t| t.completion().is_some()));
/// ```
pub type Simulation<P> = MachineRun<P>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Global-queue FIFO over all cores; the simplest complete agent.
    struct TestFifo {
        queue: VecDeque<TaskId>,
    }

    impl Scheduler for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
            self.queue.push_back(task);
        }
        fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
            self.queue.push_back(task);
        }
        fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
            if let Some(t) = self.queue.pop_front() {
                m.dispatch(core, t, None).unwrap();
            }
        }
    }

    /// A global-queue FIFO that runs tasks only on the cores in
    /// `allowed`, and leaves every other core out of the offer mask.
    struct Pinned {
        queue: VecDeque<TaskId>,
        allowed: CoreSet,
        /// `on_core_idle` calls, and those for a core outside `allowed`.
        calls: u64,
        calls_outside: u64,
    }

    impl Scheduler for Pinned {
        fn name(&self) -> &str {
            "pinned"
        }
        fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
            self.queue.push_back(task);
            m.offer_mask_mut().copy_from(&self.allowed);
        }
        fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
            self.queue.push_back(task);
        }
        fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
            self.calls += 1;
            if !self.allowed.contains(core) {
                self.calls_outside += 1;
                return;
            }
            if let Some(t) = self.queue.pop_front() {
                m.dispatch(core, t, None).unwrap();
            }
        }
    }

    #[test]
    fn cores_outside_the_offer_mask_are_never_offered() {
        // 130 cores, so the idle set and the mask span three words. Tasks
        // may run on four cores only, on both sides of the first word
        // boundary and in the last, partly used word.
        let cores = 130;
        let mut allowed = CoreSet::empty(cores);
        for c in [3, 63, 64, 129] {
            allowed.insert(CoreId::from_index(c));
        }
        let specs: Vec<TaskSpec> = (0..40)
            .map(|i| {
                TaskSpec::function(
                    SimTime::from_millis(i % 5),
                    SimDuration::from_millis(10 + i % 7),
                    128,
                )
            })
            .collect();
        let cfg = MachineConfig::new(cores).with_cost(crate::CostModel::free());
        let policy = Pinned {
            queue: VecDeque::new(),
            allowed: allowed.clone(),
            calls: 0,
            calls_outside: 0,
        };
        let mut run = MachineRun::new(cfg, specs, policy);
        while run.step().unwrap() {}
        assert_eq!(run.policy().calls_outside, 0, "a core outside the mask");
        // Every offer went to an allowed core with a task waiting, and
        // started it there: one offer per task.
        assert_eq!(run.offers(), run.policy().calls);
        assert_eq!(run.offers(), 40);
        assert_eq!(run.declined_offers(), 0);
        let m = run.machine();
        assert_eq!(m.num_finished(), 40);
        for c in (0..cores).map(CoreId::from_index) {
            let switches = m.core_stats(c).ctx_switches;
            assert_eq!(
                switches > 0,
                allowed.contains(c),
                "core {c} ran {switches} tasks"
            );
        }
    }

    fn run_fifo(cores: usize, specs: Vec<TaskSpec>) -> SlimReport {
        let cfg = MachineConfig::new(cores).with_cost(crate::CostModel::free());
        Simulation::new(
            cfg,
            specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap()
    }

    #[test]
    fn serial_fifo_completes_in_arrival_order() {
        let specs: Vec<TaskSpec> = (0..5)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
            .collect();
        let report = run_fifo(1, specs);
        let completions: Vec<u64> = report
            .tasks
            .iter()
            .map(|t| t.completion().unwrap().as_millis())
            .collect();
        assert_eq!(completions, vec![10, 20, 30, 40, 50]);
        assert_eq!(report.finished_at, SimTime::from_millis(50));
    }

    #[test]
    fn parallel_fifo_uses_all_cores() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128))
            .collect();
        let report = run_fifo(4, specs);
        assert_eq!(report.finished_at, SimTime::from_millis(10));
    }

    #[test]
    fn staggered_arrivals_respected() {
        let specs = vec![
            TaskSpec::function(SimTime::from_millis(0), SimDuration::from_millis(30), 128),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(5), 128),
        ];
        let report = run_fifo(1, specs);
        assert_eq!(report.tasks[0].completion(), Some(SimTime::from_millis(30)));
        // Second task arrives at 100, after the first finished.
        assert_eq!(report.tasks[1].response_time(), Some(SimDuration::ZERO));
        assert_eq!(
            report.tasks[1].completion(),
            Some(SimTime::from_millis(105))
        );
    }

    #[test]
    fn report_totals() {
        let specs: Vec<TaskSpec> = (0..3)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(20), 128))
            .collect();
        let report = run_fifo(1, specs);
        assert_eq!(report.total_preemptions(), 0);
        assert_eq!(report.policy, "test-fifo");
    }

    #[test]
    fn borrowed_specs_match_owned_specs() {
        // The shared-spec path must behave exactly like handing over an
        // owned Vec (same task ids, same completions).
        let specs: Vec<TaskSpec> = (0..6)
            .map(|i| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5 + i), 128))
            .collect();
        let cfg = || MachineConfig::new(2).with_cost(crate::CostModel::free());
        let owned = Simulation::new(
            cfg(),
            specs.clone(),
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();
        let borrowed = Simulation::new(
            cfg(),
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();
        let shared: std::sync::Arc<[TaskSpec]> = specs.into();
        let arced = Simulation::new(
            cfg(),
            &shared[..],
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();
        let completions =
            |r: &SlimReport| -> Vec<_> { r.tasks.iter().map(|t| t.completion()).collect() };
        assert_eq!(completions(&owned), completions(&borrowed));
        assert_eq!(completions(&owned), completions(&arced));
    }

    #[test]
    fn chunked_feed_matches_batch_run() {
        // The kernel half of the streaming differential: feeding the same
        // specs chunk by chunk to a bounded ledger (run_until each next
        // chunk's start, retire between chunks) must replay the batch run
        // event for event —
        // same completions, same core stats, same event count — even with
        // interference timers straddling the chunk horizons.
        let specs: Vec<TaskSpec> = (0..40)
            .map(|i| {
                TaskSpec::function(
                    SimTime::from_millis(7 * i),
                    SimDuration::from_millis(5 + (i % 9)),
                    128,
                )
            })
            .collect();
        let cfg = || {
            MachineConfig::new(2)
                .with_cost(crate::CostModel::from_micros(300, 1_500))
                .with_interference(crate::InterferenceConfig {
                    mean_interval: SimDuration::from_millis(40),
                    duration: SimDuration::from_millis(3),
                })
                .with_seed(11)
        };
        let batch = MachineRun::new(
            cfg(),
            &specs,
            TestFifo {
                queue: VecDeque::new(),
            },
        )
        .run_slim()
        .unwrap();

        let mut streamed = MachineRun::new(
            cfg(),
            Vec::new(),
            TestFifo {
                queue: VecDeque::new(),
            },
        );
        streamed.bound_utilization();
        let mut drained: Vec<Task> = Vec::new();
        let chunks: Vec<&[TaskSpec]> = specs.chunks(7).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            streamed.feed_specs(*chunk);
            match chunks.get(i + 1) {
                Some(next) => streamed.run_until(next[0].arrival).unwrap(),
                None => streamed.run_to_end().unwrap(),
            }
            streamed.retire_finished(|t| drained.push(t));
        }
        streamed.retire_finished(|t| drained.push(t));

        assert_eq!(drained.len(), batch.tasks.len());
        for (a, b) in drained.iter().zip(&batch.tasks) {
            assert_eq!(a.completion(), b.completion());
            assert_eq!(a.cpu_time(), b.cpu_time());
            assert_eq!(a.preemptions(), b.preemptions());
        }
        assert_eq!(streamed.core_stats(), batch.core_stats);
        assert_eq!(
            streamed.machine().events_processed(),
            batch.events_processed
        );
        assert_eq!(streamed.machine().num_finished(), batch.tasks.len());
    }
}
