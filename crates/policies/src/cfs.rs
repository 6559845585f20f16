//! Completely Fair Scheduler — the Linux default (§III-C), simulated.
//!
//! Per-core run queues ordered by *virtual runtime*; the task with the
//! smallest vruntime runs next, for a time slice of
//! `max(sched_latency / nr_runnable, min_granularity)`. New tasks are
//! placed on the least-loaded core at that core's `min_vruntime`, so they
//! start running almost immediately (this is why CFS has near-zero response
//! time in the paper, Fig. 4/Table I). Idle cores steal from the most
//! loaded queue, approximating the kernel's load balancer.
//!
//! With equal weights, a task's vruntime advance equals its on-CPU time, so
//! we derive the effective vruntime as `offset + cpu_time`, where the
//! offset is fixed at enqueue time (placement at `min_vruntime`). A queued
//! task's offset is implicit in its run-queue key (its CPU time does not
//! move while it waits); the running task's offset is kept by its core.
//!
//! The run queues ([`CfsRunQueues`]) are shared with the hybrid
//! scheduler's long-task group, whose member cores join and leave.

use faas_kernel::{CoreId, CoreSet, CoreState, Machine, Scheduler, TaskId};
use faas_simcore::{SimDuration, SortedDeque};

/// Tunables of the simulated CFS (Linux-like defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfsParams {
    /// Scheduling period targeted when few tasks are runnable.
    pub sched_latency: SimDuration,
    /// Lower bound on any time slice.
    pub min_granularity: SimDuration,
    /// Wakeup preemption (`check_preempt_wakeup`): a newly placed task
    /// immediately preempts the running task when the running task's
    /// virtual runtime is at least `wakeup_granularity` ahead. This is
    /// what makes real CFS's response time near-zero even under load.
    pub wakeup_preemption: bool,
    /// Minimum vruntime lead before a wakeup preempts (Linux:
    /// `sysctl_sched_wakeup_granularity`, ~1 ms at unit weight).
    pub wakeup_granularity: SimDuration,
}

impl Default for CfsParams {
    fn default() -> Self {
        CfsParams {
            sched_latency: SimDuration::from_millis(24),
            min_granularity: SimDuration::from_millis(3),
            wakeup_preemption: true,
            wakeup_granularity: SimDuration::from_millis(1),
        }
    }
}

/// A run-queue key: effective vruntime (µs) with the task id tie-break.
type RqKey = (i64, TaskId);
type RunQueue = SortedDeque<RqKey>;

/// `CoreRq::running_offset` of a core that has dispatched nothing since
/// it (re)joined: so far below any vruntime that folding a kernel renewal
/// from before it left changes nothing.
const UNDISPATCHED: i64 = i64::MIN;

#[derive(Debug)]
struct CoreRq {
    /// Runnable tasks keyed by effective vruntime (µs) with id tie-break,
    /// in ascending order. The next task is the front and the steal
    /// victim the back, both O(1); a requeued task usually lands behind
    /// every queued key, an append. The (vruntime, id) keys are unique,
    /// so every min/max pick is fully determined.
    queue: RunQueue,
    /// Monotone floor for new placements; reset when the core leaves.
    min_vruntime: i64,
    /// vruntime offset of the task this core last dispatched, which runs
    /// there or has just stopped there: its effective vruntime is this
    /// plus its CPU time. [`UNDISPATCHED`] until the first dispatch.
    running_offset: i64,
}

impl Default for CoreRq {
    fn default() -> Self {
        CoreRq {
            queue: RunQueue::default(),
            min_vruntime: 0,
            running_offset: UNDISPATCHED,
        }
    }
}

/// The CFS mechanism: per-core vruntime run queues over cores
/// `0..cores`, of which any subset are *members*.
///
/// Members can join and leave at run time ([`add_core`](Self::add_core),
/// [`remove_core`](Self::remove_core)), which is how the hybrid
/// scheduler's rightsizing moves cores between its groups (§IV-B); [`Cfs`]
/// makes every core a member. The type owns placement at a core's
/// `min_vruntime`, the latency-target slice, stealing into an idle core
/// and rebalancing; callers choose the core a task lands on.
///
/// The queues are a dense vector indexed by core id, sized once. Steal
/// and balance pick victims by iterating it in core order, so tie-breaks
/// are deterministic — a `HashMap` here once made whole simulations
/// nondeterministic across runs.
///
/// Each member's queue is a [`SortedDeque`]: dispatch pops the front,
/// steal and balance take the back, and a saturated core's requeue is
/// nearly always an append, so a slice rotation costs O(1) in queue work.
///
/// A slice expiry goes through [`expire_slice`](Self::expire_slice),
/// which dispatches the expiring core in place when the idle-core offers
/// could only have led there: when the expired task is the machine's only
/// waiting task (a lightly loaded machine whose long tasks run alone on
/// their cores), or when the core is the machine's only idle core (a
/// saturated machine). Both spare `MachineRun`'s offers, with
/// byte-identical output.
///
/// The members, and the members whose queue holds a task, are kept as
/// [`CoreSet`]s, so [`offer_cores`](Self::offer_cores) names the cores an
/// idle-core offer could act on without a scan, for a policy's offer mask.
///
/// A composing policy may also let the kernel renew lone slices
/// ([`publish_lone_slices`](Self::publish_lone_slices)): on a member whose
/// queue is empty, `expire_slice`'s in-place dispatch could only run the
/// expired task again with the one-task slice, so the kernel does it
/// without a callback. Each renewal would have raised the core's
/// `min_vruntime` to the task's vruntime; the queues catch up on those
/// renewals lazily, from the kernel's record of the latest one
/// ([`Machine::renewed_cpu`]), before the next dispatch or placement on
/// that core. [`Cfs`] does not publish; its record stays zero, so its fold
/// reads the core record `Machine::dispatch` writes next and changes
/// nothing.
///
/// Nothing is kept per task beyond the queued entries themselves, so a
/// streaming run whose task ids keep rising holds memory for its cores
/// and its queued tasks only.
#[derive(Debug)]
pub struct CfsRunQueues {
    rqs: Vec<CoreRq>,
    /// Member cores. A non-member's queue is always empty.
    members: CoreSet,
    /// Members whose queue holds at least one task.
    queued: CoreSet,
    sched_latency: SimDuration,
    min_granularity: SimDuration,
    /// Smallest runnable count at which the slice formula bottoms out at
    /// `min_granularity`; at or beyond it the per-dispatch hot path skips
    /// the division (loaded queues hit this constantly).
    slice_floor_nr: u64,
    /// Queues holding at least two tasks — the only ones a steal may take
    /// from. While it is zero a steal attempt misses in O(1) instead of
    /// scanning every queue.
    crowded: usize,
    /// Whether the members or the members with a queued task changed
    /// since the last publish, so the published cores are out of date.
    lone_stale: bool,
}

impl CfsRunQueues {
    /// Empty queues for cores `0..cores`, none of them a member yet.
    ///
    /// # Panics
    ///
    /// Panics if `min_granularity` is zero.
    pub fn new(cores: usize, sched_latency: SimDuration, min_granularity: SimDuration) -> Self {
        assert!(
            !min_granularity.is_zero(),
            "min_granularity must be positive"
        );
        CfsRunQueues {
            rqs: (0..cores).map(|_| CoreRq::default()).collect(),
            members: CoreSet::empty(cores),
            queued: CoreSet::empty(cores),
            sched_latency,
            min_granularity,
            slice_floor_nr: sched_latency
                .as_micros()
                .div_ceil(min_granularity.as_micros()),
            crowded: 0,
            lone_stale: true,
        }
    }

    /// Number of cores the queues were sized for, members or not.
    pub fn num_cores(&self) -> usize {
        self.rqs.len()
    }

    /// Makes `core` a member with an empty queue (no-op if it is one).
    pub fn add_core(&mut self, core: CoreId) {
        self.members.insert(core);
        self.lone_stale = true;
    }

    /// Removes `core` from the members, returning its queued tasks in
    /// vruntime order.
    pub fn remove_core(&mut self, core: CoreId) -> Vec<TaskId> {
        let rq = std::mem::take(&mut self.rqs[core.index()]);
        self.members.remove(core);
        self.queued.remove(core);
        self.lone_stale = true;
        if rq.queue.len() >= 2 {
            self.crowded -= 1;
        }
        rq.queue
            .into_sorted_vec()
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// Whether `core` is a member.
    pub fn has_core(&self, core: CoreId) -> bool {
        self.members.contains(core)
    }

    /// The members an idle-core offer could act on: every member while
    /// some queue holds two or more tasks (an empty queue may steal from
    /// it), otherwise the members whose queue holds a task. An offer to
    /// any other member finds nothing to run and nothing to steal.
    pub fn offer_cores(&self) -> &CoreSet {
        if self.crowded > 0 {
            &self.members
        } else {
            &self.queued
        }
    }

    /// Publishes on `m` the lone slices the kernel may renew
    /// ([`Machine::lone_slices_mut`]): the members whose queue is empty,
    /// with the one-task slice. A slice expiry on such a member, with one
    /// task waiting or one core idle, is [`expire_slice`](Self::expire_slice)'s
    /// in-place dispatch of the expired task with that slice. A composing
    /// policy calls this after every callback that can change the queues.
    /// It rewrites the machine's set only when the members or their
    /// queued set changed since the last call; a change someone else makes
    /// to that set in between (emptying it, say) lasts until then.
    pub fn publish_lone_slices(&mut self, m: &mut Machine) {
        if !self.lone_stale {
            return;
        }
        self.lone_stale = false;
        let lone = m.lone_slices_mut();
        lone.slice = self.slice_for(0);
        lone.cores.copy_from(&self.members);
        lone.cores.difference_with(&self.queued);
    }

    /// Runnable tasks queued on `core` (excluding the running one).
    pub fn queue_len(&self, core: CoreId) -> usize {
        self.rqs[core.index()].queue.len()
    }

    /// The CPU time (µs) of `task`, the term its vruntime advances by.
    fn cpu_us(m: &Machine, task: TaskId) -> i64 {
        m.task(task).cpu_time().as_micros() as i64
    }

    /// The effective vruntime (µs) of the task this type last dispatched
    /// on member `core`, which runs there or has just stopped there, when
    /// its CPU time is `cpu_us`.
    fn running_vruntime(&self, core: CoreId, cpu_us: i64) -> i64 {
        self.rqs[core.index()].running_offset + cpu_us
    }

    /// Enqueues a task entering member `core` fresh, placed at the core's
    /// `min_vruntime` so it is neither starved nor unfairly boosted.
    pub fn enqueue_new(&mut self, m: &Machine, core: CoreId, task: TaskId) {
        self.place(m, core.index(), task, 0);
    }

    /// Like [`enqueue_new`](Self::enqueue_new), but placed `credit` below
    /// `min_vruntime` — the sleeper-fairness credit real CFS grants
    /// wakeups, which is what arms its wakeup-preemption check. Returns
    /// the task's effective vruntime (µs).
    pub fn enqueue_with_credit(
        &mut self,
        m: &Machine,
        core: CoreId,
        task: TaskId,
        credit: SimDuration,
    ) -> i64 {
        self.place(m, core.index(), task, credit.as_micros() as i64)
    }

    /// Re-enqueues the task that this type last dispatched on member
    /// `core` after a preemption there (wakeup or host interference;
    /// slice expiries go through [`expire_slice`](Self::expire_slice));
    /// its vruntime advanced by the CPU time it consumed.
    pub fn requeue(&mut self, m: &Machine, core: CoreId, task: TaskId) {
        let vr = self.running_vruntime(core, Self::cpu_us(m, task));
        self.push(core.index(), (vr, task));
    }

    /// A slice of `task` expired on member `core`, which is now idle:
    /// requeues the task and, when it is the machine's only waiting task
    /// or `core` is the machine's only idle core, dispatches `core` at
    /// once.
    ///
    /// The dispatch is exactly what `MachineRun`'s idle-core offers would
    /// do, and doing it here leaves every event, message, counter and
    /// `min_vruntime` unchanged:
    ///
    /// - With one task waiting, every other queue is empty, so no crowded
    ///   queue exists and no sibling can steal it; a composing policy's
    ///   other groups hold nothing either. Every lower-numbered idle core
    ///   would decline, then `core` would dispatch its queue head, and
    ///   the offers would stop with nothing left waiting.
    /// - With `core` the only idle core, the offers would reach only
    ///   `core`. Its queue holds at least the requeued task, so it would
    ///   dispatch its own head without stealing, leaving no idle core to
    ///   offer; a composing policy's other groups have none either.
    ///
    /// The expired task's CPU time is read once: when the queue head is
    /// that task again (a lone renewal), the dispatch reuses it.
    pub fn expire_slice(&mut self, m: &mut Machine, core: CoreId, task: TaskId) {
        let idx = core.index();
        let cpu_us = Self::cpu_us(m, task);
        self.push(idx, (self.running_vruntime(core, cpu_us), task));
        if m.num_waiting() == 1 || m.num_idle_cores() == 1 {
            // The queue holds at least `task`, so there is nothing to steal.
            let key = self.take(idx, RunQueue::pop_min).expect("non-empty queue");
            let cpu_us = if key.1 == task {
                cpu_us
            } else {
                Self::cpu_us(m, key.1)
            };
            self.run(m, core, key, cpu_us);
        }
    }

    /// Dispatches member `core`'s smallest-vruntime task with its slice.
    /// An empty queue first steals the longest-waiting task of the most
    /// loaded sibling queue; with nothing to run or steal the core stays
    /// idle.
    pub fn dispatch(&mut self, m: &mut Machine, core: CoreId) {
        let idx = core.index();
        if self.rqs[idx].queue.is_empty() && !self.steal_into(m, idx) {
            return;
        }
        let key = self.take(idx, RunQueue::pop_min).expect("non-empty queue");
        self.run(m, core, key, Self::cpu_us(m, key.1));
    }

    /// Runs `key`, just taken off member `core`'s queue, on `core` with
    /// the latency-target slice; `cpu_us` is the task's CPU time.
    fn run(&mut self, m: &mut Machine, core: CoreId, key: RqKey, cpu_us: i64) {
        self.fold_renewals(m, core.index());
        let rq = &mut self.rqs[core.index()];
        rq.min_vruntime = rq.min_vruntime.max(key.0);
        rq.running_offset = key.0 - cpu_us;
        let queued = rq.queue.len();
        let slice = self.slice_for(queued);
        m.dispatch(core, key.1, Some(slice))
            .expect("cfs dispatch on idle core");
    }

    /// Rebalances member queues so the longest and shortest differ by at
    /// most one (used after a core joins, §IV-B). Returns how many tasks
    /// moved.
    pub fn balance(&mut self, m: &Machine) -> usize {
        let mut moved = 0;
        loop {
            let Some((max_c, max_len)) = self.member_lens().max_by_key(|&(_, len)| len) else {
                return moved;
            };
            let (min_c, min_len) = self
                .member_lens()
                .min_by_key(|&(_, len)| len)
                .expect("a member");
            if max_len <= min_len + 1 {
                return moved;
            }
            let key = self.take(max_c, RunQueue::take_max).expect("non-empty");
            self.place(m, min_c, key.1, 0);
            moved += 1;
        }
    }

    /// Asserts the incremental crowded-queue count and the set of
    /// members with a queued task against a scan of every queue.
    /// O(cores): a test oracle, not for the event loop.
    pub fn check_crowded(&self) {
        let scan = self.rqs.iter().filter(|rq| rq.queue.len() >= 2).count();
        assert_eq!(
            self.crowded, scan,
            "crowded-queue count diverged from the scan"
        );
        let queued: Vec<CoreId> = (0..self.rqs.len())
            .map(CoreId::from_index)
            .filter(|&c| self.queue_len(c) > 0)
            .collect();
        assert_eq!(
            self.queued.iter().collect::<Vec<_>>(),
            queued,
            "queued-core set diverged from the scan"
        );
        assert!(
            queued.iter().all(|&c| self.members.contains(c)),
            "a non-member holds a queued task"
        );
    }

    /// `(core, queue length)` of every member in ascending core order.
    fn member_lens(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.members
            .iter()
            .map(|c| (c.index(), self.rqs[c.index()].queue.len()))
    }

    /// Raises `core`'s `min_vruntime` to what the kernel's renewals there
    /// since the core's last dispatch would have left: each renewal ran
    /// the task in place, which raised it to the task's vruntime, so the
    /// latest renewal's CPU time settles them all. Every dispatch on a
    /// member is the queues' own and restarts the kernel's record, so the
    /// record is the running offset's task's. With no renewal (zero CPU
    /// time) the fold changes nothing, as a dispatched offset never
    /// exceeds the floor it was dispatched under; nor does it on a core
    /// that rejoined and has not dispatched yet ([`UNDISPATCHED`]), nor
    /// under queues that never publish.
    fn fold_renewals(&mut self, m: &Machine, core: usize) {
        let cpu = m.renewed_cpu(CoreId::from_index(core)).as_micros() as i64;
        let rq = &mut self.rqs[core];
        rq.min_vruntime = rq.min_vruntime.max(rq.running_offset + cpu);
    }

    /// Places `task` on `core` at `min_vruntime - credit_us`, returning
    /// that vruntime.
    fn place(&mut self, m: &Machine, core: usize, task: TaskId, credit_us: i64) -> i64 {
        self.fold_renewals(m, core);
        let vr = self.rqs[core].min_vruntime - credit_us;
        debug_assert!(
            m.task(task).state() != faas_kernel::TaskState::Running,
            "placing a running task"
        );
        self.push(core, (vr, task));
        vr
    }

    /// Pushes `key` onto member `core`'s queue, keeping the crowded-queue
    /// count and the queued-core set.
    fn push(&mut self, core: usize, key: RqKey) {
        let id = CoreId::from_index(core);
        debug_assert!(self.members.contains(id), "enqueue on a non-member core");
        let queue = &mut self.rqs[core].queue;
        queue.push(key);
        match queue.len() {
            1 => {
                self.queued.insert(id);
                self.lone_stale = true;
            }
            2 => self.crowded += 1,
            _ => {}
        }
    }

    /// Takes one key off `core`'s queue with `pick` (`pop_min` or
    /// `take_max`), keeping the crowded-queue count and the queued-core
    /// set.
    fn take(&mut self, core: usize, pick: fn(&mut RunQueue) -> Option<RqKey>) -> Option<RqKey> {
        let queue = &mut self.rqs[core].queue;
        let key = pick(queue)?;
        match queue.len() {
            0 => {
                self.queued.remove(CoreId::from_index(core));
                self.lone_stale = true;
            }
            1 => self.crowded -= 1,
            _ => {}
        }
        Some(key)
    }

    /// Steals the longest-waiting task of the most loaded sibling queue
    /// into `core`'s empty queue. A miss with no crowded queue anywhere is
    /// O(1).
    fn steal_into(&mut self, m: &Machine, core: usize) -> bool {
        if self.crowded == 0 {
            return false;
        }
        // `core`'s own queue is empty, so the most loaded sibling is
        // crowded.
        let (victim, _) = self
            .member_lens()
            .filter(|&(c, _)| c != core)
            .max_by_key(|&(_, len)| len)
            .expect("a crowded sibling queue");
        let key = self.take(victim, RunQueue::take_max).expect("non-empty");
        self.place(m, core, key.1, 0);
        true
    }

    fn slice_for(&self, queued_after_pick: usize) -> SimDuration {
        let nr = queued_after_pick as u64 + 1;
        if nr >= self.slice_floor_nr {
            // nr * min_granularity >= sched_latency, so the quotient can
            // only be <= min_granularity: the max() below would pick the
            // floor anyway. Skip the division.
            return self.min_granularity;
        }
        (self.sched_latency / nr).max(self.min_granularity)
    }
}

/// The simulated CFS agent: [`CfsRunQueues`] over every core, plus
/// least-loaded placement, the new-task sleeper credit and wakeup
/// preemption.
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::Cfs;
/// use faas_simcore::{SimDuration, SimTime};
///
/// // 20 concurrent 100 ms tasks on one core: they time-slice, so each
/// // task's wall-clock execution is far larger than its 100 ms of work.
/// let specs: Vec<TaskSpec> = (0..20)
///     .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128))
///     .collect();
/// let report = Simulation::new(MachineConfig::new(1), specs, Cfs::with_cores(1)).run_slim()?;
/// let exec = report.tasks[0].execution_time().unwrap();
/// assert!(exec >= SimDuration::from_millis(500), "time slicing stretches execution");
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Cfs {
    params: CfsParams,
    rqs: CfsRunQueues,
}

impl Cfs {
    /// CFS over `cores` cores with default parameters.
    pub fn with_cores(cores: usize) -> Self {
        Cfs::with_params(cores, CfsParams::default())
    }

    /// CFS with explicit parameters. The machine it drives must have
    /// exactly `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `min_granularity` is zero.
    pub fn with_params(cores: usize, params: CfsParams) -> Self {
        assert!(cores > 0, "need at least one core");
        let mut rqs = CfsRunQueues::new(cores, params.sched_latency, params.min_granularity);
        rqs.members = CoreSet::full(cores);
        Cfs { params, rqs }
    }

    /// The parameters in use.
    pub fn params(&self) -> CfsParams {
        self.params
    }

    /// Runnable tasks queued on `core` (excluding the running one).
    pub fn queue_len(&self, core: usize) -> usize {
        self.rqs.queue_len(CoreId::from_index(core))
    }

    fn least_loaded_core(&self, m: &Machine) -> CoreId {
        (0..self.rqs.num_cores())
            .map(CoreId::from_index)
            .min_by_key(|&c| {
                let running = matches!(m.core_state(c), CoreState::Running(_)) as usize;
                self.rqs.queue_len(c) + running
            })
            .expect("at least one core")
    }
}

impl Scheduler for Cfs {
    fn name(&self) -> &str {
        "cfs"
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        assert_eq!(
            m.num_cores(),
            self.rqs.num_cores(),
            "machine core count must match the core count Cfs was built for"
        );
        let core = self.least_loaded_core(m);
        // New tasks get the sleeper credit: placed half a latency period
        // below min_vruntime (bounded unfairness, like the kernel).
        let vr = self
            .rqs
            .enqueue_with_credit(m, core, task, self.params.sched_latency / 2);
        if !self.params.wakeup_preemption {
            return;
        }
        // check_preempt_wakeup: if the core is running something whose
        // vruntime is far enough ahead of the newcomer, kick it off now;
        // the idle sweep re-picks the smallest vruntime (the newcomer).
        if let Some((running, _)) = m.running_on(core) {
            let cpu_us = CfsRunQueues::cpu_us(m, running);
            let lead = self.rqs.running_vruntime(core, cpu_us) - vr;
            if lead >= self.params.wakeup_granularity.as_micros() as i64 {
                let evicted = m.preempt(core).expect("core was running");
                self.rqs.requeue(m, core, evicted);
            }
        }
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        // Keep the accumulated offset: vruntime advanced by the on-CPU time.
        self.rqs.expire_slice(m, core, task);
    }

    fn on_interference_preempt(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        // The host holds the core, so the slice cannot be renewed there
        // (the inherited default would route this through
        // `on_slice_expired`): only queue the task, for the offers to run
        // once its core is back or a sibling steals it.
        self.rqs.requeue(m, core, task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        self.rqs.dispatch(m, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{
        CostModel, InterferenceConfig, KernelMessage, MachineConfig, Simulation, SlimReport,
        TaskSpec,
    };
    use faas_simcore::{check, SimTime};

    fn run(cores: usize, specs: Vec<TaskSpec>) -> SlimReport {
        let cfg = MachineConfig::new(cores).with_cost(CostModel::free());
        Simulation::new(cfg, specs, Cfs::with_cores(cores))
            .run_slim()
            .unwrap()
    }

    fn uniform(n: usize, work_ms: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(work_ms), 128))
            .collect()
    }

    #[test]
    fn all_tasks_complete() {
        let report = run(4, uniform(64, 17));
        assert!(report.tasks.iter().all(|t| t.completion().is_some()));
    }

    #[test]
    fn fairness_equal_tasks_finish_together() {
        // 8 identical tasks on 1 core must all finish within one slice of
        // each other (processor sharing).
        let report = run(1, uniform(8, 40));
        let completions: Vec<u64> = report
            .tasks
            .iter()
            .map(|t| t.completion().unwrap().as_millis())
            .collect();
        let spread = completions.iter().max().unwrap() - completions.iter().min().unwrap();
        assert!(
            spread <= 40,
            "completion spread {spread}ms too wide for fair sharing"
        );
    }

    #[test]
    fn execution_time_stretches_with_concurrency() {
        let solo = run(1, uniform(1, 50));
        let crowded = run(1, uniform(10, 50));
        let solo_exec = solo.tasks[0].execution_time().unwrap();
        let crowded_exec = crowded.tasks[0].execution_time().unwrap();
        assert!(
            crowded_exec >= solo_exec * 5,
            "10-way sharing must stretch execution ≥5x (got {crowded_exec} vs {solo_exec})"
        );
    }

    #[test]
    fn response_time_stays_small_under_load() {
        // A task arriving into a busy system still gets on-CPU quickly —
        // the paper's Fig. 4 "nearly vertical CDS line" for CFS.
        let mut specs = uniform(16, 100);
        specs.push(TaskSpec::function(
            SimTime::from_millis(200),
            SimDuration::from_millis(10),
            128,
        ));
        let report = run(2, specs);
        let late = report.tasks.last().unwrap();
        assert!(
            late.response_time().unwrap() <= SimDuration::from_millis(30),
            "response was {}",
            late.response_time().unwrap()
        );
    }

    #[test]
    fn preemptions_scale_with_sharing() {
        let report = run(1, uniform(10, 50));
        assert!(report.total_preemptions() > 50, "heavy slicing expected");
    }

    #[test]
    fn work_stealing_fills_idle_cores() {
        // All tasks arrive at once; least-loaded placement spreads them,
        // but even if one queue drains early the idle core steals.
        let report = run(3, uniform(30, 20));
        let makespan = report.finished_at;
        // Perfect balance would be 200 ms; allow slack but far below the
        // 600 ms serial bound.
        assert!(makespan <= SimTime::from_millis(320), "makespan {makespan}");
    }

    #[test]
    fn wakeup_preemption_gives_instant_response() {
        // A long-running hog; a newcomer must preempt it immediately
        // instead of waiting for the slice timer.
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(5), 128),
            TaskSpec::function(SimTime::from_millis(500), SimDuration::from_millis(10), 128),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Cfs::with_cores(1))
            .run_slim()
            .unwrap();
        assert!(
            report.tasks[1].response_time().unwrap() <= SimDuration::from_millis(1),
            "wakeup preemption must run the newcomer immediately, got {}",
            report.tasks[1].response_time().unwrap()
        );
    }

    #[test]
    fn wakeup_preemption_can_be_disabled() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(5), 128),
            TaskSpec::function(SimTime::from_millis(500), SimDuration::from_millis(10), 128),
        ];
        let params = CfsParams {
            wakeup_preemption: false,
            ..CfsParams::default()
        };
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Cfs::with_params(1, params))
            .run_slim()
            .unwrap();
        // Without the wakeup path the newcomer waits for the slice timer.
        assert!(
            report.tasks[1].response_time().unwrap() >= SimDuration::from_millis(2),
            "got {}",
            report.tasks[1].response_time().unwrap()
        );
    }

    #[test]
    fn crowded_count_matches_scan_after_every_event() {
        check::run("cfs_crowded_count_matches_scan", 32, |g| {
            let cores = g.usize_in(1, 12);
            let n = g.usize_in(1, 8 * cores + 8);
            let span_ms = g.u64_in(1, 2_000);
            let specs: Vec<TaskSpec> = (0..n)
                .map(|_| {
                    TaskSpec::function(
                        SimTime::from_millis(g.u64_in(0, span_ms)),
                        SimDuration::from_millis(g.u64_in(1, 400)),
                        128,
                    )
                })
                .collect();
            let mut cfg = MachineConfig::new(cores).with_cost(CostModel::default());
            if g.boolean() {
                cfg = cfg
                    .with_interference(InterferenceConfig {
                        mean_interval: SimDuration::from_millis(30),
                        duration: SimDuration::from_millis(4),
                    })
                    .with_seed(g.u64_in(0, u64::MAX));
            }
            let params = CfsParams {
                wakeup_preemption: g.boolean(),
                ..CfsParams::default()
            };
            let mut sim = Simulation::new(cfg, specs, Cfs::with_params(cores, params));
            while sim.step().unwrap() {
                sim.policy().rqs.check_crowded();
            }
            sim.policy().rqs.check_crowded();
        });
    }

    #[test]
    fn lone_task_hit_by_interference_waits_for_its_core() {
        // One long task on two cores, with a host interference episode
        // every 100 ms on average. A slice expiry renews the lone task in
        // place; an interference preemption must not, because the host
        // still holds the core: the task is queued, the idle sibling
        // cannot steal a lone task, and the task resumes cold on its own
        // core when the episode ends.
        let cfg = MachineConfig::new(2)
            .with_cost(CostModel::default())
            .with_interference(InterferenceConfig {
                mean_interval: SimDuration::from_millis(100),
                duration: SimDuration::from_millis(4),
            })
            .with_seed(3)
            .with_message_log();
        let specs = uniform(1, 600);
        let report = Simulation::new(cfg, specs, Cfs::with_cores(2))
            .run_slim()
            .unwrap();
        let log = &report.messages;
        let home = match log[1].1 {
            KernelMessage::Dispatch { core, .. } => core,
            ref other => panic!("expected the first dispatch, got {other:?}"),
        };
        let (mut expiries, mut hits) = (0, 0);
        for (i, &(at, msg)) in log.iter().enumerate() {
            match msg {
                KernelMessage::SliceExpired { core, .. } => {
                    assert_eq!(core, home);
                    expiries += 1;
                    // Renewed warm, in place, at the same instant.
                    assert!(matches!(
                        log[i + 1],
                        (t, KernelMessage::Dispatch { core: c, .. }) if t == at && c == home
                    ));
                }
                KernelMessage::TaskPreempt {
                    core,
                    by_interference: true,
                    ..
                } => {
                    assert_eq!(core, home);
                    hits += 1;
                    // The host takes the core, and the task's next dispatch
                    // comes at that episode's end, on the same core.
                    assert_eq!(log[i + 1], (at, KernelMessage::InterferenceStart { core }));
                    let end = log[i + 2..]
                        .iter()
                        .position(|&(_, m)| m == KernelMessage::InterferenceEnd { core })
                        .map(|j| i + 2 + j)
                        .expect("the episode ends");
                    let (end_at, _) = log[end];
                    let (next_at, next) = *log[i + 2..]
                        .iter()
                        .find(|(_, m)| matches!(m, KernelMessage::Dispatch { .. }))
                        .expect("the task runs again");
                    assert_eq!(next_at, end_at, "resumed at the episode's end");
                    assert!(matches!(next, KernelMessage::Dispatch { core: c, .. } if c == home));
                }
                _ => {}
            }
        }
        assert!(hits > 0, "the seed must let the host hit the running task");
        assert!(expiries > hits, "slice expiries must be renewed too");
        let task = &report.tasks[0];
        assert!(task.completion().is_some());
        assert_eq!(task.preemptions() as usize, expiries + hits);
        let stats = report.core_stats[home.index()];
        assert_eq!(stats.preemptions as usize, expiries + hits);
        // One cold start plus one cold resume per episode; the renewals
        // are warm.
        assert_eq!(stats.ctx_switches as usize, 1 + hits);
        let sibling = report.core_stats[1 - home.index()];
        assert_eq!((sibling.preemptions, sibling.ctx_switches), (0, 0));
    }

    #[test]
    fn slice_respects_min_granularity() {
        let cfs = Cfs::with_cores(1);
        assert_eq!(cfs.rqs.slice_for(0), SimDuration::from_millis(24));
        assert_eq!(cfs.rqs.slice_for(1), SimDuration::from_millis(12));
        assert_eq!(cfs.rqs.slice_for(100), SimDuration::from_millis(3));
    }

    #[test]
    fn steal_takes_from_the_most_loaded_sibling() {
        // Core 0 queues two tasks, core 1 three, core 2 none: idle core 2
        // steals core 1's largest key, the equal-vruntime task with the
        // highest id.
        let specs = uniform(5, 10);
        let mut m = Machine::new(MachineConfig::new(3), &specs[..]);
        for _ in 0..5 {
            m.advance().unwrap(); // each task's arrival
        }
        let mut rqs =
            CfsRunQueues::new(3, SimDuration::from_millis(24), SimDuration::from_millis(3));
        let core = CoreId::from_index;
        for (c, tasks) in [(0, 0..2), (1, 2..5)] {
            rqs.add_core(core(c));
            for t in tasks {
                rqs.enqueue_new(&m, core(c), TaskId::from_index(t));
            }
        }
        rqs.add_core(core(2));
        rqs.dispatch(&mut m, core(2));
        let (stolen, _) = m.running_on(core(2)).expect("core 2 stole a task");
        assert_eq!(stolen, TaskId::from_index(4));
        assert_eq!(
            [0, 1, 2].map(|c| rqs.queue_len(core(c))),
            [2, 2, 0],
            "exactly one task moved, off core 1"
        );
        rqs.check_crowded();
    }

    #[test]
    fn a_rejoined_core_folds_no_renewal_from_before_it_left() {
        // A lone task on a published core: its first slice expiry is
        // renewed in the kernel, which records the task's CPU time there.
        // The core then leaves the group while the record stands and
        // rejoins before it dispatches again: a newcomer placed there
        // starts from the fresh floor, not from the old task's vruntime.
        let specs = uniform(2, 100);
        let mut m = Machine::new(MachineConfig::new(1), &specs[..]);
        m.advance().unwrap();
        m.advance().unwrap();
        let core = CoreId::from_index(0);
        let mut rqs =
            CfsRunQueues::new(1, SimDuration::from_millis(24), SimDuration::from_millis(3));
        rqs.add_core(core);
        rqs.enqueue_new(&m, core, TaskId::from_index(0));
        rqs.publish_lone_slices(&mut m);
        rqs.dispatch(&mut m, core);
        rqs.publish_lone_slices(&mut m);
        // T1 waits, but no core is idle: the expiry renews in the kernel.
        assert_eq!(
            m.advance().unwrap(),
            Some(faas_kernel::PolicyCall::Internal)
        );
        assert_eq!(m.renewals(), 1);
        assert!(!m.renewed_cpu(core).is_zero());
        m.preempt(core).unwrap();
        rqs.remove_core(core);
        rqs.add_core(core);
        let vr = rqs.enqueue_with_credit(&m, core, TaskId::from_index(1), SimDuration::ZERO);
        assert_eq!(vr, 0, "a renewal from before the core left was folded");
    }

    #[test]
    fn balance_moves_largest_keys_to_a_joining_core() {
        // Four equal-vruntime tasks on core 0, then core 1 joins empty:
        // balance moves the two largest keys (highest ids) across.
        let specs = uniform(4, 10);
        let m = Machine::new(MachineConfig::new(2), &specs[..]);
        let mut rqs =
            CfsRunQueues::new(2, SimDuration::from_millis(24), SimDuration::from_millis(3));
        let core = CoreId::from_index;
        rqs.add_core(core(0));
        for t in 0..4 {
            rqs.enqueue_new(&m, core(0), TaskId::from_index(t));
        }
        rqs.add_core(core(1));
        assert_eq!(rqs.balance(&m), 2);
        rqs.check_crowded();
        let ids = |tasks: Vec<TaskId>| tasks.into_iter().map(TaskId::index).collect::<Vec<_>>();
        assert_eq!(ids(rqs.remove_core(core(1))), [2, 3]);
        assert_eq!(ids(rqs.remove_core(core(0))), [0, 1]);
        rqs.check_crowded();
    }

    fn run_mismatched(machine_cores: usize, policy_cores: usize) {
        let cfg = MachineConfig::new(machine_cores).with_cost(CostModel::free());
        let _ = Simulation::new(cfg, uniform(8, 10), Cfs::with_cores(policy_cores)).run_slim();
    }

    #[test]
    #[should_panic(expected = "machine core count must match the core count Cfs was built for")]
    fn fewer_policy_cores_than_machine_cores_rejected() {
        run_mismatched(4, 2);
    }

    #[test]
    #[should_panic(expected = "machine core count must match the core count Cfs was built for")]
    fn more_policy_cores_than_machine_cores_rejected() {
        run_mismatched(2, 4);
    }
}
