//! The simulated machine: cores + tasks + the kernel event loop.
//!
//! [`Machine`] plays the role of the ghOSt *kernel side*: it owns the
//! ground truth about cores and tasks, delivers scheduling messages
//! upward, and exposes the two verbs a user-space agent may invoke —
//! [`Machine::dispatch`] (commit a task to a core, optionally with a time
//! slice) and [`Machine::preempt`] (take a task off a core). Policies never
//! mutate tasks or cores directly.

use std::borrow::Cow;
use std::collections::VecDeque;

use faas_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::core::{Core, CoreId, CoreState, CoreStats};
use crate::cost::CostModel;
use crate::idle::CoreSet;
use crate::message::KernelMessage;
use crate::task::{Task, TaskId, TaskSpec, TaskState};
use crate::util::UtilizationLedger;

/// Bucket width of every machine's utilization ledger.
const UTIL_BUCKET: SimDuration = SimDuration::from_secs(1);
/// A run aborts with [`SimError::Stalled`] when no task finishes for this
/// long while some remain unfinished.
const STALL_TIMEOUT: SimDuration = SimDuration::from_secs(3_600);

/// Host-OS interference model: the native kernel (timer ticks, kthreads,
/// the CFS class ghOSt coexists with) periodically claims a core.
///
/// Table I of the paper attributes plain FIFO's poor p99 *execution* time to
/// exactly this effect ("the p99 execution time of FIFO in the ghOSt system
/// suffers due to the preemption from Linux native CFS").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterferenceConfig {
    /// Mean interval between interference episodes per core (exponential).
    pub mean_interval: SimDuration,
    /// Mean length of one episode (jittered ±50%).
    pub duration: SimDuration,
}

impl Default for InterferenceConfig {
    /// Roughly one 5 ms housekeeping episode every 30 s per core.
    fn default() -> Self {
        InterferenceConfig {
            mean_interval: SimDuration::from_secs(30),
            duration: SimDuration::from_millis(5),
        }
    }
}

/// An interference-storm window: while the machine clock is inside
/// `[start, end)`, host-OS interference episodes arrive `intensity`
/// times more often than the baseline
/// [`InterferenceConfig::mean_interval`].
///
/// Storms only *post-scale* the exponential gap draws — the RNG draw
/// count and order never change — so a machine configured with an empty
/// storm list is bit-identical to one with no storms at all. This is
/// the kernel half of the cluster chaos layer's "interference storm"
/// fault (see `faas-cluster`'s `chaos` module); it has no effect unless
/// [`MachineConfig::interference`] is enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormWindow {
    /// First instant inside the storm.
    pub start: SimTime,
    /// First instant after the storm.
    pub end: SimTime,
    /// Episode-frequency multiplier (> 0; values above 1 mean more
    /// interference, below 1 mean a lull).
    pub intensity: f64,
}

/// Divides an exponential gap draw (in seconds) by the intensity of the
/// storm window containing `at`, if any. With no matching window the
/// draw passes through untouched — no float op, so empty or
/// non-overlapping storm lists stay bit-identical to the baseline.
fn storm_scaled(storms: &[StormWindow], at: SimTime, gap_secs: f64) -> f64 {
    for w in storms {
        if at >= w.start && at < w.end {
            return gap_secs / w.intensity;
        }
    }
    gap_secs
}

/// Configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of CPU cores in the enclave.
    pub cores: usize,
    /// Context-switch cost model.
    pub cost: CostModel,
    /// Optional host-OS interference.
    pub interference: Option<InterferenceConfig>,
    /// Interference-storm windows (sorted or not; first match wins).
    pub storms: Vec<StormWindow>,
    /// Seed for the machine's internal randomness (interference timing).
    pub seed: u64,
    /// Record the kernel→agent message log (costs memory; great for tests).
    pub log_messages: bool,
}

impl MachineConfig {
    /// A machine with `cores` cores and defaults everywhere else
    /// (default cost model, no interference, 1 s utilization buckets).
    pub fn new(cores: usize) -> Self {
        MachineConfig {
            cores,
            cost: CostModel::default(),
            interference: None,
            storms: Vec::new(),
            seed: 0xFAA5,
            log_messages: false,
        }
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Enables host-OS interference.
    pub fn with_interference(mut self, i: InterferenceConfig) -> Self {
        self.interference = Some(i);
        self
    }

    /// Sets the interference-storm windows.
    ///
    /// # Panics
    ///
    /// Panics if a window is empty or its intensity is not positive.
    pub fn with_storms(mut self, storms: Vec<StormWindow>) -> Self {
        for w in &storms {
            assert!(w.start < w.end, "storm window must be non-empty");
            assert!(w.intensity > 0.0, "storm intensity must be positive");
        }
        self.storms = storms;
        self
    }

    /// Enables the kernel message log.
    pub fn with_message_log(mut self) -> Self {
        self.log_messages = true;
        self
    }

    /// Sets the RNG seed for interference timing.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Where the kernel renews a lone slice itself, as a policy publishes it
/// through [`Machine::lone_slices_mut`]: the cores on which a slice expiry
/// would only put the same task back on the same core, and the slice it
/// would get there.
///
/// A slice expiry on a core in [`cores`](Self::cores), while no other
/// task waits or no other core is idle, renews the running task's slice
/// in the kernel: the run segment ends and restarts at once with
/// [`slice`](Self::slice), exactly as the policy's own re-dispatch of the
/// expired task on that core would leave it, and the policy gets no
/// callback ([`PolicyCall::Internal`]). Empty until a policy publishes.
#[derive(Debug)]
pub struct LoneSlices {
    /// The cores a slice expiry may renew in the kernel.
    pub cores: CoreSet,
    /// The slice a kernel renewal dispatches with.
    pub slice: SimDuration,
}

/// Errors returned by the scheduling verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// The referenced core does not exist.
    NoSuchCore(CoreId),
    /// The referenced task does not exist.
    NoSuchTask(TaskId),
    /// Dispatch onto a core that is not idle.
    CoreBusy(CoreId),
    /// Dispatch of a task that is not runnable (already running/finished),
    /// or preempt of a core that runs no task.
    NotRunnable(TaskId),
    /// Preempt on an idle or interference-occupied core.
    NothingRunning(CoreId),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoSuchCore(c) => write!(f, "no such core {c}"),
            SchedError::NoSuchTask(t) => write!(f, "no such task {t}"),
            SchedError::CoreBusy(c) => write!(f, "core {c} is not idle"),
            SchedError::NotRunnable(t) => write!(f, "task {t} is not runnable"),
            SchedError::NothingRunning(c) => write!(f, "core {c} runs no task"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Terminal simulation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while tasks were still unfinished — the
    /// policy lost track of runnable tasks.
    Deadlock {
        /// Number of unfinished tasks at the time of the deadlock.
        unfinished: usize,
    },
    /// No task finished for an hour of virtual time.
    Stalled {
        /// Virtual instant at which the stall was declared.
        at: SimTime,
        /// Number of unfinished tasks.
        unfinished: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { unfinished } => {
                write!(f, "event queue drained with {unfinished} unfinished tasks")
            }
            SimError::Stalled { at, unfinished } => {
                write!(f, "no progress by {at} with {unfinished} unfinished tasks")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A notification the kernel hands to the user-space policy.
///
/// These correspond one-to-one with the ghOSt message types the paper's
/// agents consume (`MSG_TASK_NEW`, `MSG_TASK_PREEMPT`, `MSG_TASK_DEAD`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyCall {
    /// A task arrived and awaits placement.
    TaskNew(TaskId),
    /// A task finished. For CPU-bound tasks the core is where it ran; a
    /// task that finished an off-CPU wait ([`TaskSpec::io_wait`]) was on
    /// no core, and the argument is conventionally core 0.
    TaskFinished(TaskId, CoreId),
    /// A task's dispatch time slice expired; it is now `Preempted` and the
    /// policy must re-queue it.
    SliceExpired(TaskId, CoreId),
    /// The host OS kicked a task off a core; it is now `Preempted`.
    InterferencePreempt(TaskId, CoreId),
    /// Periodic policy tick.
    Tick,
    /// Kernel-internal event; nothing to deliver (cores may have changed
    /// state, so the driver still offers idle cores while a task waits).
    Internal,
}

/// A dynamic kernel event. Task arrivals are *not* queued events: they are
/// known ahead of the clock (at construction, or when a streamed chunk is
/// fed), so they live in a time-ordered calendar (`Machine::arrivals`)
/// consumed from the front — the event queue then only ever holds the
/// handful of in-flight per-core timers. Slice expiries, ticks and the
/// deadline cancels armed at arrival are set a delay ahead of the clock
/// that mostly repeats, so they go to the queue's delay lanes
/// ([`EventQueue::schedule_after`]); completions, interference, I/O
/// returns and the cancel a past-deadline dispatch re-arms go to its
/// heap.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(TaskId),
    Complete {
        core: CoreId,
        generation: u64,
    },
    SliceExpire {
        core: CoreId,
        generation: u64,
    },
    IoComplete(TaskId),
    /// Abandonment deadline of a task with [`TaskSpec::deadline`] set.
    /// Scheduled when the arrival fires (and re-armed by a past-deadline
    /// dispatch), so deadline-free runs carry zero extra events.
    Cancel(TaskId),
    InterferenceStart(CoreId),
    InterferenceEnd {
        core: CoreId,
        generation: u64,
    },
    Tick,
}

/// The simulated machine (ghOSt kernel side).
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    cores: Vec<Core>,
    /// Live task records. Task `id` lives at deque index
    /// `id.index() - task_base`; ids below `task_base` were retired via
    /// [`Machine::retire_finished`] (streaming runs) and no longer exist.
    /// Batch runs never retire, so the deque stays a plain dense array.
    tasks: VecDeque<Task>,
    /// Number of tasks retired off the front of `tasks` (all finished).
    task_base: usize,
    events: EventQueue<Event>,
    /// Task arrivals sorted by (time, spec order) — the static half of the
    /// future-event list, popped from the front. At equal instants an
    /// arrival fires before any dynamic event, which reproduces the
    /// insertion-sequence tie-break of the old all-in-one heap exactly
    /// (arrivals were always scheduled first). A deque (not a Vec plus
    /// cursor) so streaming feeds can push new arrivals while consumed
    /// ones are dropped — memory stays O(in-flight), not O(total).
    arrivals: VecDeque<(SimTime, TaskId)>,
    /// `arrivals.front().0` memoized (`SimTime::MAX` once exhausted), so
    /// the per-event merge check is one register compare.
    next_arrival_at: SimTime,
    util: UtilizationLedger,
    rng: SimRng,
    messages: Vec<(SimTime, KernelMessage)>,
    finished: usize,
    last_progress: SimTime,
    tick_every: Option<SimDuration>,
    /// Incrementally maintained set of idle cores (updated on every core
    /// state transition; replaces the per-event O(cores) scan).
    idle: CoreSet,
    /// `idle.len()`, kept alongside so the count is one load.
    num_idle: usize,
    /// The cores the driver may offer: every core until the policy
    /// narrows it ([`Machine::offer_mask_mut`]).
    offer_mask: CoreSet,
    /// Monotonic count of busy→idle transitions. The driver compares it
    /// across one pass of idle-core offers to see whether the pass freed
    /// a core that needs a follow-up pass.
    idle_transitions: u64,
    /// Arrived tasks a policy can dispatch: those in the `Queued` or
    /// `Preempted` state. Rises at each arrival event and each
    /// preemption, falls at each dispatch; building or feeding tasks
    /// does not move it, because `Task::new` creates them `Queued`
    /// before they arrive. The driver offers idle cores only while it is
    /// non-zero.
    waiting: usize,
    /// Kernel events processed so far (stale generations included).
    events_processed: u64,
    /// Tasks whose arrival event has fired (retired ones included).
    arrived: u64,
    /// Peak in-flight backlog: max over time of arrived − terminal tasks.
    /// Only grows at arrivals, so it is updated there.
    max_in_flight: u64,
    /// Tasks cancelled past their deadline (monotonic; retirement does not
    /// decrement it).
    cancelled_total: u64,
    /// Where a slice expiry renews in the kernel (see [`LoneSlices`]).
    lone: LoneSlices,
    /// Slice expiries renewed in the kernel.
    renewals: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("tasks", &self.num_tasks())
            .field("finished", &self.finished)
            .finish()
    }
}

impl Machine {
    /// Builds a machine and schedules the arrival of every task in `specs`.
    ///
    /// Task ids are assigned densely in `specs` order. `specs` is either
    /// owned (`Vec<TaskSpec>`, moved into the machine without copying) or
    /// borrowed (`&[TaskSpec]`, `&Vec<TaskSpec>`, `&arc_specs[..]` for an
    /// `Arc<[TaskSpec]>`; specs are cloned per task) — so multi-policy
    /// sweeps synthesize one trace and hand every run a borrow instead of
    /// cloning whole spec vectors up front.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new<'s>(cfg: MachineConfig, specs: impl Into<Cow<'s, [TaskSpec]>>) -> Self {
        assert!(cfg.cores > 0, "machine needs at least one core");
        let mut events = EventQueue::new();
        let tasks: VecDeque<Task> = match specs.into() {
            Cow::Owned(specs) => specs.into_iter().map(Task::new).collect(),
            Cow::Borrowed(specs) => specs.iter().cloned().map(Task::new).collect(),
        };
        let mut arrivals: Vec<(SimTime, TaskId)> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.spec().arrival, TaskId(i as u32)))
            .collect();
        // Stable by time: equal instants keep spec order, the old
        // insertion-sequence tie-break.
        arrivals.sort_by_key(|&(at, _)| at);
        let mut rng = SimRng::seed_from(cfg.seed);
        if let Some(icfg) = cfg.interference {
            for c in 0..cfg.cores {
                let gap = rng.exponential(icfg.mean_interval.as_secs_f64());
                let gap = storm_scaled(&cfg.storms, SimTime::ZERO, gap);
                let at = SimTime::ZERO + SimDuration::from_secs_f64(gap);
                events.schedule(at, Event::InterferenceStart(CoreId(c as u16)));
            }
        }
        let util = UtilizationLedger::new(cfg.cores, UTIL_BUCKET);
        Machine {
            cores: (0..cfg.cores).map(|_| Core::new()).collect(),
            tasks,
            task_base: 0,
            events,
            next_arrival_at: arrivals.first().map_or(SimTime::MAX, |&(at, _)| at),
            arrivals: VecDeque::from(arrivals),
            util,
            rng,
            messages: Vec::new(),
            finished: 0,
            now: SimTime::ZERO,
            last_progress: SimTime::ZERO,
            tick_every: None,
            idle: CoreSet::full(cfg.cores),
            num_idle: cfg.cores,
            offer_mask: CoreSet::full(cfg.cores),
            idle_transitions: 0,
            waiting: 0,
            events_processed: 0,
            arrived: 0,
            max_in_flight: 0,
            cancelled_total: 0,
            lone: LoneSlices {
                cores: CoreSet::empty(cfg.cores),
                slice: SimDuration::ZERO,
            },
            renewals: 0,
            cfg,
        }
    }

    /// Arms the periodic [`PolicyCall::Tick`], as [`MachineRun`] does for
    /// a policy with a tick interval. Public for drivers built directly on
    /// [`Machine::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    ///
    /// [`MachineRun`]: crate::MachineRun
    pub fn arm_tick(&mut self, every: SimDuration) {
        assert!(!every.is_zero(), "tick interval must be positive");
        self.tick_every = Some(every);
        self.events.schedule_after(self.now, every, Event::Tick);
    }

    // ---- queries -----------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of tasks ever handed to the machine (finished, live, or
    /// retired).
    pub fn num_tasks(&self) -> usize {
        self.task_base + self.tasks.len()
    }

    /// Number of terminal tasks — finished or cancelled, retired ones
    /// included (only terminal tasks can be retired).
    pub fn num_finished(&self) -> usize {
        self.task_base + self.finished
    }

    /// Number of tasks cancelled past their [`TaskSpec::deadline`]
    /// (included in [`Machine::num_finished`]; monotonic across
    /// retirement).
    pub fn num_cancelled(&self) -> u64 {
        self.cancelled_total
    }

    /// Peak in-flight backlog so far: the maximum, over the run, of tasks
    /// that have arrived but not reached a terminal state. This is the
    /// quantity overload middleware bounds — with no admission control a
    /// past-saturation trace grows it without bound.
    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// Number of task records currently held in memory (fed but not yet
    /// retired) — the quantity streaming runs keep bounded.
    pub fn num_live_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Index of `id` into the live-task deque.
    #[inline]
    fn live_index(&self, id: TaskId) -> usize {
        id.index() - self.task_base
    }

    /// The live record of `id` (panics if retired or out of range).
    #[inline]
    fn task_ref(&self, id: TaskId) -> &Task {
        &self.tasks[id.index() - self.task_base]
    }

    /// Mutable live record of `id` (panics if retired or out of range).
    #[inline]
    fn task_mut(&mut self, id: TaskId) -> &mut Task {
        let i = self.live_index(id);
        &mut self.tasks[i]
    }

    /// Read access to a task's kernel record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or was retired.
    pub fn task(&self, id: TaskId) -> &Task {
        self.task_ref(id)
    }

    /// What `core` is doing right now.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_state(&self, core: CoreId) -> CoreState {
        self.cores[core.index()].state
    }

    /// All cores currently idle, in ascending id order.
    ///
    /// Backed by an incrementally maintained bitset, so this is
    /// allocation-free and O(idle cores) rather than O(all cores).
    pub fn idle_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.idle.iter()
    }

    /// Number of currently idle cores (O(1)).
    pub fn num_idle_cores(&self) -> usize {
        self.num_idle
    }

    /// Number of arrived tasks a policy can dispatch — those `Queued` or
    /// `Preempted` (O(1)). While it is zero no policy has work to place,
    /// so the driver offers no idle core.
    pub fn num_waiting(&self) -> usize {
        self.waiting
    }

    /// The idle set itself, for the driver's word-by-word scan.
    pub(crate) fn idle_set(&self) -> &CoreSet {
        &self.idle
    }

    /// The cores the driver may offer while they are idle and some task
    /// waits (see [`Machine::offer_mask_mut`]).
    pub(crate) fn offer_mask(&self) -> &CoreSet {
        &self.offer_mask
    }

    /// The task running on `core` and the length of its current run
    /// segment, if any. O(1): a direct core-record lookup.
    pub fn running_on(&self, core: CoreId) -> Option<(TaskId, SimDuration)> {
        let c = &self.cores[core.index()];
        match c.state {
            CoreState::Running(t) => Some((t, self.now.saturating_since(c.work_start))),
            _ => None,
        }
    }

    /// The core `task` currently occupies, if it is running. O(1) via the
    /// task→core back-pointer (the inverse of [`Machine::running_on`]).
    pub fn core_of(&self, task: TaskId) -> Option<CoreId> {
        self.task_ref(task).on_core
    }

    /// Total observed on-CPU time of a task including its current run
    /// segment. This is what the hybrid scheduler compares against the FIFO
    /// time limit (§IV-A: "checks if the runtime of tasks on these cores
    /// exceeds the time limit").
    ///
    /// O(1): uses the task→core back-pointer instead of scanning cores.
    pub fn observed_runtime(&self, id: TaskId) -> SimDuration {
        let t = self.task_ref(id);
        let running_extra = match t.on_core {
            Some(core) => self
                .now
                .saturating_since(self.cores[core.index()].work_start),
            None => SimDuration::ZERO,
        };
        t.cpu_time() + running_extra
    }

    /// Kernel events processed so far, stale-generation events included
    /// (the denominator of the bench harness's events/sec throughput).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Slice expiries renewed in the kernel so far (see [`LoneSlices`]).
    /// Each is still a kernel event and a preemption; the policy got no
    /// callback for it.
    pub fn renewals(&self) -> u64 {
        self.renewals
    }

    /// The CPU time of the task last dispatched on `core` right after the
    /// latest slice the kernel renewed there since that dispatch, or zero
    /// if it renewed none ([`LoneSlices`]). A policy that publishes reads
    /// it to catch up on the renewals it was not called for; the next
    /// dispatch on `core` resets it.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn renewed_cpu(&self, core: CoreId) -> SimDuration {
        self.cores[core.index()].renewed_cpu
    }

    /// Per-core statistics.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_stats(&self, core: CoreId) -> CoreStats {
        let c = &self.cores[core.index()];
        CoreStats {
            preemptions: c.preemptions,
            ctx_switches: c.ctx_switches,
            busy: self.util.total_busy(core.index()),
        }
    }

    /// The utilization ledger (busy time per core per bucket). It keeps
    /// every bucket unless [`MachineRun::bound_utilization`] bounded it to
    /// the policy's utilization window.
    ///
    /// [`MachineRun::bound_utilization`]: crate::MachineRun::bound_utilization
    pub fn utilization(&self) -> &UtilizationLedger {
        &self.util
    }

    /// The kernel→agent message log (empty unless
    /// [`MachineConfig::log_messages`] is set).
    pub fn messages(&self) -> &[(SimTime, KernelMessage)] {
        &self.messages
    }

    /// Moves the kernel message log out of the machine (used by the slim
    /// report path, which drops the machine itself).
    pub(crate) fn take_messages(&mut self) -> Vec<(SimTime, KernelMessage)> {
        std::mem::take(&mut self.messages)
    }

    /// Consumes the machine, keeping only the live task records (the slim
    /// report path: everything else — event arena, arrival calendar,
    /// utilization ledger — is dropped here). Retired tasks are gone;
    /// batch runs never retire, so this is all tasks there.
    pub(crate) fn into_tasks(self) -> Vec<Task> {
        Vec::from(self.tasks)
    }

    /// Snapshot of all live task records.
    ///
    /// # Panics
    ///
    /// Panics if tasks were retired and later feeds wrapped the deque —
    /// streaming consumers drain via [`Machine::retire_finished`] instead
    /// of snapshotting.
    pub fn tasks(&self) -> &[Task] {
        let (head, tail) = self.tasks.as_slices();
        assert!(
            tail.is_empty(),
            "task records are non-contiguous after retirement; drain via retire_finished"
        );
        head
    }

    // ---- streaming feed -------------------------------------------------

    /// Appends more task specs to a machine mid-run (the chunked cluster
    /// feed). Ids continue densely after every task seen so far, and each
    /// spec's arrival is scheduled exactly as if it had been present at
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if the specs are not in arrival order, or arrive before the
    /// latest already-queued arrival or the machine's current time — the
    /// streamed feed must be a time-ordered continuation (chunk streams
    /// guarantee this; [`Machine::new`] sorts, this method cannot re-sort
    /// what was already consumed).
    pub fn push_specs<'s>(&mut self, specs: impl Into<Cow<'s, [TaskSpec]>>) {
        let mut floor = self
            .arrivals
            .back()
            .map_or(SimTime::ZERO, |&(at, _)| at)
            .max(self.now);
        match specs.into() {
            Cow::Owned(specs) => {
                for s in specs {
                    self.push_spec(s, &mut floor);
                }
            }
            Cow::Borrowed(specs) => {
                for s in specs {
                    self.push_spec(s.clone(), &mut floor);
                }
            }
        }
    }

    fn push_spec(&mut self, spec: TaskSpec, floor: &mut SimTime) {
        let at = spec.arrival;
        assert!(
            at >= *floor,
            "streamed specs must continue in arrival order ({at} < {floor})"
        );
        *floor = at;
        let id = TaskId((self.task_base + self.tasks.len()) as u32);
        self.tasks.push_back(Task::new(spec));
        if self.arrivals.is_empty() {
            self.next_arrival_at = at;
        }
        self.arrivals.push_back((at, id));
    }

    /// Pops finished tasks off the front of the id space, handing each
    /// record to `sink` in task-id order; returns how many were retired.
    /// Stops at the first unfinished task, so in-flight records stay
    /// addressable. This is what keeps streaming runs O(in-flight): after
    /// each chunk the caller folds the drained records into accumulators
    /// and the machine forgets them.
    pub fn retire_finished(&mut self, mut sink: impl FnMut(Task)) -> usize {
        let mut retired = 0;
        while let Some(front) = self.tasks.front() {
            if !matches!(front.state, TaskState::Finished | TaskState::Cancelled) {
                break;
            }
            let task = self.tasks.pop_front().expect("front just observed");
            self.task_base += 1;
            self.finished -= 1;
            retired += 1;
            sink(task);
        }
        retired
    }

    /// Bounds the utilization ledger to the trailing `window` a policy
    /// reads ([`Scheduler::utilization_window`]): from now on each core's
    /// busy time that a read of that window can no longer reach folds
    /// into the core's total, so [`Machine::core_stats`] is unchanged.
    ///
    /// [`Scheduler::utilization_window`]: crate::Scheduler::utilization_window
    pub(crate) fn bound_utilization(&mut self, window: SimDuration) {
        self.util.keep_window(window, self.now);
    }

    // ---- scheduling verbs (the agent ABI) -----------------------------

    /// The offer mask, for the policy to narrow: `MachineRun` offers an
    /// idle core only while it is in the mask. It holds every core until
    /// a policy changes it. A policy may leave a core out only while an
    /// offer to it would change nothing (see the [`Scheduler`] contract);
    /// the driver re-reads the mask after every offer, so a policy that
    /// narrows it keeps it current from every callback that changes its
    /// queues, `on_core_idle` included.
    ///
    /// [`Scheduler`]: crate::Scheduler
    pub fn offer_mask_mut(&mut self) -> &mut CoreSet {
        &mut self.offer_mask
    }

    /// Where the kernel renews a lone slice itself, for the policy to
    /// publish ([`LoneSlices`]). No core is in it until a policy adds
    /// one. A policy may publish a core only while its own queue for that
    /// core is empty and a slice expiry there, with no other task waiting
    /// or no other core idle, would dispatch the expired task again on
    /// that core with exactly [`LoneSlices::slice`] (see the
    /// [`Scheduler`] contract). Like the offer mask, the policy keeps it
    /// current from every callback that changes its queues.
    ///
    /// [`Scheduler`]: crate::Scheduler
    pub fn lone_slices_mut(&mut self) -> &mut LoneSlices {
        &mut self.lone
    }

    /// Commits `task` to run on `core`, optionally bounded by a time slice.
    ///
    /// With `slice = None` the task runs to completion (FIFO-style). With
    /// `Some(s)`, a [`PolicyCall::SliceExpired`] fires after `s` of real
    /// progress unless the task finishes first.
    ///
    /// A context switch is charged unless `task` was also the previous
    /// occupant of this core (warm resume). A preempted task resuming on a
    /// cold core additionally pays the
    /// [`restore_penalty`](CostModel::restore_penalty) as extra work.
    ///
    /// # Errors
    ///
    /// [`SchedError::CoreBusy`] if `core` is not idle,
    /// [`SchedError::NotRunnable`] if `task` is running or finished, and
    /// the `NoSuch*` variants for bad ids.
    pub fn dispatch(
        &mut self,
        core: CoreId,
        task: TaskId,
        slice: Option<SimDuration>,
    ) -> Result<(), SchedError> {
        let Some(c) = self.cores.get_mut(core.index()) else {
            return Err(SchedError::NoSuchCore(core));
        };
        // Below task_base: a retired (hence finished) task — gone.
        let Some(t) =
            (task.index().checked_sub(self.task_base)).and_then(|i| self.tasks.get_mut(i))
        else {
            return Err(SchedError::NoSuchTask(task));
        };
        if c.state != CoreState::Idle {
            return Err(SchedError::CoreBusy(core));
        }
        if !matches!(t.state, TaskState::Queued | TaskState::Preempted) {
            return Err(SchedError::NotRunnable(task));
        }

        let now = self.now;
        let warm = c.last_task == Some(task);
        let switch_cost = if warm {
            SimDuration::ZERO
        } else {
            self.cfg.cost.ctx_switch
        };
        if t.state == TaskState::Preempted && !warm {
            // Cold resume: pay the cache/TLB restore penalty as extra work.
            t.remaining += self.cfg.cost.restore_penalty;
        }

        c.state = CoreState::Running(task);
        c.generation += 1;
        c.busy_since = now;
        c.work_start = now + switch_cost;
        c.last_task = Some(task);
        c.renewed_cpu = SimDuration::ZERO;
        if !warm {
            c.ctx_switches += 1;
        }
        let generation = c.generation;

        t.state = TaskState::Running;
        t.on_core = Some(core);
        if t.first_run.is_none() {
            t.first_run = Some(now);
        }
        let remaining = t.remaining;
        // A task dispatched past its deadline is killed on the spot: the
        // cancel event that fired while it was queued was a no-op (the
        // policy still owned it), so it is re-armed below for this very
        // instant — it fires before any work happens, and the policy sees
        // an ordinary `TaskFinished`.
        let past_deadline = t.spec().deadline.is_some_and(|d| d <= now);

        self.mark_busy(core);
        self.waiting -= 1;
        match slice {
            Some(s) if s < remaining => {
                self.events.schedule_after(
                    now,
                    switch_cost + s,
                    Event::SliceExpire { core, generation },
                );
            }
            _ => {
                self.events.schedule(
                    now + switch_cost + remaining,
                    Event::Complete { core, generation },
                );
            }
        }
        if past_deadline {
            self.events.schedule(now, Event::Cancel(task));
        }
        self.log(KernelMessage::Dispatch { task, core, slice });
        Ok(())
    }

    /// Takes the running task off `core` (explicit policy preemption, e.g.
    /// the hybrid scheduler's time-limit check or core rightsizing).
    ///
    /// The task moves to `Preempted`; the policy owns re-queueing it.
    /// Returns the preempted task id.
    ///
    /// # Errors
    ///
    /// [`SchedError::NothingRunning`] if no task occupies `core`.
    pub fn preempt(&mut self, core: CoreId) -> Result<TaskId, SchedError> {
        if core.index() >= self.cores.len() {
            return Err(SchedError::NoSuchCore(core));
        }
        let task = match self.cores[core.index()].state {
            CoreState::Running(t) => t,
            _ => return Err(SchedError::NothingRunning(core)),
        };
        self.stop_running(core, task);
        self.log(KernelMessage::TaskPreempt {
            task,
            core,
            by_interference: false,
        });
        Ok(task)
    }

    // ---- engine ---------------------------------------------------------

    /// Advances the simulation by one kernel event.
    ///
    /// Returns the policy notification to deliver, or `None` when every
    /// task has finished.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when the event queue drains with unfinished
    /// tasks; [`SimError::Stalled`] when no task completes for an hour
    /// of virtual time.
    pub fn advance(&mut self) -> Result<Option<PolicyCall>, SimError> {
        if self.finished == self.tasks.len() {
            return Ok(None);
        }
        let next = if self.arrivals.is_empty() {
            self.events.pop()
        } else {
            Some(self.pop_until_arrival())
        };
        match next {
            Some((at, ev)) => self.fire(at, ev).map(Some),
            None => Err(SimError::Deadlock {
                unfinished: self.tasks.len() - self.finished,
            }),
        }
    }

    /// Like [`Machine::advance`], but fires only an event strictly before
    /// `bound`: `Ok(None)` once every task has finished or nothing is
    /// pending before `bound`, including when nothing is pending at all.
    /// The bounded run of a streaming driver, with the bound check folded
    /// into the same merge of arrivals and timers.
    pub(crate) fn advance_before(
        &mut self,
        bound: SimTime,
    ) -> Result<Option<PolicyCall>, SimError> {
        if self.finished == self.tasks.len() {
            return Ok(None);
        }
        // `next_arrival_at` is `SimTime::MAX` while no arrival is pending,
        // so an arrival before the bound means one is pending.
        let next = if self.next_arrival_at < bound {
            Some(self.pop_until_arrival())
        } else {
            self.events.pop_before(bound)
        };
        match next {
            Some((at, ev)) => self.fire(at, ev).map(Some),
            None => Ok(None),
        }
    }

    /// Takes the next event while an arrival is pending: the queue's
    /// earliest event if it fires strictly before that arrival, else the
    /// arrival. At equal instants the arrival fires first (it would have
    /// held the smaller insertion sequence in a unified queue).
    fn pop_until_arrival(&mut self) -> (SimTime, Event) {
        if let Some(popped) = self.events.pop_before(self.next_arrival_at) {
            return popped;
        }
        let (at, task) = self.arrivals.pop_front().expect("an arrival is pending");
        self.next_arrival_at = self.arrivals.front().map_or(SimTime::MAX, |&(t, _)| t);
        (at, Event::Arrival(task))
    }

    /// Moves the clock to `at` and applies `ev`, returning the policy
    /// notification it yields. Inlined into both advance paths, so the
    /// popped event stays in registers instead of crossing a call.
    #[inline(always)]
    fn fire(&mut self, at: SimTime, ev: Event) -> Result<PolicyCall, SimError> {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        if self.now.saturating_since(self.last_progress) > STALL_TIMEOUT {
            return Err(SimError::Stalled {
                at: self.now,
                unfinished: self.tasks.len() - self.finished,
            });
        }
        let call = match ev {
            Event::Arrival(task) => {
                self.arrived += 1;
                self.waiting += 1;
                let in_flight = self.arrived - (self.task_base + self.finished) as u64;
                if in_flight > self.max_in_flight {
                    self.max_in_flight = in_flight;
                }
                if let Some(deadline) = self.task_ref(task).spec().deadline {
                    // A deadline usually sits one fixed timeout past the
                    // arrival, so these cancels share a delay lane; one
                    // already past fires at this instant.
                    self.events.schedule_after(
                        self.now,
                        deadline.saturating_since(self.now),
                        Event::Cancel(task),
                    );
                }
                self.log(KernelMessage::TaskNew { task });
                PolicyCall::TaskNew(task)
            }
            Event::Complete { core, generation } => {
                let c = &self.cores[core.index()];
                if c.generation != generation {
                    PolicyCall::Internal
                } else {
                    let CoreState::Running(task) = c.state else {
                        unreachable!("live completion on non-running core")
                    };
                    let io_wait = self.task_ref(task).spec().io_wait;
                    if io_wait.is_zero() {
                        self.finish_running(core, task);
                        PolicyCall::TaskFinished(task, core)
                    } else {
                        // CPU work done; the function now waits off-CPU
                        // for an external call. The core is released (the
                        // idle sweep can refill it) but the task is billed
                        // until the wait returns.
                        self.release_to_io(core, task);
                        self.events
                            .schedule(self.now + io_wait, Event::IoComplete(task));
                        PolicyCall::Internal
                    }
                }
            }
            Event::IoComplete(task) => {
                if task.index() < self.task_base || self.task_ref(task).state != TaskState::Blocked
                {
                    // The wait's owner was cancelled mid-wait (and possibly
                    // retired since): the external call's return is void.
                    PolicyCall::Internal
                } else {
                    let now = self.now;
                    let t = self.task_mut(task);
                    t.completion = Some(now);
                    t.state = TaskState::Finished;
                    self.finished += 1;
                    self.last_progress = self.now;
                    self.log(KernelMessage::TaskDead {
                        task,
                        core: CoreId(0),
                    });
                    PolicyCall::TaskFinished(task, CoreId(0))
                }
            }
            Event::Cancel(task) => {
                if task.index() < self.task_base {
                    // Retired: already terminal and gone.
                    PolicyCall::Internal
                } else {
                    match self.task_ref(task).state {
                        TaskState::Finished | TaskState::Cancelled => PolicyCall::Internal,
                        TaskState::Running => {
                            let core = self
                                .task_ref(task)
                                .on_core
                                .expect("running task has a core");
                            self.cancel_running(core, task);
                            PolicyCall::TaskFinished(task, core)
                        }
                        TaskState::Blocked => {
                            self.cancel_off_core(task);
                            PolicyCall::TaskFinished(task, CoreId(0))
                        }
                        // Not on a core yet: the policy still owns the task
                        // in its own queues, so cancelling here would
                        // strand policy state. `dispatch` re-arms the
                        // cancel the moment the policy runs it, killing it
                        // with zero progress.
                        TaskState::Queued | TaskState::Preempted => PolicyCall::Internal,
                    }
                }
            }
            Event::SliceExpire { core, generation } => {
                let c = &self.cores[core.index()];
                if c.generation != generation {
                    PolicyCall::Internal
                } else {
                    let CoreState::Running(task) = c.state else {
                        unreachable!("live slice expiry on non-running core")
                    };
                    // With nothing else waiting or no other core idle, the
                    // policy would only put the task back here.
                    if self.lone.cores.contains(core) && (self.waiting == 0 || self.num_idle == 0) {
                        self.renew_slice(core, task);
                        PolicyCall::Internal
                    } else {
                        self.stop_running(core, task);
                        self.log(KernelMessage::SliceExpired { task, core });
                        PolicyCall::SliceExpired(task, core)
                    }
                }
            }
            Event::InterferenceStart(core) => {
                let preempted = match self.cores[core.index()].state {
                    CoreState::Running(t) => {
                        self.stop_running(core, t);
                        self.log(KernelMessage::TaskPreempt {
                            task: t,
                            core,
                            by_interference: true,
                        });
                        Some(t)
                    }
                    CoreState::Interference => None, // already occupied; skip episode
                    CoreState::Idle => None,
                };
                if self.cores[core.index()].state == CoreState::Idle {
                    let icfg = self
                        .cfg
                        .interference
                        .expect("interference event without config");
                    self.mark_busy(core);
                    let c = &mut self.cores[core.index()];
                    c.state = CoreState::Interference;
                    c.generation += 1;
                    c.busy_since = self.now;
                    c.last_task = None; // the intruder pollutes the cache
                    let generation = c.generation;
                    let dur = self.rng.jitter(icfg.duration, 0.5);
                    self.events
                        .schedule(self.now + dur, Event::InterferenceEnd { core, generation });
                    self.log(KernelMessage::InterferenceStart { core });
                }
                match preempted {
                    Some(t) => PolicyCall::InterferencePreempt(t, core),
                    None => PolicyCall::Internal,
                }
            }
            Event::InterferenceEnd { core, generation } => {
                if self.cores[core.index()].generation == generation {
                    let c = &mut self.cores[core.index()];
                    let now = self.now;
                    self.util.record_busy(core.index(), c.busy_since, now);
                    c.state = CoreState::Idle;
                    self.mark_idle(core);
                    self.log(KernelMessage::InterferenceEnd { core });
                }
                // Schedule the next episode regardless.
                let icfg = self
                    .cfg
                    .interference
                    .expect("interference event without config");
                let gap = self.rng.exponential(icfg.mean_interval.as_secs_f64());
                let gap = storm_scaled(&self.cfg.storms, self.now, gap);
                self.events.schedule(
                    self.now + SimDuration::from_secs_f64(gap),
                    Event::InterferenceStart(core),
                );
                PolicyCall::Internal
            }
            Event::Tick => {
                let every = self.tick_every.expect("tick event without interval");
                self.events.schedule_after(self.now, every, Event::Tick);
                PolicyCall::Tick
            }
        };
        Ok(call)
    }

    /// Ends the run segment on `core`: bills its busy interval, frees the
    /// core, bumps its generation (invalidating in-flight
    /// Complete/SliceExpire) and, if the task was `preempted`, the core's
    /// preemption count. Returns how long the task ran since `work_start`.
    fn end_segment(&mut self, core: CoreId, preempted: bool) -> SimDuration {
        let now = self.now;
        let c = &mut self.cores[core.index()];
        let ran = now.saturating_since(c.work_start);
        let since = c.busy_since;
        c.state = CoreState::Idle;
        c.generation += 1;
        c.preemptions += u64::from(preempted);
        self.mark_idle(core);
        self.util.record_busy(core.index(), since, now);
        ran
    }

    /// Ends the current run segment of `task` on `core` without finishing
    /// it: accounts progress, bumps preemption counters, frees the core.
    fn stop_running(&mut self, core: CoreId, task: TaskId) {
        let ran = self.end_segment(core, true);
        self.waiting += 1;
        let t = self.task_mut(task);
        let ran = ran.min(t.remaining);
        t.remaining -= ran;
        t.cpu_time += ran;
        t.preemptions += 1;
        t.state = TaskState::Preempted;
        t.on_core = None;
    }

    /// Renews the expired slice of `task` on `core` with the published
    /// lone slice, leaving everything as [`Machine::stop_running`] plus
    /// the policy's warm re-dispatch there would: the segment is billed
    /// and accounted, the core and the task count a preemption, the
    /// generation moves by two, the new timer and a past-deadline cancel
    /// are booked in dispatch order, and both messages are logged. The
    /// core never leaves the busy set and the task never waits, so the
    /// idle and waiting counts stay as they were.
    fn renew_slice(&mut self, core: CoreId, task: TaskId) {
        let now = self.now;
        let slice = self.lone.slice;
        let c = &mut self.cores[core.index()];
        let ran = now.saturating_since(c.work_start);
        let since = std::mem::replace(&mut c.busy_since, now);
        c.generation += 2;
        c.preemptions += 1;
        // Warm: the task was this core's last, so no switch is charged.
        c.work_start = now;
        let generation = c.generation;
        self.idle_transitions += 1;
        self.util.record_busy(core.index(), since, now);
        let t = self.task_mut(task);
        let ran = ran.min(t.remaining);
        t.remaining -= ran;
        t.cpu_time += ran;
        t.preemptions += 1;
        let (remaining, cpu_time) = (t.remaining, t.cpu_time);
        let past_deadline = t.spec().deadline.is_some_and(|d| d <= now);
        self.cores[core.index()].renewed_cpu = cpu_time;
        self.renewals += 1;
        if slice < remaining {
            self.events
                .schedule_after(now, slice, Event::SliceExpire { core, generation });
        } else {
            self.events
                .schedule(now + remaining, Event::Complete { core, generation });
        }
        if past_deadline {
            self.events.schedule(now, Event::Cancel(task));
        }
        self.log(KernelMessage::SliceExpired { task, core });
        self.log(KernelMessage::Dispatch {
            task,
            core,
            slice: Some(slice),
        });
    }

    /// Finishes the CPU work of `task` on `core` and moves it to the
    /// off-CPU blocked state (external call in flight).
    fn release_to_io(&mut self, core: CoreId, task: TaskId) {
        self.end_segment(core, false);
        let t = self.task_mut(task);
        t.cpu_time += t.remaining;
        t.remaining = SimDuration::ZERO;
        t.state = TaskState::Blocked;
        t.on_core = None;
    }

    /// Completes `task` on `core`.
    fn finish_running(&mut self, core: CoreId, task: TaskId) {
        self.end_segment(core, false);
        let now = self.now;
        let t = self.task_mut(task);
        t.cpu_time += t.remaining;
        t.remaining = SimDuration::ZERO;
        t.completion = Some(now);
        t.state = TaskState::Finished;
        t.on_core = None;
        self.finished += 1;
        self.last_progress = now;
        self.log(KernelMessage::TaskDead { task, core });
    }

    /// Cancels `task` mid-run on `core`: accounts the progress it made,
    /// frees the core, and moves the task to the terminal `Cancelled`
    /// state with no completion instant.
    fn cancel_running(&mut self, core: CoreId, task: TaskId) {
        let ran = self.end_segment(core, false);
        let t = self.task_mut(task);
        let ran = ran.min(t.remaining);
        t.remaining -= ran;
        t.cpu_time += ran;
        t.state = TaskState::Cancelled;
        t.on_core = None;
        self.seal_cancel(task, core);
    }

    /// Cancels a task that occupies no core (blocked on an external call).
    fn cancel_off_core(&mut self, task: TaskId) {
        self.task_mut(task).state = TaskState::Cancelled;
        self.seal_cancel(task, CoreId(0));
    }

    /// Terminal bookkeeping shared by every cancellation path.
    fn seal_cancel(&mut self, task: TaskId, core: CoreId) {
        self.finished += 1;
        self.cancelled_total += 1;
        self.last_progress = self.now;
        self.log(KernelMessage::TaskDead { task, core });
    }

    /// Records a busy→idle transition: updates the idle set and bumps the
    /// change counter the driver's follow-up offer passes key off.
    #[inline]
    fn mark_idle(&mut self, core: CoreId) {
        debug_assert!(!self.idle.contains(core), "core {core} already idle");
        self.idle.insert(core);
        self.num_idle += 1;
        self.idle_transitions += 1;
    }

    /// Records an idle→busy transition.
    #[inline]
    fn mark_busy(&mut self, core: CoreId) {
        debug_assert!(self.idle.contains(core), "core {core} already busy");
        self.idle.remove(core);
        self.num_idle -= 1;
    }

    /// Monotonic count of busy→idle transitions (unchanged across an offer
    /// pass ⇒ the pass freed no core ⇒ no follow-up pass needed).
    pub(crate) fn idle_transitions(&self) -> u64 {
        self.idle_transitions
    }

    /// Appends to the kernel message log when enabled. Inlined so the
    /// flag check sinks the message construction off the hot path; the
    /// push itself is the cold side (logging is a test/debug feature).
    #[inline]
    fn log(&mut self, msg: KernelMessage) {
        if self.cfg.log_messages {
            self.log_push(msg);
        }
    }

    #[cold]
    fn log_push(&mut self, msg: KernelMessage) {
        self.messages.push((self.now, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_task_machine(work_ms: u64) -> Machine {
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_message_log();
        Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(work_ms),
                128,
            )],
        )
    }

    #[test]
    fn storm_scaling_passes_draws_through_outside_windows() {
        let w = StormWindow {
            start: SimTime::from_millis(1_000),
            end: SimTime::from_millis(2_000),
            intensity: 4.0,
        };
        let g = 0.123_456_789_f64;
        // No storms and out-of-window instants return the draw bitwise
        // untouched — this is what keeps empty plans a no-op.
        assert_eq!(
            storm_scaled(&[], SimTime::from_millis(1_500), g).to_bits(),
            g.to_bits()
        );
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(999), g).to_bits(),
            g.to_bits()
        );
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(2_000), g).to_bits(),
            g.to_bits()
        );
        // Inside the window the gap shrinks by the intensity.
        assert_eq!(
            storm_scaled(&[w], SimTime::from_millis(1_000), g).to_bits(),
            (g / 4.0).to_bits()
        );
        // Overlapping windows: first match wins.
        let calm = StormWindow {
            intensity: 0.5,
            ..w
        };
        assert_eq!(
            storm_scaled(&[calm, w], SimTime::from_millis(1_500), g).to_bits(),
            (g / 0.5).to_bits()
        );
    }

    /// Drives a one-core machine through a 60 s task, re-dispatching after
    /// every preemption, and counts interference episodes.
    fn interference_episodes(storms: Vec<StormWindow>) -> usize {
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_interference(InterferenceConfig {
                mean_interval: SimDuration::from_secs(5),
                duration: SimDuration::from_millis(1),
            })
            .with_storms(storms)
            .with_message_log();
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(60),
                128,
            )],
        );
        while m.task(TaskId(0)).state() != TaskState::Finished {
            m.advance().unwrap().expect("task still unfinished");
            let runnable = matches!(
                m.task(TaskId(0)).state(),
                TaskState::Queued | TaskState::Preempted
            );
            if runnable && m.core_state(CoreId(0)) == CoreState::Idle {
                m.dispatch(CoreId(0), TaskId(0), None).unwrap();
            }
        }
        m.messages()
            .iter()
            .filter(|(_, msg)| matches!(msg, KernelMessage::InterferenceStart { .. }))
            .count()
    }

    #[test]
    fn storm_windows_concentrate_interference() {
        let calm = interference_episodes(vec![]);
        let stormy = interference_episodes(vec![StormWindow {
            start: SimTime::ZERO,
            end: SimTime::from_millis(120_000),
            intensity: 50.0,
        }]);
        assert!(
            stormy > 2 * calm,
            "a 50x storm over the whole run must multiply episodes ({stormy} vs {calm})"
        );
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut m = one_task_machine(100);
        // Arrival.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::TaskNew(TaskId(0))));
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // Completion.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        let t = m.task(TaskId(0));
        assert_eq!(t.state(), TaskState::Finished);
        assert_eq!(t.execution_time(), Some(SimDuration::from_millis(100)));
        assert_eq!(t.response_time(), Some(SimDuration::ZERO));
        assert_eq!(m.advance().unwrap(), None, "drained");
    }

    #[test]
    fn slice_expiry_preempts_and_accounts_progress() {
        let mut m = one_task_machine(100);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(30)))
            .unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::SliceExpired(TaskId(0), CoreId(0)))
        );
        let t = m.task(TaskId(0));
        assert_eq!(t.state(), TaskState::Preempted);
        assert_eq!(t.remaining(), SimDuration::from_millis(70));
        assert_eq!(t.preemptions(), 1);
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
    }

    #[test]
    fn warm_resume_charges_no_switch_or_penalty() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::from_micros(1_000, 5_000));
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(100),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(30)))
            .unwrap();
        m.advance().unwrap(); // slice expiry at 1ms (switch) + 30ms
        assert_eq!(m.now(), SimTime::from_micros(31_000));
        assert_eq!(m.task(TaskId(0)).remaining(), SimDuration::from_millis(70));
        // Re-dispatch the same task on the same core: warm, no extra costs.
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        assert_eq!(m.now(), SimTime::from_micros(31_000 + 70_000));
        let stats = m.core_stats(CoreId(0));
        assert_eq!(stats.ctx_switches, 1, "only the initial switch");
    }

    #[test]
    fn cold_resume_pays_restore_penalty() {
        let cfg = MachineConfig::new(2).with_cost(CostModel::from_micros(0, 5_000));
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(100),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), Some(SimDuration::from_millis(40)))
            .unwrap();
        m.advance().unwrap();
        // Resume on a different core: remaining 60ms + 5ms penalty.
        m.dispatch(CoreId(1), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let t = m.task(TaskId(0));
        assert_eq!(t.completion(), Some(SimTime::from_millis(105)));
        assert_eq!(t.cpu_time(), SimDuration::from_millis(105));
    }

    #[test]
    fn explicit_preempt_mid_run() {
        let mut m = one_task_machine(100);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // No event has fired yet, so now == 0; preempting immediately
        // yields zero progress.
        let got = m.preempt(CoreId(0)).unwrap();
        assert_eq!(got, TaskId(0));
        assert_eq!(m.task(TaskId(0)).remaining(), SimDuration::from_millis(100));
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Preempted);
        // The stale completion event is ignored.
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        loop {
            match m.advance().unwrap() {
                Some(PolicyCall::TaskFinished(..)) => break,
                Some(_) => continue,
                None => panic!("ended without completion"),
            }
        }
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Finished);
    }

    #[test]
    fn dispatch_errors() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        assert_eq!(
            m.dispatch(CoreId(9), TaskId(0), None),
            Err(SchedError::NoSuchCore(CoreId(9)))
        );
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(9), None),
            Err(SchedError::NoSuchTask(TaskId(9)))
        );
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::CoreBusy(CoreId(0)))
        );
        assert_eq!(m.preempt(CoreId(9)), Err(SchedError::NoSuchCore(CoreId(9))));
        m.advance().unwrap(); // completes
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::NotRunnable(TaskId(0)))
        );
        assert_eq!(
            m.preempt(CoreId(0)),
            Err(SchedError::NothingRunning(CoreId(0)))
        );
    }

    #[test]
    fn deadlock_detected_when_policy_strands_tasks() {
        let mut m = one_task_machine(10);
        m.advance().unwrap(); // arrival, but we never dispatch
        assert_eq!(m.advance(), Err(SimError::Deadlock { unfinished: 1 }));
    }

    #[test]
    fn message_log_records_protocol() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let kinds: Vec<&KernelMessage> = m.messages().iter().map(|(_, k)| k).collect();
        assert!(matches!(kinds[0], KernelMessage::TaskNew { .. }));
        assert!(matches!(kinds[1], KernelMessage::Dispatch { .. }));
        assert!(matches!(kinds[2], KernelMessage::TaskDead { .. }));
    }

    #[test]
    fn utilization_recorded_for_busy_interval() {
        let mut m = one_task_machine(500);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let u = m.utilization().bucket_utilization(0, 0);
        assert!((u - 0.5).abs() < 1e-9, "utilization was {u}");
    }

    #[test]
    fn io_wait_bills_but_frees_the_core() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 128)
                .with_io_wait(SimDuration::from_secs(60)),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        // Arrivals.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::TaskNew(_))));
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::TaskNew(_))));
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // CPU work of task 0 done at 1 ms: core freed, task blocked.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::Internal)));
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Blocked);
        // The second task runs to completion while the first waits.
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), _))
        ));
        // The waiting task finishes at 60.001 s.
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), _))
        ));
        let t = m.task(TaskId(0));
        assert_eq!(t.completion(), Some(SimTime::from_micros(60_001_000)));
        // Billing: execution (wall clock) is the full minute; CPU is 1 ms —
        // the paper's §I AWS Lambda example.
        assert_eq!(
            t.execution_time(),
            Some(SimDuration::from_micros(60_001_000))
        );
        assert_eq!(t.cpu_time(), SimDuration::from_millis(1));
    }

    #[test]
    fn streamed_specs_extend_a_paused_machine() {
        let mut m = one_task_machine(10);
        m.advance().unwrap(); // arrival
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // finish at 10 ms
        assert_eq!(m.advance().unwrap(), None, "all fed tasks finished");
        m.push_specs(vec![TaskSpec::function(
            SimTime::from_millis(50),
            SimDuration::from_millis(5),
            128,
        )]);
        assert_eq!(m.num_tasks(), 2);
        // Ids continue densely after the already-fed task.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::TaskNew(TaskId(1))));
        assert_eq!(m.now(), SimTime::from_millis(50));
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), CoreId(0)))
        );
        assert_eq!(
            m.task(TaskId(1)).completion(),
            Some(SimTime::from_millis(55))
        );
    }

    #[test]
    fn retire_finished_pops_only_the_finished_prefix() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // T0 arrival
        m.advance().unwrap(); // T1 arrival
        assert_eq!(m.retire_finished(|_| ()), 0, "nothing finished yet");
        // Finish T1 first: the unfinished T0 pins the retirement frontier.
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap();
        assert_eq!(m.retire_finished(|_| ()), 0, "T0 blocks the prefix");
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        let mut drained = Vec::new();
        assert_eq!(m.retire_finished(|t| drained.push(t)), 2);
        // Drained in task-id order, not completion order.
        assert_eq!(drained[0].completion(), Some(SimTime::from_millis(20)));
        assert_eq!(drained[1].completion(), Some(SimTime::from_millis(10)));
        // Totals still count the retired tasks; their records are gone.
        assert_eq!(m.num_tasks(), 2);
        assert_eq!(m.num_finished(), 2);
        assert_eq!(m.retire_finished(|_| ()), 0);
        assert_eq!(
            m.dispatch(CoreId(0), TaskId(0), None),
            Err(SchedError::NoSuchTask(TaskId(0)))
        );
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn push_specs_rejects_backdated_arrivals() {
        let mut m = one_task_machine(10);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // now = 10 ms
        m.push_specs(vec![TaskSpec::function(
            SimTime::from_millis(5),
            SimDuration::from_millis(1),
            128,
        )]);
    }

    #[test]
    fn deadline_cancels_running_task() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(30)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // arrival (schedules the cancel)
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // The cancel fires at 30 ms, before the 100 ms completion.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(30));
        let t = m.task(TaskId(0));
        assert!(t.is_cancelled());
        assert_eq!(t.completion(), None, "cancelled tasks are unbilled");
        assert_eq!(
            t.cpu_time(),
            SimDuration::from_millis(30),
            "progress accounted"
        );
        assert_eq!(m.core_state(CoreId(0)), CoreState::Idle);
        assert_eq!(m.num_cancelled(), 1);
        // Terminal: the machine pauses; the stale completion never fires live.
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn past_deadline_dispatch_cancels_with_zero_progress() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(50)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // T0 arrival
        m.advance().unwrap(); // T1 arrival (cancel armed at 50 ms)
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // T1's cancel fires at 50 ms while it is still queued: a no-op —
        // the policy owns queued tasks.
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::Internal));
        assert_eq!(m.task(TaskId(1)).state(), TaskState::Queued);
        // T0 finishes at 100 ms; dispatching T1 past its deadline re-arms
        // the cancel for this instant and it dies with zero progress.
        assert!(matches!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), _))
        ));
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(100));
        let t = m.task(TaskId(1));
        assert!(t.is_cancelled());
        assert_eq!(t.cpu_time(), SimDuration::ZERO);
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn deadline_at_the_completion_instant_cancels() {
        // The cancel armed at arrival holds an earlier insertion than the
        // completion the dispatch books for the same instant, so it fires
        // first: the task is cancelled, not finished.
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(100)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap(); // arrival (arms the cancel for 100 ms)
        m.dispatch(CoreId(0), TaskId(0), None).unwrap(); // completes at 100 ms
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(100));
        let t = m.task(TaskId(0));
        assert!(t.is_cancelled());
        assert_eq!(t.completion(), None);
        assert_eq!(m.num_cancelled(), 1);
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn past_deadline_arrival_cancels_at_once() {
        // T1 arrives at 20 ms, past its 5 ms deadline: its cancel is armed
        // for the arrival instant, after T0's completion (inserted
        // earlier), so T1 dispatched at once dies there with no progress.
        let cfg = MachineConfig::new(2).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(20), 128),
            TaskSpec::function(SimTime::from_millis(20), SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(5)),
        ];
        let mut m = Machine::new(cfg, specs);
        // T0 arrives and is dispatched to complete at 20 ms. At that
        // instant T1's arrival fires first, then the timers in insertion
        // order.
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        assert_eq!(m.advance().unwrap(), Some(PolicyCall::TaskNew(TaskId(1))));
        m.dispatch(CoreId(1), TaskId(1), None).unwrap();
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(1), CoreId(1)))
        );
        assert_eq!(m.now(), SimTime::from_millis(20));
        let t = m.task(TaskId(1));
        assert!(t.is_cancelled());
        assert_eq!(t.cpu_time(), SimDuration::ZERO);
        assert_eq!(m.num_cancelled(), 1);
        assert_eq!(m.advance().unwrap(), None);
    }

    #[test]
    fn deadline_cancels_blocked_task_and_voids_io_return() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(1), 128)
                .with_io_wait(SimDuration::from_secs(60))
                .with_deadline(SimTime::from_millis(500)),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // CPU done at 1 ms, task blocks on the external call.
        assert!(matches!(m.advance().unwrap(), Some(PolicyCall::Internal)));
        assert_eq!(m.task(TaskId(0)).state(), TaskState::Blocked);
        // Cancel fires at 500 ms, long before the 60 s wait returns.
        assert_eq!(
            m.advance().unwrap(),
            Some(PolicyCall::TaskFinished(TaskId(0), CoreId(0)))
        );
        assert_eq!(m.now(), SimTime::from_millis(500));
        assert!(m.task(TaskId(0)).is_cancelled());
        assert_eq!(m.advance().unwrap(), None, "void io return never delivers");
    }

    #[test]
    fn max_in_flight_tracks_peak_backlog() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(10), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        assert_eq!(m.max_in_flight(), 0);
        m.advance().unwrap();
        m.advance().unwrap();
        assert_eq!(m.max_in_flight(), 2, "two arrived, none finished");
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap();
        // The third arrives after both finished: backlog 1, peak stays 2.
        m.advance().unwrap();
        assert_eq!(m.max_in_flight(), 2);
    }

    #[test]
    fn retire_covers_cancelled_prefix() {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_deadline(SimTime::from_millis(10)),
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(5), 128),
        ];
        let mut m = Machine::new(cfg, specs);
        m.advance().unwrap();
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        m.advance().unwrap(); // cancel at 10 ms
        m.dispatch(CoreId(0), TaskId(1), None).unwrap();
        m.advance().unwrap(); // T1 finishes
        let mut drained = Vec::new();
        assert_eq!(m.retire_finished(|t| drained.push(t)), 2);
        assert!(drained[0].is_cancelled());
        assert_eq!(drained[1].completion(), Some(SimTime::from_millis(15)));
        assert_eq!(m.num_cancelled(), 1, "monotonic across retirement");
    }

    #[test]
    fn interference_occupies_idle_core_and_preempts_running() {
        let icfg = InterferenceConfig {
            mean_interval: SimDuration::from_millis(50),
            duration: SimDuration::from_millis(10),
        };
        let cfg = MachineConfig::new(1)
            .with_cost(CostModel::free())
            .with_interference(icfg)
            .with_seed(7);
        let mut m = Machine::new(
            cfg,
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(1),
                128,
            )],
        );
        m.advance().unwrap();
        m.dispatch(CoreId(0), TaskId(0), None).unwrap();
        // Run until the task gets interference-preempted at least once.
        let mut preempted = false;
        for _ in 0..100 {
            match m.advance().unwrap() {
                Some(PolicyCall::InterferencePreempt(t, c)) => {
                    preempted = true;
                    assert_eq!(t, TaskId(0));
                    assert_eq!(m.core_state(c), CoreState::Interference);
                    break;
                }
                Some(PolicyCall::TaskFinished(..)) | None => break,
                Some(_) => continue,
            }
        }
        assert!(preempted, "task should get interference-preempted");
    }
}
