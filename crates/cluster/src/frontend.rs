//! The front-end load tracker and the dispatch assignment pass.
//!
//! A real FaaS front end does not see inside each node's OS scheduler; it
//! tracks what it dispatched and estimates what has drained. [`FrontEnd`]
//! models exactly that observable state: per machine, a work-conserving
//! FCFS estimate of when each dispatched invocation completes (the same
//! estimator family as `microvm-sim`'s memory-admission backlog model).
//! Dispatch policies read this state through [`DispatchCtx`]; they never
//! see ground truth from the per-machine kernels, which keeps phase 1
//! (dispatch) independent of phase 2 (machine simulation) — and therefore
//! lets the M machine runs fan across threads with byte-identical output
//! at any fan width.

use faas_kernel::TaskSpec;
use faas_metrics::{ChaosStats, HealthStats, MachineHealth, OverloadStats};
use faas_simcore::{EventQueue, FxHashMap, IndexedMinHeap, MinHeap4, SimDuration, SimRng, SimTime};
use lambda_pricing::CostAccumulator;

use crate::chaos::{Autoscaler, BackoffConfig, ChaosConfig, Fault, RetryEntry, ScaleDecision};
use crate::dispatch::Dispatch;
use crate::health::HealthTracker;
use crate::middleware::{Admission, Overload};
use crate::{ClusterConfig, ClusterTask};

/// Front-end-visible load state of one machine.
struct MachineLoad {
    /// Estimated instant (µs) each core frees under FCFS draining; always
    /// exactly `cores` entries.
    free_cores: MinHeap4<u64>,
    /// Dispatched-but-not-yet-drained invocation count. The completion
    /// instants themselves live in the front end's *global* completion
    /// heap, so one arrival drains O(completions due) instead of walking
    /// every machine.
    outstanding: u32,
    /// Bumped whenever this machine's booked completions are voided
    /// wholesale (crash, scale-up reset); completion-heap entries from an
    /// older epoch are skipped at pop time instead of being searched out.
    epoch: u32,
    /// Total invocations dispatched to this machine so far.
    dispatched: u64,
}

impl MachineLoad {
    fn new(cores: usize) -> Self {
        let mut free_cores = MinHeap4::new();
        for _ in 0..cores {
            free_cores.push(0);
        }
        MachineLoad {
            free_cores,
            outstanding: 0,
            epoch: 0,
            dispatched: 0,
        }
    }

    /// Accounts one dispatched invocation of `work_us` CPU work (plus
    /// `io_us` off-CPU tail) arriving at `now_us`; returns the estimated
    /// completion instant.
    fn push_work(&mut self, now_us: u64, work_us: u64, io_us: u64) -> u64 {
        let free = self.free_cores.pop_min().expect("machine has cores");
        let start = free.max(now_us);
        let cpu_done = start + work_us;
        self.free_cores.push(cpu_done);
        let completion = cpu_done + io_us;
        self.outstanding += 1;
        self.dispatched += 1;
        completion
    }
}

/// Read-only view of the front end handed to a [`Dispatch`] policy for
/// one placement decision.
pub struct DispatchCtx<'a> {
    /// Arrival instant of the invocation being placed.
    pub now: SimTime,
    /// Function identity of the invocation (drives warmth/locality).
    pub function: u64,
    /// The invocation's own duration — CPU work plus billed I/O tail,
    /// before any cold-boot folding (see
    /// [`DispatchCtx::est_completion`]).
    pub duration: SimDuration,
    front: &'a FrontEnd,
    /// Restricted candidate list (health ejections, retry crash-site
    /// avoidance), ascending: the policy's machine indices become indices
    /// into this list. `None` — the common case — is the identity mapping
    /// over the active prefix, so a run without exclusions is
    /// bit-identical to one without the health layer.
    cand: Option<&'a [usize]>,
    /// `true` when the front end's dispatch heaps hold exactly the
    /// machines this placement may choose from, so the least-load picks
    /// answer from them; `false` on the two per-dispatch paths (a retry
    /// avoiding its crash site, every active machine excluded), which
    /// scan.
    heaps: bool,
}

impl DispatchCtx<'_> {
    /// Maps a policy-visible candidate index to the physical machine.
    #[inline]
    fn phys(&self, machine: usize) -> usize {
        self.cand.map_or(machine, |c| c[machine])
    }

    /// Maps a physical machine drawn from the dispatch heaps back to its
    /// candidate index: a binary search, the list being ascending.
    #[inline]
    fn index_of(&self, machine: usize) -> usize {
        self.cand.map_or(machine, |c| {
            c.binary_search(&machine)
                .expect("the dispatch heaps hold only candidates")
        })
    }

    /// Number of machines this placement may choose from. Without an
    /// autoscaler or health exclusions this is the full fleet size; with
    /// an autoscaler, the current active prefix; with exclusions, the
    /// surviving candidates — policies only ever place work on machine
    /// indices `0..machines()`, which the front end maps back to
    /// physical machines.
    pub fn machines(&self) -> usize {
        self.cand.map_or(self.front.active, <[usize]>::len)
    }

    /// Dispatched-but-not-yet-drained invocation count on `machine`
    /// (front-end estimate, see module docs).
    pub fn outstanding(&self, machine: usize) -> usize {
        self.front.loads[self.phys(machine)].outstanding as usize
    }

    /// Cores per machine — the natural unit for "how overloaded is a
    /// machine" thresholds (e.g. keep-alive spill margins).
    pub fn cores(&self) -> usize {
        self.front.cores
    }

    /// Estimated queueing delay a task dispatched to `machine` right now
    /// would see before starting (0 while the machine has a free core in
    /// the FCFS drain estimate). Unlike [`DispatchCtx::outstanding`],
    /// this is in *time* units, so a few heavy invocations and many light
    /// ones compare correctly.
    pub fn est_wait(&self, machine: usize) -> SimDuration {
        self.front.est_wait(self.phys(machine), self.now)
    }

    /// The boot cost a cold dispatch would pay under the cluster's
    /// cold-start model (zero when the model is disabled) — the budget a
    /// locality policy weighs queueing delay against.
    pub fn cold_boot_work(&self) -> SimDuration {
        self.front.cold_boot_work()
    }

    /// The machine with the smallest [`DispatchCtx::est_wait`] (lowest
    /// index on ties). Dispatches over the candidate set answer from the
    /// front end's wait heaps, which hold exactly that set, in O(1) (plus
    /// an O(log M) index lookup when the set is restricted): the idle
    /// heap is keyed by machine index, so the winner among zero-wait
    /// machines is the lowest index — exactly the scan's first-seen
    /// tie-break, the candidate list being ascending — and the busy heap
    /// bakes the same tie-break into its `(free_min, machine)` key.
    pub fn least_wait(&self) -> usize {
        if self.heaps {
            if let Some((m, _)) = self.front.idle_heap.peek_min() {
                return self.index_of(m);
            }
            if let Some((m, _)) = self.front.busy_heap.peek_min() {
                return self.index_of(m);
            }
        }
        self.least_wait_of(0..self.machines())
            .expect("cluster has machines")
    }

    /// [`DispatchCtx::least_wait`] restricted to `candidates` (first-seen
    /// index wins ties); `None` if `candidates` is empty. This linear
    /// scan is the reference semantics the heap-backed fast path above
    /// must reproduce bit-for-bit — the differential suites compare the
    /// two directly.
    pub fn least_wait_of(&self, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut best: Option<(usize, SimDuration)> = None;
        for m in candidates {
            let wait = self.est_wait(m);
            if best.is_none_or(|(_, b)| wait < b) {
                best = Some((m, wait));
            }
        }
        best.map(|(m, _)| m)
    }

    /// Total invocations dispatched to `machine` so far.
    pub fn dispatched(&self, machine: usize) -> u64 {
        self.front.loads[self.phys(machine)].dispatched
    }

    /// `true` if `machine` holds a warm instance of this invocation's
    /// function (a prior invocation whose keep-alive window covers `now`).
    /// Always `false` when the cluster runs without a cold-start model.
    pub fn is_warm(&self, machine: usize) -> bool {
        self.front
            .is_warm(self.phys(machine), self.function, self.now)
    }

    /// Estimated completion instant of the current invocation if
    /// dispatched to `machine` right now: arrival + queueing estimate
    /// ([`DispatchCtx::est_wait`]) + cold boot when no warm instance is
    /// idle + the invocation's own duration. This matches the front end's
    /// own FCFS backlog accounting exactly, and is the one estimator
    /// shared by the timeout middleware's shed predicate and
    /// [`KeepAliveDispatch`](crate::dispatch::KeepAliveDispatch)'s spill
    /// budget.
    pub fn est_completion(&self, machine: usize) -> SimTime {
        self.front
            .est_completion(self.phys(machine), self.function, self.now, self.duration)
    }

    /// [`DispatchCtx::est_completion`] charged a boot unconditionally —
    /// the give-up-on-warmth completion bound a locality policy compares
    /// its warm candidates against.
    pub fn est_completion_after_boot(&self, machine: usize) -> SimTime {
        self.now + self.est_wait(machine) + self.cold_boot_work() + self.duration
    }

    /// The machine with the fewest outstanding invocations (lowest index
    /// on ties) — the shared building block of the load-aware policies.
    /// Dispatches over the candidate set answer from the front end's
    /// outstanding heap like [`DispatchCtx::least_wait`]; its
    /// `(count, machine)` key reproduces the scan's first-seen tie-break
    /// exactly.
    pub fn least_outstanding(&self) -> usize {
        if self.heaps {
            if let Some((m, _)) = self.front.out_heap.peek_min() {
                return self.index_of(m);
            }
        }
        self.least_outstanding_of(0..self.machines())
            .expect("cluster has machines")
    }

    /// [`DispatchCtx::least_outstanding`] restricted to `candidates`
    /// (first-seen index wins ties); `None` if `candidates` is empty.
    /// Like [`DispatchCtx::least_wait_of`], this scan is the reference
    /// the heap fast path is differentially tested against.
    pub fn least_outstanding_of(
        &self,
        candidates: impl IntoIterator<Item = usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for m in candidates {
            let load = self.outstanding(m);
            if best.is_none_or(|(_, b)| load < b) {
                best = Some((m, load));
            }
        }
        best.map(|(m, _)| m)
    }

    /// The machines that could plausibly serve this invocation warm,
    /// ascending, filtered to the ones actually holding an **idle,
    /// unexpired** instance of the function. Ascending order makes
    /// downstream first-seen tie-breaks match a full fleet scan. Walks
    /// the front end's warm-site index (machines with a non-empty
    /// instance pool for this function, ascending) filtered to this
    /// placement's candidates, instead of the whole candidate list.
    pub fn warm_candidates(&self) -> impl Iterator<Item = usize> + '_ {
        self.front
            .warm_sites
            .get(&self.function)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .filter_map(move |&m| {
                let m = m as usize;
                match self.cand {
                    None => (m < self.front.active).then_some(m),
                    Some(c) => c.binary_search(&m).ok(),
                }
            })
            .filter(|&m| self.is_warm(m))
    }
}

/// The serial dispatch pass: walks the arrival stream in timestamp order,
/// asks the policy for a machine per invocation, applies the cold-start
/// model and maintains the load estimates.
pub struct FrontEnd {
    loads: Vec<MachineLoad>,
    /// Cores per machine (exposed via [`DispatchCtx::cores`]).
    cores: usize,
    /// Latest arrival dispatched so far — carried across
    /// [`FrontEnd::dispatch_chunk`] calls so a chunked feed enforces the
    /// same global sorted-stream contract as one pass over the whole
    /// stream.
    last_arrival: SimTime,
    /// `(machine, function) → pool of instance busy-until instants (µs)`.
    /// One entry per live function instance: an instance serves **one**
    /// invocation at a time, is reusable while idle
    /// (`busy_until ≤ now`), and expires `keep_alive` after it last went
    /// idle. Concurrent same-function invocations therefore each need
    /// their own instance — a burst of N overlapping calls pays up to N
    /// boots, like a real per-request-instance FaaS platform, not one.
    pools: FxHashMap<(u32, u64), MinHeap4<u64>>,
    cold: Option<crate::ColdStartConfig>,
    /// Overload-middleware state (`None` without middleware). Lives here
    /// — not in [`Assignment`] — so buckets, breaker windows and shed
    /// counters fold across [`FrontEnd::dispatch_chunk`] calls exactly
    /// like the load estimates do, making every middleware decision
    /// independent of how the stream was chunked.
    overload: Option<Overload>,
    /// Machines `0..active` take new work; the rest are either drained
    /// spares (autoscaler) or not yet booted. Equals `loads.len()` without
    /// an autoscaler.
    active: usize,
    /// Per-machine arrival floor (µs): the earliest instant the machine
    /// can receive a spec — pushed forward by crash downtime and scale-up
    /// boot lag. Only ever max-monotone, so per-machine feeds stay sorted.
    available_at: Vec<u64>,
    /// Fault-injection state (empty without a [`ChaosConfig`]). Like the
    /// middleware, it folds serially across chunks, which is what keeps
    /// chaos bitwise-invariant to fan width and chunking.
    chaos: ChaosFold,
    /// Elastic-fleet controller (`None` for a fixed fleet).
    scaler: Option<Autoscaler>,
    /// Crash/retry/scale ledger (all-zero without chaos or autoscaling).
    stats: ChaosStats,
    /// Node-health feedback state (`None` without a
    /// [`HealthConfig`](crate::HealthConfig)). Another serial fold:
    /// completion reports, ejection decisions and hedge triggers all
    /// digest in arrival order, chunk- and fan-invariant.
    health: Option<HealthTracker>,
    /// High-water mark of the fold's arrival clock (µs) — the "as of"
    /// instant for the health snapshot's open ejection spans.
    clock_us: u64,
    /// Booked completion instants fleet-wide: `(completion_us, machine,
    /// epoch)`. One global heap replaces M per-machine drains per
    /// arrival; entries whose machine has since crashed or been reset
    /// carry a stale epoch and are skipped at pop time.
    completions: MinHeap4<(u64, u32, u32)>,
    /// Candidates (see [`FrontEnd::is_candidate`]) keyed by
    /// `(outstanding, machine)`: the least-outstanding pick is a peek,
    /// with the scan's lowest-index tie-break baked into the key.
    out_heap: IndexedMinHeap<(u32, u32)>,
    /// Candidates whose FCFS head is still in the future, keyed by
    /// `(free_min_us, machine)`.
    busy_heap: IndexedMinHeap<(u64, u32)>,
    /// Candidates with a free core at the fold clock, keyed by machine
    /// index — the least-wait winner among zero-wait machines is the
    /// lowest index, exactly the scan's first-seen tie-break.
    idle_heap: IndexedMinHeap<u32>,
    /// Σ outstanding over the active prefix — the autoscaler's load
    /// signal, maintained incrementally instead of re-summed per tick.
    active_outstanding: u64,
    /// The candidate set as an ascending list — what a policy indexes
    /// while some active machine is excluded. Rebuilt only when
    /// candidacy or the active prefix changes (see
    /// [`FrontEnd::sync_candidates`]).
    cand_list: Vec<usize>,
    /// The active prefix `cand_list` was built for.
    cand_active: usize,
    /// Reusable buffer for a candidate list built for one dispatch (a
    /// retry avoiding its crash site), so the dispatch hot path
    /// allocates nothing in steady state.
    cand_scratch: Vec<usize>,
    /// `function → machines with a non-empty instance pool`, ascending.
    /// The locality policy's warm scan visits only plausible sites
    /// instead of the whole fleet; pool expiry is still checked exactly.
    warm_sites: FxHashMap<u64, Vec<u32>>,
    /// Deterministic work counts (see [`FoldCounters`]).
    counters: FoldCounters,
}

/// Deterministic work counts of the front-end fold: which candidate path
/// each policy pick took, and how often the fold paid a pass over the
/// whole active prefix. They repeat exactly for a given input and
/// configuration, so a test can pin them where wall-clock timings would
/// drown in host noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldCounters {
    /// Policy picks over the cached candidate list (some active machine
    /// excluded), answered from the dispatch heaps.
    pub restricted: u64,
    /// Policy picks whose candidate list was built for that one dispatch
    /// and scanned: a retry avoiding its crash site, or every active
    /// machine excluded.
    pub built: u64,
    /// Rebuilds of the cached candidate list.
    pub rebuilds: u64,
    /// Scans of the whole active prefix for SLO-epoch resolution.
    pub epoch_scans: u64,
}

/// The machines a policy pick chooses from, and what answers its
/// least-load queries.
#[derive(Clone, Copy)]
enum View {
    /// The whole active prefix, which is exactly the candidate set: the
    /// dispatch heaps answer.
    Full,
    /// The cached candidate list: the dispatch heaps answer.
    Cached,
    /// `cand_scratch`, built for this pick: scans answer.
    Built,
    /// The whole active prefix although it holds excluded machines
    /// (placing somewhere beats placing nowhere): scans answer.
    Fallback,
}

/// Front-end-resident state of the fault-injection layer, pre-split from
/// the [`FaultPlan`](crate::FaultPlan) into the shapes the hot path needs.
struct ChaosFold {
    /// Crash schedule `(at_us, machine, down_us)`, time-sorted; `cursor`
    /// marks the first crash not yet applied to the load state.
    crashes: Vec<(u64, usize, u64)>,
    cursor: usize,
    /// Per-machine crash instants for the dispatch-time doom check, each
    /// with its own cursor (per-machine probe instants are monotone).
    /// This and the straggler lists are empty without a chaos config, so
    /// a chaos-free dispatch reads no per-machine fault state.
    crash_at: Vec<Vec<u64>>,
    crash_cur: Vec<usize>,
    /// Per-machine straggler windows `(start_us, end_us, slowdown)`,
    /// start-sorted, with advancing cursors.
    straggle: Vec<Vec<(u64, u64, f64)>>,
    straggle_cur: Vec<usize>,
    /// Crashed invocations awaiting re-dispatch, keyed by retry instant
    /// (FIFO on ties, so replay order is deterministic).
    retries: EventQueue<RetryEntry>,
    /// Re-dispatch attempts allowed per invocation (`None` = unlimited).
    max_retries: Option<u32>,
    /// SLO bound for recovery epochs, in µs (`None` disables tracking).
    slo_us: Option<u64>,
    /// Crash instants whose SLO-recovery epoch is still open.
    pending_epochs: Vec<u64>,
    /// The machine whose estimated wait last exceeded the SLO: while it
    /// still does, no epoch can close (see `FrontEnd::resolve_epochs`).
    slo_witness: Option<usize>,
    /// Dollar ledgers of doomed attempts and of abandonments, in that
    /// order.
    churn: Option<(CostAccumulator, CostAccumulator)>,
    /// Retry-backoff config and its jitter stream, consumed in fold
    /// order (`None` re-dispatches at the crash instant).
    backoff: Option<(BackoffConfig, SimRng)>,
    /// Retries that waited out a backoff delay.
    backoff_retries: u64,
    /// Total injected backoff delay (µs).
    backoff_delay_us: u64,
}

impl ChaosFold {
    /// Splits `cfg`'s fault plan into the hot-path shapes, counting its
    /// straggler and storm events into `stats`. Without a config the fold
    /// is empty: nothing dooms, straggles or queues for retry, which is
    /// bitwise the bare front end (pinned by `chaos_differential.rs`).
    fn new(cfg: Option<&ChaosConfig>, machines: usize, stats: &mut ChaosStats) -> Self {
        let per_machine = cfg.map_or(0, |_| machines);
        let mut crashes = Vec::new();
        let mut crash_at = vec![Vec::new(); per_machine];
        let mut straggle = vec![Vec::new(); per_machine];
        for e in cfg.map_or(&[][..], |c| c.plan.events()) {
            match e.fault {
                Fault::Crash { down } => {
                    crashes.push((e.at.as_micros(), e.machine, down.as_micros()));
                    crash_at[e.machine].push(e.at.as_micros());
                }
                Fault::Straggle { duration, slowdown } => {
                    stats.stragglers += 1;
                    straggle[e.machine].push((
                        e.at.as_micros(),
                        (e.at + duration).as_micros(),
                        slowdown,
                    ));
                }
                // Storms modulate the kernel's interference draws; the
                // router neither sees nor reacts to them (see
                // `ClusterConfig::machine_config`).
                Fault::Storm { .. } => stats.storms += 1,
            }
        }
        ChaosFold {
            crashes,
            cursor: 0,
            crash_at,
            crash_cur: vec![0; per_machine],
            straggle,
            straggle_cur: vec![0; per_machine],
            retries: EventQueue::new(),
            max_retries: cfg.and_then(|c| c.max_retries),
            slo_us: cfg.and_then(|c| c.slo).map(|s| s.as_micros()),
            pending_epochs: Vec::new(),
            slo_witness: None,
            churn: cfg
                .and_then(|c| c.price)
                .map(|p| (CostAccumulator::new(p), CostAccumulator::new(p))),
            backoff: cfg.and_then(|c| c.backoff).map(|b| (b, b.stream())),
            backoff_retries: 0,
            backoff_delay_us: 0,
        }
    }
}

/// One booked attempt of an invocation — the primary or its hedge copy —
/// as it passes through the fold's stages.
struct Booking {
    machine: usize,
    /// The spec its kernel will see: cold boot folded in by `book`,
    /// arrival floor and straggle applied by `land`.
    spec: TaskSpec,
    /// The router's FCFS completion estimate (µs), never straggle-scaled.
    completion: u64,
    /// Straggle inflation (µs) added by `land`: the completion report
    /// describes `completion + extra_us`.
    extra_us: u64,
}

/// The output of the dispatch pass: one spec list per machine (cold-start
/// boot work already folded in) plus dispatch statistics.
pub struct Assignment {
    /// Task specs per machine, in that machine's arrival order.
    pub per_machine: Vec<Vec<TaskSpec>>,
    /// Number of invocations that paid the cold-start boot cost.
    pub cold_starts: u64,
}

impl FrontEnd {
    /// A front end over the fleet described by `cfg`.
    pub fn new(cfg: &ClusterConfig) -> Self {
        let mut stats = ChaosStats::default();
        let chaos = ChaosFold::new(cfg.chaos.as_ref(), cfg.machines, &mut stats);
        let scaler = cfg.autoscale.map(|a| Autoscaler::new(a, cfg.machines));
        let active = scaler
            .as_ref()
            .map_or(cfg.machines, Autoscaler::min_machines);
        if scaler.is_some() {
            stats.peak_active = active as u64;
        }
        let mut fe = FrontEnd {
            loads: (0..cfg.machines)
                .map(|_| MachineLoad::new(cfg.machine.cores))
                .collect(),
            cores: cfg.machine.cores,
            last_arrival: SimTime::ZERO,
            pools: FxHashMap::default(),
            cold: cfg.cold_start,
            overload: cfg.overload.clone().map(Overload::new),
            active,
            available_at: vec![0; cfg.machines],
            chaos,
            scaler,
            stats,
            health: cfg
                .health
                .map(|h| HealthTracker::new(h, cfg.machines, active)),
            clock_us: 0,
            completions: MinHeap4::new(),
            out_heap: IndexedMinHeap::new(),
            busy_heap: IndexedMinHeap::new(),
            idle_heap: IndexedMinHeap::new(),
            active_outstanding: 0,
            cand_list: (0..active).collect(),
            cand_active: active,
            cand_scratch: Vec::new(),
            warm_sites: FxHashMap::default(),
            counters: FoldCounters::default(),
        };
        // Every active machine starts a candidate, idle (all cores free
        // at t = 0) with nothing outstanding.
        for m in 0..fe.active {
            fe.out_heap.set(m, (0, m as u32));
            fe.idle_heap.set(m, m as u32);
        }
        fe
    }

    /// Number of machines currently taking new work.
    pub fn active_machines(&self) -> usize {
        self.active
    }

    /// The fold's work counts so far (see [`FoldCounters`]).
    pub fn fold_counters(&self) -> FoldCounters {
        self.counters
    }

    /// The chaos ledger so far — crash/retry/scale counters plus the
    /// dollar churn total. All-zero without a fault plan or autoscaler.
    /// `unrecovered` is only final after [`FrontEnd::finish`].
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut stats = self.stats;
        if let Some((retry, abandoned)) = &self.chaos.churn {
            stats.churn_cost_usd = retry.total_usd() + abandoned.total_usd();
        }
        stats
    }

    /// The node-health ledger so far — ejection/probe/hedge counters
    /// (plus the chaos layer's backoff totals) and the per-machine health
    /// columns. All-zero/empty without a health tracker; machines still
    /// ejected have their open span counted up to the fold's clock.
    pub fn health_stats(&self) -> (HealthStats, Vec<MachineHealth>) {
        let (mut stats, machines) = self
            .health
            .as_ref()
            .map(|h| h.snapshot(self.clock_us))
            .unwrap_or_default();
        stats.backoff_retries = self.chaos.backoff_retries;
        stats.backoff_delay_total = SimDuration::from_micros(self.chaos.backoff_delay_us);
        (stats, machines)
    }

    /// The overload middleware's shed ledger so far — all-zero without
    /// middleware. `kernel_cancelled` is always zero here: in-flight
    /// cancellations happen inside the machines, beyond the router's
    /// information boundary, and are filled in at report assembly.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload
            .as_ref()
            .map_or_else(OverloadStats::default, Overload::stats)
    }

    /// Estimated queueing delay before a dispatch to `machine` at `now`
    /// starts (see [`DispatchCtx::est_wait`]).
    #[inline]
    fn est_wait(&self, machine: usize, now: SimTime) -> SimDuration {
        let free = *self.loads[machine]
            .free_cores
            .peek_min()
            .expect("machine has cores");
        SimDuration::from_micros(free.saturating_sub(now.as_micros()))
    }

    /// The boot cost of a cold dispatch (zero without a cold-start model).
    #[inline]
    fn cold_boot_work(&self) -> SimDuration {
        self.cold.map_or(SimDuration::ZERO, |c| c.boot_work)
    }

    /// The one completion estimator, behind the timeout stage and
    /// [`DispatchCtx::est_completion`]. Always inlined: locality policies
    /// call it once per warm candidate, and an out-of-line call here
    /// keeps their candidate scans from inlining (measured on the
    /// `frontend_scale` rows).
    #[inline(always)]
    fn est_completion(
        &self,
        machine: usize,
        function: u64,
        now: SimTime,
        duration: SimDuration,
    ) -> SimTime {
        let boot = if self.is_warm(machine, function, now) {
            SimDuration::ZERO
        } else {
            self.cold_boot_work()
        };
        now + self.est_wait(machine, now) + boot + duration
    }

    /// `true` if `machine` has an **idle, unexpired** instance of
    /// `function` — only such an instance can absorb a new invocation
    /// without a boot (busy instances are serving someone else).
    #[inline]
    fn is_warm(&self, machine: usize, function: u64, now: SimTime) -> bool {
        let Some(c) = self.cold else { return false };
        let ka = c.keep_alive.as_micros();
        let now_us = now.as_micros();
        self.pools
            .get(&(machine as u32, function))
            .is_some_and(|pool| pool.iter().any(|&b| b <= now_us && now_us < b + ka))
    }

    /// Runs the dispatch pass over `tasks` (must be sorted by arrival;
    /// trace synthesis produces exactly that). The next chunk continues
    /// from the same load estimates, warm pools and arrival floor, so
    /// chunked dispatch of a stream is decision-for-decision identical to
    /// one call over its concatenation — the front end is a pure fold
    /// over the arrival sequence.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are out of order (across chunks too) or the
    /// policy picks a machine index out of range.
    pub fn dispatch_chunk<D: Dispatch + ?Sized>(
        &mut self,
        tasks: &[ClusterTask],
        policy: &mut D,
    ) -> Assignment {
        let mut out = self.empty_assignment();
        for task in tasks {
            let now = task.spec.arrival;
            assert!(now >= self.last_arrival, "arrival stream must be sorted");
            self.last_arrival = now;
            let now_us = now.as_micros();
            self.advance_to(now_us, policy, &mut out);
            self.autoscale_check(now_us);
            self.resolve_epochs(now_us);
            self.dispatch_one(task, now_us, 0, None, policy, &mut out);
        }
        out
    }

    /// Replays everything the fault layer still owes after the last
    /// arrival: remaining scheduled crashes and queued re-dispatches, in
    /// time order. Retries still ride the monotone arrival clock
    /// (`max(retry_at, last_arrival)`), and a crash due by a retry's
    /// dispatch instant is applied first — exactly the mid-stream
    /// ordering. Returns the extra per-machine specs (all-empty without
    /// chaos); call it exactly once, after the final `dispatch_chunk`.
    pub fn finish<D: Dispatch + ?Sized>(&mut self, policy: &mut D) -> Assignment {
        let mut out = self.empty_assignment();
        while let Some(at) = self.chaos.retries.peek_time() {
            let now_us = at.as_micros().max(self.last_arrival.as_micros());
            self.advance_to(now_us, policy, &mut out);
            self.last_arrival = SimTime::from_micros(now_us);
            self.resolve_epochs(now_us);
        }
        // Trailing crashes past the last dispatch still count (and can
        // open epochs that now have no chance to close).
        self.advance_crashes(u64::MAX);
        self.stats.unrecovered += self.chaos.pending_epochs.len() as u64;
        self.chaos.pending_epochs.clear();
        // Completion reports still in flight fold now: the final
        // telemetry describes every completion the router booked, even
        // the ones landing after the last arrival. (Nothing dispatches
        // after this, so late ejections change counters, not decisions.)
        if let Some(h) = &mut self.health {
            h.advance_to(u64::MAX);
        }
        out
    }

    fn empty_assignment(&self) -> Assignment {
        Assignment {
            per_machine: (0..self.loads.len()).map(|_| Vec::new()).collect(),
            cold_starts: 0,
        }
    }

    /// Brings the fold up to `now_us`: applies every crash due by now,
    /// drains the completion estimates, then re-dispatches every retry
    /// that has come due. Retries dispatch *at* `now_us` — they ride the
    /// arrival clock rather than their own enqueue instant, so the
    /// per-machine spec feeds stay sorted no matter how the stream is
    /// chunked.
    fn advance_to<D: Dispatch + ?Sized>(
        &mut self,
        now_us: u64,
        policy: &mut D,
        out: &mut Assignment,
    ) {
        self.clock_us = self.clock_us.max(now_us);
        self.advance_crashes(now_us);
        // Booked completions due by now drain from the global heap —
        // O(log) per completion rather than O(machines) per arrival.
        // Entries from a pre-crash / pre-reset epoch describe voided
        // bookings; they drain here as no-ops.
        while self
            .completions
            .peek_min()
            .is_some_and(|&(t, _, _)| t <= now_us)
        {
            let (_, m, epoch) = self.completions.pop_min().expect("peeked above");
            let m = m as usize;
            if self.loads[m].epoch == epoch {
                self.loads[m].outstanding -= 1;
                if m < self.active {
                    self.active_outstanding -= 1;
                }
                if self.is_candidate(m) {
                    self.out_heap.set(m, (self.loads[m].outstanding, m as u32));
                }
            }
        }
        // Machines whose FCFS backlog has drained promote busy → idle,
        // keeping `least_wait` an O(1) peek.
        while let Some((m, &(free, _))) = self.busy_heap.peek_min() {
            if free > now_us {
                break;
            }
            self.busy_heap.remove(m);
            self.idle_heap.set(m, m as u32);
        }
        // Completion reports due by now reach the tracker before any
        // retry or arrival dispatches at this instant — delayed feedback,
        // folded in deterministic report order.
        if let Some(h) = &mut self.health {
            h.advance_to(now_us);
        }
        while let Some(entry) = self.due_retry(now_us) {
            self.dispatch_one(
                &entry.task,
                now_us,
                entry.attempts,
                entry.avoid,
                policy,
                out,
            );
        }
    }

    /// Applies every scheduled crash at or before `now_us`.
    fn advance_crashes(&mut self, now_us: u64) {
        while let Some(&(at, machine, down)) = self.chaos.crashes.get(self.chaos.cursor) {
            if at > now_us {
                break;
            }
            self.chaos.cursor += 1;
            self.apply_crash(machine, at, down);
        }
    }

    /// A machine dies: all in-flight work is lost (the doomed invocations
    /// were already routed to the retry queue at dispatch time) and the
    /// router's view of it resets until the downtime ends.
    fn apply_crash(&mut self, machine: usize, at_us: u64, down_us: u64) {
        let until = at_us + down_us;
        self.reset_machine(machine, until);
        self.stats.crashes += 1;
        if let Some(h) = &mut self.health {
            h.note_crash(machine, until, at_us);
        }
        if self.chaos.slo_us.is_some() && machine < self.active {
            self.chaos.pending_epochs.push(at_us);
        }
    }

    /// Voids everything the router booked on `machine` until `ready_us`:
    /// the one reset behind a crash (end of downtime) and a scale-up (end
    /// of boot lag). The arrival floor moves to `ready_us` too, so the
    /// kernel feed stays sorted.
    fn reset_machine(&mut self, machine: usize, ready_us: u64) {
        self.available_at[machine] = self.available_at[machine].max(ready_us);
        let load = &mut self.loads[machine];
        load.free_cores.clear();
        for _ in 0..self.cores {
            load.free_cores.push(ready_us);
        }
        // Void the booked completions wholesale: the epoch bump turns
        // this machine's completion-heap entries into no-ops at pop.
        load.epoch += 1;
        let lost = load.outstanding;
        load.outstanding = 0;
        if machine < self.active {
            self.active_outstanding -= u64::from(lost);
        }
        self.refile(machine);
        // Neither pass depends on the maps' iteration order.
        self.pools.retain(|&(m, _), _| m as usize != machine);
        for sites in self.warm_sites.values_mut() {
            if let Ok(pos) = sites.binary_search(&(machine as u32)) {
                sites.remove(pos);
            }
        }
    }

    /// The one membership predicate of the dispatch heaps: `machine` is
    /// in the active prefix and not excluded by the health layer. Every
    /// heap writer tests it.
    #[inline]
    fn is_candidate(&self, machine: usize) -> bool {
        machine < self.active && !self.health.as_ref().is_some_and(|h| h.excluded(machine))
    }

    /// Re-files `machine` in all three dispatch heaps from its current
    /// outstanding count and FCFS head against the fold clock if it is a
    /// candidate, or takes it out of them if it is not.
    fn refile(&mut self, machine: usize) {
        if self.is_candidate(machine) {
            let outstanding = self.loads[machine].outstanding;
            self.out_heap.set(machine, (outstanding, machine as u32));
            self.refresh_wait(machine, self.clock_us);
        } else {
            self.out_heap.remove(machine);
            self.busy_heap.remove(machine);
            self.idle_heap.remove(machine);
        }
    }

    /// Re-files a candidate `machine` in the wait heaps after its FCFS
    /// head moved (dispatch booking, machine reset, readmission). `now_us`
    /// must be the fold clock the idle/busy partition is defined against.
    fn refresh_wait(&mut self, machine: usize, now_us: u64) {
        let free = *self.loads[machine]
            .free_cores
            .peek_min()
            .expect("machine has cores");
        if free <= now_us {
            self.busy_heap.remove(machine);
            self.idle_heap.set(machine, machine as u32);
        } else {
            self.idle_heap.remove(machine);
            self.busy_heap.set(machine, (free, machine as u32));
        }
    }

    /// Pops the next retry due at or before `now_us`, if any.
    fn due_retry(&mut self, now_us: u64) -> Option<RetryEntry> {
        if self.chaos.retries.peek_time()?.as_micros() <= now_us {
            self.chaos.retries.pop().map(|(_, entry)| entry)
        } else {
            None
        }
    }

    /// One autoscaler observation. Scale-up boots the next spare machine
    /// (a machine reset whose cores free after `boot_lag`); scale-down
    /// just shrinks the active prefix — the removed machine keeps
    /// draining what it already holds.
    fn autoscale_check(&mut self, now_us: u64) {
        let Some(scaler) = &mut self.scaler else {
            return;
        };
        let boot_us = scaler.boot_lag().as_micros();
        match scaler.observe(now_us, self.active_outstanding, self.active) {
            Some(ScaleDecision::Up) => {
                // The spare rejoins the active prefix with whatever it was
                // still draining, which the reset voids: a fresh boot.
                let idx = self.active;
                self.active += 1;
                self.active_outstanding += u64::from(self.loads[idx].outstanding);
                self.reset_machine(idx, now_us + boot_us);
                if let Some(h) = &mut self.health {
                    h.set_active(self.active);
                }
                self.stats.scale_ups += 1;
                self.stats.peak_active = self.stats.peak_active.max(self.active as u64);
            }
            Some(ScaleDecision::Down) => {
                self.active -= 1;
                let idx = self.active;
                self.active_outstanding -= u64::from(self.loads[idx].outstanding);
                self.refile(idx);
                if let Some(h) = &mut self.health {
                    h.set_active(self.active);
                }
                self.stats.scale_downs += 1;
            }
            None => {}
        }
    }

    /// Closes every open SLO-recovery epoch once the worst estimated wait
    /// across the active fleet is back under the SLO. Sampled at dispatch
    /// instants — the only clock the serial fold has.
    ///
    /// While the witness — the machine whose wait last exceeded the SLO —
    /// still waits past it, so does the worst machine, and the scan of
    /// the active prefix is skipped. The scan runs only once the witness
    /// is back under the SLO (or gone), and names the worst machine as
    /// the next witness, so the decision is exactly `max wait > slo`.
    fn resolve_epochs(&mut self, now_us: u64) {
        let Some(slo) = self.chaos.slo_us else { return };
        if self.chaos.pending_epochs.is_empty() {
            return;
        }
        let now = SimTime::from_micros(now_us);
        let wait = |m: usize| self.est_wait(m, now).as_micros();
        if self
            .chaos
            .slo_witness
            .is_some_and(|w| w < self.active && wait(w) > slo)
        {
            return;
        }
        let witness = (0..self.active)
            .max_by_key(|&m| wait(m))
            .filter(|&m| wait(m) > slo);
        self.counters.epoch_scans += 1;
        self.chaos.slo_witness = witness;
        if witness.is_some() {
            return;
        }
        for at in self.chaos.pending_epochs.drain(..) {
            let dt = SimDuration::from_micros(now_us - at);
            self.stats.recoveries += 1;
            self.stats.recovery_total += dt;
            if dt > self.stats.recovery_max {
                self.stats.recovery_max = dt;
            }
        }
    }

    /// The slowdown factor of the straggler window covering `arrival_us`
    /// on `machine`, if any (first covering window wins).
    fn straggle_factor(&mut self, machine: usize, arrival_us: u64) -> Option<f64> {
        let windows = self.chaos.straggle.get(machine)?;
        let cur = &mut self.chaos.straggle_cur[machine];
        while *cur < windows.len() && windows[*cur].1 <= arrival_us {
            *cur += 1;
        }
        windows[*cur..]
            .iter()
            .take_while(|w| w.0 <= arrival_us)
            .find(|w| arrival_us < w.1)
            .map(|w| w.2)
    }

    /// Applies what changed candidacy since the last pick: each machine
    /// whose health phase flipped (ejection, readmission, a doomed probe)
    /// is re-filed or taken out of the dispatch heaps, and the cached
    /// candidate list is rebuilt if any flipped or the active prefix
    /// moved. Runs before every pick, the only reader of the heaps;
    /// between picks a flipped machine may sit stale in them, which every
    /// heap writer tolerates by testing [`FrontEnd::is_candidate`].
    fn sync_candidates(&mut self) {
        let mut changed = self.cand_active != self.active;
        while let Some(m) = self.health.as_mut().and_then(HealthTracker::pop_flip) {
            changed = true;
            self.refile(m);
        }
        if !changed {
            return;
        }
        self.counters.rebuilds += 1;
        self.cand_active = self.active;
        self.cand_list.clear();
        let health = &self.health;
        self.cand_list
            .extend((0..self.active).filter(|&m| !health.as_ref().is_some_and(|h| h.excluded(m))));
        #[cfg(debug_assertions)]
        self.check_candidates();
    }

    /// Debug-build audit after every candidacy change: the cached list is
    /// a fresh filter of the active prefix, and the heaps hold exactly
    /// its machines — each at its current outstanding count, and idle or
    /// busy by its FCFS head against the fold clock.
    #[cfg(debug_assertions)]
    fn check_candidates(&self) {
        let fresh: Vec<usize> = (0..self.active).filter(|&m| self.is_candidate(m)).collect();
        assert_eq!(self.cand_list, fresh, "cached candidate list is stale");
        assert_eq!(
            self.out_heap.len(),
            fresh.len(),
            "out heap holds non-candidates"
        );
        assert_eq!(
            self.idle_heap.len() + self.busy_heap.len(),
            fresh.len(),
            "wait heaps hold non-candidates"
        );
        for &m in &fresh {
            let load = &self.loads[m];
            assert_eq!(self.out_heap.get(m), Some(&(load.outstanding, m as u32)));
            let free = *load.free_cores.peek_min().expect("machine has cores");
            if free <= self.clock_us {
                assert!(
                    self.idle_heap.contains(m),
                    "idle candidate {m} not filed idle"
                );
            } else {
                assert_eq!(self.busy_heap.get(m), Some(&(free, m as u32)));
            }
        }
    }

    /// Chooses the candidate view for one policy pick. A pick without a
    /// crash site to avoid sees the cached candidate set — the identity
    /// over the active prefix while nothing there is excluded — and the
    /// heaps answer for it. A retry avoiding a candidate builds the set
    /// minus its crash site for this pick alone; if every active machine
    /// is excluded, exclusions are dropped entirely (placing somewhere
    /// beats placing nowhere). Both rare paths are answered by scans.
    fn candidate_view(&mut self, avoid: Option<usize>) -> View {
        let full = self.cand_list.len() == self.active;
        match avoid.filter(|&a| self.is_candidate(a)) {
            None if full => View::Full,
            None if !self.cand_list.is_empty() => {
                self.counters.restricted += 1;
                View::Cached
            }
            None => {
                self.counters.built += 1;
                View::Fallback
            }
            Some(a) => {
                self.counters.built += 1;
                self.cand_scratch.clear();
                self.cand_scratch
                    .extend(self.cand_list.iter().copied().filter(|&m| m != a));
                match (self.cand_scratch.is_empty(), full) {
                    (false, _) => View::Built,
                    (true, true) => View::Full,
                    (true, false) => View::Fallback,
                }
            }
        }
    }

    /// Routes one invocation (a fresh arrival or a re-dispatch on its
    /// `attempts`-th replay, avoiding `avoid`) through the fold's stages,
    /// outside to inside, appending the surviving spec(s) to `out`.
    fn dispatch_one<D: Dispatch + ?Sized>(
        &mut self,
        task: &ClusterTask,
        now_us: u64,
        attempts: u32,
        avoid: Option<usize>,
        policy: &mut D,
        out: &mut Assignment,
    ) {
        let Some(breaker_probe) = self.admission(task, now_us) else {
            return;
        };
        let (machine, health_probe) = self.pick(task, now_us, avoid, policy);
        let Some(spec) = self.timeout(task, now_us, machine, breaker_probe, health_probe) else {
            return;
        };
        let mut primary = self.book(machine, task.function, spec, now_us, out);
        if let Some(mw) = &mut self.overload {
            mw.note_dispatch(task.function, primary.completion);
        }
        if let Some(crash_at) = self.doom(&primary, now_us) {
            self.retry_doomed(task, &primary, crash_at, attempts, health_probe);
            return;
        }
        self.land(&mut primary, now_us);
        let copy = if attempts == 0 && !health_probe {
            self.hedge(task, &mut primary, now_us, out)
        } else {
            None
        };
        self.report(primary, copy, now_us, health_probe, out);
    }

    /// Admission stage (middleware layers 1–2: admission control, breaker
    /// gate). Shed work never consults the policy or touches any load
    /// estimate — it is recorded, not simulated. Returns `None` when shed,
    /// otherwise whether this invocation is the breaker's half-open probe.
    fn admission(&mut self, task: &ClusterTask, now_us: u64) -> Option<bool> {
        match &mut self.overload {
            None => Some(false),
            Some(mw) => match mw.admit(task.function, now_us, &task.spec) {
                Admission::Shed => None,
                Admission::Admit { probe } => Some(probe),
            },
        }
    }

    /// Pick stage: an expired health probation turns this dispatch into
    /// the suspect machine's half-open probe (skipping the policy);
    /// otherwise the policy picks from the active machines minus the
    /// health layer's ejections and the retry's crash site. Returns the
    /// physical machine and whether it is a health probe.
    fn pick<D: Dispatch + ?Sized>(
        &mut self,
        task: &ClusterTask,
        now_us: u64,
        avoid: Option<usize>,
        policy: &mut D,
    ) -> (usize, bool) {
        self.sync_candidates();
        let probe = self.health.as_mut().and_then(|h| h.probe_target(now_us));
        let machine = if let Some(pm) = probe {
            pm
        } else {
            let (cand, heaps) = match self.candidate_view(avoid) {
                View::Full => (None, true),
                View::Cached => (Some(self.cand_list.as_slice()), true),
                View::Built => (Some(self.cand_scratch.as_slice()), false),
                View::Fallback => (None, false),
            };
            let ctx = DispatchCtx {
                now: SimTime::from_micros(now_us),
                function: task.function,
                duration: task.spec.work + task.spec.io_wait,
                front: self,
                cand,
                heaps,
            };
            let picked = policy.pick(&ctx);
            assert!(
                picked < ctx.machines(),
                "dispatch picked candidate {picked} of {}",
                ctx.machines()
            );
            ctx.phys(picked)
        };
        assert!(
            machine < self.active,
            "dispatch picked machine {machine} of {} active",
            self.active
        );
        (machine, probe.is_some())
    }

    /// Timeout stage (middleware layer 3): predicted-late work is
    /// abandoned at the router; either way the verdict feeds the
    /// function's breaker window. A shed placement feeds the machine's
    /// timeout streak; a surviving health probe is committed. Returns the
    /// spec to book — carrying the kernel deadline under kernel-cancel —
    /// or `None` when shed.
    fn timeout(
        &mut self,
        task: &ClusterTask,
        now_us: u64,
        machine: usize,
        breaker_probe: bool,
        health_probe: bool,
    ) -> Option<TaskSpec> {
        let now = SimTime::from_micros(now_us);
        let deadline = self.overload.as_ref().and_then(|mw| mw.deadline_at(now));
        let duration = task.spec.work + task.spec.io_wait;
        let late = deadline
            .is_some_and(|d| self.est_completion(machine, task.function, now, duration) > d);
        let mut spec = task.spec.clone();
        if let Some(mw) = &mut self.overload {
            if mw.verdict(task.function, breaker_probe, late, now_us, &task.spec) {
                if let Some(h) = &mut self.health {
                    h.note_timeout(machine);
                }
                return None;
            }
            mw.stamp(&mut spec, now);
        }
        if health_probe {
            if let Some(h) = &mut self.health {
                h.mark_probing(machine);
            }
        }
        Some(spec)
    }

    /// Book stage, shared by primaries and hedge copies: claims an idle
    /// warm instance or folds a cold boot into `spec`, books the FCFS
    /// estimate, and re-pools the instance, which serves this invocation
    /// until its booked completion and then idles warm. The estimate, the
    /// completion heap, the outstanding count and both wait heaps move
    /// together, so every read stays O(1)/O(log M).
    fn book(
        &mut self,
        machine: usize,
        function: u64,
        mut spec: TaskSpec,
        now_us: u64,
        out: &mut Assignment,
    ) -> Booking {
        let load = &mut self.loads[machine];
        let completion = match self.cold {
            None => load.push_work(now_us, spec.work.as_micros(), spec.io_wait.as_micros()),
            Some(c) => {
                // One pool lookup prunes expired instances, claims the idle
                // one closest to expiry (a cold start if none is idle) and
                // re-pools the instance. A pool exists only while non-empty
                // outside this stage, so an empty one here is new, and only
                // then does the machine join the function's warm sites.
                let ka = c.keep_alive.as_micros();
                let pool = self.pools.entry((machine as u32, function)).or_default();
                let new_site = pool.is_empty();
                while pool.peek_min().is_some_and(|&b| b + ka <= now_us) {
                    pool.pop_min();
                }
                if pool.peek_min().is_some_and(|&b| b <= now_us) {
                    pool.pop_min();
                } else {
                    spec.work += c.boot_work;
                    out.cold_starts += 1;
                }
                let completion =
                    load.push_work(now_us, spec.work.as_micros(), spec.io_wait.as_micros());
                pool.push(completion);
                if new_site {
                    let sites = self.warm_sites.entry(function).or_default();
                    if let Err(pos) = sites.binary_search(&(machine as u32)) {
                        sites.insert(pos, machine as u32);
                    }
                }
                completion
            }
        };
        let outstanding = load.outstanding;
        self.completions
            .push((completion, machine as u32, load.epoch));
        self.active_outstanding += 1;
        if self.is_candidate(machine) {
            self.out_heap.set(machine, (outstanding, machine as u32));
            self.refresh_wait(machine, now_us);
        }
        Booking {
            machine,
            spec,
            completion,
            extra_us: 0,
        }
    }

    /// Doom stage: the first scheduled crash of the booked machine
    /// strictly inside `(now_us, completion)`. The router has already paid
    /// for the attempt (load booked, instance claimed, boot billed), but
    /// the machine dies first and the work never reaches its kernel.
    /// Crashes at or before `now_us` have already been applied (the
    /// machine is back up); an attempt completing exactly at the crash
    /// instant survives.
    fn doom(&mut self, b: &Booking, now_us: u64) -> Option<u64> {
        let list = self.chaos.crash_at.get(b.machine)?;
        let cur = &mut self.chaos.crash_cur[b.machine];
        while *cur < list.len() && list[*cur] <= now_us {
            *cur += 1;
        }
        (*cur < list.len() && list[*cur] < b.completion).then(|| list[*cur])
    }

    /// What a doomed primary costs: a doomed health probe re-ejects its
    /// machine, the attempt is billed as churn, and the invocation
    /// re-enqueues (after the backoff delay, when configured) or is
    /// abandoned once its retry budget is spent.
    fn retry_doomed(
        &mut self,
        task: &ClusterTask,
        doomed: &Booking,
        crash_at: u64,
        attempts: u32,
        health_probe: bool,
    ) {
        if health_probe {
            if let Some(h) = &mut self.health {
                h.probe_doomed(doomed.machine, crash_at);
            }
        }
        let chaos = &mut self.chaos;
        if let Some((retry, _)) = &mut chaos.churn {
            retry.record_duration(doomed.spec.work + doomed.spec.io_wait, doomed.spec.mem_mib);
        }
        if chaos.max_retries.is_some_and(|cap| attempts >= cap) {
            self.stats.abandoned += 1;
            if let Some((_, abandoned)) = &mut chaos.churn {
                abandoned.record_duration(task.spec.work + task.spec.io_wait, task.spec.mem_mib);
            }
            return;
        }
        self.stats.retries += 1;
        let (retry_at, avoid) = match &mut chaos.backoff {
            Some((cfg, rng)) => {
                let delay = cfg.delay(rng, attempts + 1);
                chaos.backoff_retries += 1;
                chaos.backoff_delay_us += delay.as_micros();
                (crash_at + delay.as_micros(), Some(doomed.machine))
            }
            None => (crash_at, None),
        };
        chaos.retries.schedule(
            SimTime::from_micros(retry_at),
            RetryEntry {
                task: task.clone(),
                attempts: attempts + 1,
                avoid,
            },
        );
    }

    /// Land stage: respects the machine's arrival floor (crash downtime,
    /// boot lag), then scales kernel-side work if a straggler window
    /// covers the arrival. The booking stays unscaled, because stragglers
    /// are invisible from behind the router's information boundary; the
    /// completion report carries the inflation, because reports describe
    /// ground truth, they just arrive late.
    fn land(&mut self, b: &mut Booking, now_us: u64) {
        let arrival_us = now_us.max(self.available_at[b.machine]);
        if let Some(slow) = self.straggle_factor(b.machine, arrival_us) {
            let scaled = b.spec.work.mul_f64(slow);
            b.extra_us = (scaled - b.spec.work).as_micros();
            b.spec.work = scaled;
            self.stats.straggled_tasks += 1;
        }
        b.spec.arrival = SimTime::from_micros(arrival_us);
    }

    /// Hedge stage: a placement whose estimated response passes the
    /// observed tail gets a speculative copy on the healthiest other
    /// machine. The copy books, dooms and lands like the primary, but
    /// skips admission, the deadline stamp and the concurrency note. A
    /// copy doomed by a crash is billed and never retried, because the
    /// primary still owns the invocation. Returns the copy if it reaches
    /// a kernel.
    fn hedge(
        &mut self,
        task: &ClusterTask,
        primary: &mut Booking,
        now_us: u64,
        out: &mut Assignment,
    ) -> Option<Booking> {
        let h = self.health.as_mut()?;
        if !h.should_hedge(primary.machine, primary.completion.saturating_sub(now_us)) {
            return None;
        }
        let target = h.hedge_target(primary.machine)?;
        let mut copy = self.book(target, task.function, task.spec.clone(), now_us, out);
        let mem = task.spec.mem_mib;
        if let Some(crash_at) = self.doom(&copy, now_us) {
            let busy = SimDuration::from_micros(crash_at.saturating_sub(now_us));
            if let Some(h) = &mut self.health {
                h.record_doomed_copy(busy, mem);
            }
            return None;
        }
        self.land(&mut copy, now_us);
        let won = copy.completion < primary.completion;
        let busy = if won {
            // The copy is the estimated winner: the primary inherits a
            // deadline at the copy's completion and dies in its kernel.
            let cancel = SimTime::from_micros(copy.completion);
            primary.spec.deadline = Some(primary.spec.deadline.map_or(cancel, |d| d.min(cancel)));
            copy.completion.saturating_sub(now_us)
        } else {
            copy.spec.deadline = Some(SimTime::from_micros(primary.completion));
            primary
                .completion
                .saturating_sub(copy.spec.arrival.as_micros())
        };
        if let Some(h) = &mut self.health {
            h.record_hedge(won, SimDuration::from_micros(busy), mem);
        }
        Some(copy)
    }

    /// Report stage: queues the completion report of the estimated winner
    /// (the earlier booked completion) for the health tracker, at its true
    /// straggle-inflated instant, and appends each surviving spec to its
    /// machine's feed.
    fn report(
        &mut self,
        primary: Booking,
        copy: Option<Booking>,
        now_us: u64,
        health_probe: bool,
        out: &mut Assignment,
    ) {
        if let Some(h) = &mut self.health {
            let winner = copy
                .as_ref()
                .filter(|c| c.completion < primary.completion)
                .unwrap_or(&primary);
            let at = winner.completion + winner.extra_us;
            h.push_report(winner.machine, at, at.saturating_sub(now_us), health_probe);
        }
        if let Some(c) = copy {
            out.per_machine[c.machine].push(c.spec);
        }
        out.per_machine[primary.machine].push(primary.spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{LeastOutstanding, Passthrough, RoundRobinDispatch};
    use crate::ColdStartConfig;
    use faas_kernel::MachineConfig;
    use faas_simcore::SimDuration;

    fn task(at_ms: u64, work_ms: u64, function: u64) -> ClusterTask {
        ClusterTask {
            spec: TaskSpec::function(
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(work_ms),
                128,
            ),
            function,
        }
    }

    fn cfg(machines: usize, cores: usize) -> ClusterConfig {
        ClusterConfig::new(machines, MachineConfig::new(cores))
    }

    #[test]
    fn passthrough_sends_everything_to_machine_zero() {
        let tasks: Vec<ClusterTask> = (0..5).map(|i| task(i, 10, 0)).collect();
        let a = FrontEnd::new(&cfg(3, 2)).dispatch_chunk(&tasks, &mut Passthrough);
        assert_eq!(a.per_machine[0].len(), 5);
        assert!(a.per_machine[1].is_empty() && a.per_machine[2].is_empty());
        assert_eq!(a.cold_starts, 0, "no cold-start model configured");
    }

    #[test]
    fn least_outstanding_balances_a_burst() {
        // 4 simultaneous long tasks on 4 single-core machines: each
        // machine must receive exactly one.
        let tasks: Vec<ClusterTask> = (0..4).map(|_| task(0, 1_000, 0)).collect();
        let a = FrontEnd::new(&cfg(4, 1)).dispatch_chunk(&tasks, &mut LeastOutstanding);
        for m in 0..4 {
            assert_eq!(a.per_machine[m].len(), 1, "machine {m} share");
        }
    }

    #[test]
    fn outstanding_drains_by_estimated_completion() {
        // One short task, then a long gap: the second task sees machine 0
        // drained and lands there again under least-outstanding.
        let tasks = vec![task(0, 10, 0), task(10_000, 10, 0)];
        let a = FrontEnd::new(&cfg(2, 1)).dispatch_chunk(&tasks, &mut LeastOutstanding);
        assert_eq!(a.per_machine[0].len(), 2, "drained machine is reused");
    }

    #[test]
    fn cold_starts_inflate_work_and_keep_alive_suppresses_them() {
        let cold = ColdStartConfig {
            boot_work: SimDuration::from_millis(125),
            keep_alive: SimDuration::from_secs(600),
        };
        // f7 boots once (busy 135 ms, idle well before the 400 ms
        // revisit), f9 boots on first sight.
        let tasks = vec![task(0, 10, 7), task(400, 10, 7), task(600, 10, 9)];
        let a = FrontEnd::new(&cfg(1, 2).with_cold_start(cold))
            .dispatch_chunk(&tasks, &mut Passthrough);
        assert_eq!(a.cold_starts, 2, "two distinct functions boot once each");
        let works: Vec<u64> = a.per_machine[0]
            .iter()
            .map(|s| s.work.as_millis())
            .collect();
        assert_eq!(
            works,
            vec![135, 10, 135],
            "boot folded into cold specs only"
        );
    }

    #[test]
    fn concurrent_invocations_each_need_their_own_instance() {
        let cold = ColdStartConfig {
            boot_work: SimDuration::from_millis(125),
            keep_alive: SimDuration::from_secs(600),
        };
        // Three overlapping calls of one function: the first instance is
        // still busy when the next call arrives, so every call boots —
        // one warm instance must not blanket a whole burst.
        let tasks = vec![task(0, 10, 7), task(1, 10, 7), task(2, 10, 7)];
        let a = FrontEnd::new(&cfg(1, 4).with_cold_start(cold))
            .dispatch_chunk(&tasks, &mut Passthrough);
        assert_eq!(a.cold_starts, 3, "concurrency forces one boot per call");
        // After the burst drains, a revisit reuses an idle instance.
        let tasks = vec![task(0, 10, 7), task(1, 10, 7), task(500, 10, 7)];
        let a = FrontEnd::new(&cfg(1, 4).with_cold_start(cold))
            .dispatch_chunk(&tasks, &mut Passthrough);
        assert_eq!(a.cold_starts, 2, "idle instance absorbs the revisit");
    }

    #[test]
    fn round_robin_cycles_machines() {
        let tasks: Vec<ClusterTask> = (0..6).map(|i| task(i, 1, 0)).collect();
        let a = FrontEnd::new(&cfg(3, 1)).dispatch_chunk(&tasks, &mut RoundRobinDispatch::new());
        for m in 0..3 {
            assert_eq!(a.per_machine[m].len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_are_rejected() {
        let tasks = vec![task(10, 1, 0), task(5, 1, 0)];
        FrontEnd::new(&cfg(1, 1)).dispatch_chunk(&tasks, &mut Passthrough);
    }
}
