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
//!
//! What the fold books drains through one booked-completion queue, in
//! (instant, insertion) order: each attempt's completion lowers its
//! machine's outstanding count and, for a primary the admission cap
//! counted, its function's in-flight count, and each dispatch's delayed
//! completion report rides the winner's entry to the health tracker. The
//! least-outstanding pick reads count buckets
//! ([`CountBuckets`](faas_simcore::CountBuckets)) that a booking or a
//! drained completion moves by one level; the least-wait pick reads two
//! indexed heaps (see `DESIGN.md`, "Front-end hot path").

use faas_kernel::TaskSpec;
use faas_metrics::{ChaosStats, HealthStats, MachineHealth, OverloadStats};
use faas_simcore::{
    CountBuckets, EventQueue, FxHashMap, IndexedMinHeap, MinHeap4, SimDuration, SimRng, SimTime,
};
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
    /// instants themselves live in the front end's *global*
    /// booked-completion queue, so one arrival drains O(completions due)
    /// instead of walking every machine.
    outstanding: u32,
    /// Bumped whenever this machine's booked completions are voided
    /// wholesale (crash, scale-up reset); queue entries from an older
    /// epoch skip the outstanding count at pop time instead of being
    /// searched out.
    epoch: u32,
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
    /// outstanding-count buckets: the lowest machine at the lowest count
    /// is exactly the scan's first-seen tie-break.
    pub fn least_outstanding(&self) -> usize {
        if self.heaps {
            if let Some((m, _)) = self.front.out_buckets.peek_min() {
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
///
/// Every invocation passes through the same ordered stages, and every
/// layer behind them (overload stack, fault layer, health tracker) is
/// always present: a layer its [`ClusterConfig`] leaves off passes the
/// invocation through unchanged.
pub struct FrontEnd {
    loads: Vec<MachineLoad>,
    /// `(machine, function) → pool of instance busy-until instants (µs)`.
    /// One entry per live function instance: an instance serves **one**
    /// invocation at a time, is reusable while idle
    /// (`busy_until ≤ now`), and expires `keep_alive` after it last went
    /// idle. Concurrent same-function invocations therefore each need
    /// their own instance — a burst of N overlapping calls pays up to N
    /// boots, like a real per-request-instance FaaS platform, not one.
    pools: FxHashMap<(u32, u64), MinHeap4<u64>>,
    cold: Option<crate::ColdStartConfig>,
    /// Overload-middleware state (admits everything under the default
    /// config). Lives here — not in [`Assignment`] — so buckets, breaker
    /// windows and shed counters fold across [`FrontEnd::dispatch_chunk`]
    /// calls exactly like the load estimates do, making every middleware
    /// decision independent of how the stream was chunked.
    overload: Overload,
    /// Machines `0..active` take new work; the rest are either drained
    /// spares (autoscaler) or not yet booted. Equals `loads.len()` without
    /// an autoscaler.
    active: usize,
    /// Per-machine arrival floor (µs): the earliest instant the machine
    /// can receive a spec — pushed forward by crash downtime and scale-up
    /// boot lag. Only ever max-monotone, so per-machine feeds stay sorted.
    available_at: Vec<u64>,
    /// Fault-injection state (empty under an empty fault plan). Like the
    /// middleware, it folds serially across chunks, which is what keeps
    /// chaos bitwise-invariant to fan width and chunking.
    chaos: ChaosFold,
    /// Elastic-fleet controller (`None` for a fixed fleet).
    scaler: Option<Autoscaler>,
    /// Crash/retry/scale ledger (all-zero without chaos or autoscaling).
    stats: ChaosStats,
    /// Node-health feedback state (tracks nothing unless the
    /// [`HealthConfig`](crate::HealthConfig) arms ejection or hedging).
    /// Another serial fold: completion reports, ejection decisions and
    /// hedge triggers all digest in arrival order, chunk- and
    /// fan-invariant.
    health: HealthTracker,
    /// The fold's arrival clock (µs): the latest arrival or retry instant
    /// dispatched so far. Carried across [`FrontEnd::dispatch_chunk`]
    /// calls, so a chunked feed enforces the same global sorted-stream
    /// contract as one pass over the whole stream; the floor of
    /// [`FrontEnd::finish`]'s retries; and the "as of" instant for the
    /// health snapshot's open ejection spans.
    clock_us: u64,
    /// The booked-completion queue, in (instant, insertion) order: every
    /// booked attempt's completion and every completion report, drained
    /// once per arrival (see [`Due`]). One global queue replaces M
    /// per-machine drains per arrival; entries whose machine has since
    /// crashed or been reset carry a stale epoch and skip the machine's
    /// outstanding count at pop time.
    due: MinHeap4<Due>,
    /// Insertion sequence of `due`, its tie-break at equal instants.
    due_seq: u64,
    /// Candidates (see [`FrontEnd::is_candidate`]) bucketed by
    /// outstanding count: the least-outstanding pick is the lowest
    /// machine at the lowest count, and a booking or drained completion
    /// moves a machine by one bucket.
    out_buckets: CountBuckets,
    /// Candidates whose FCFS head is still in the future, keyed by
    /// `(free_min_us, machine)`.
    busy_heap: IndexedMinHeap<(u64, u32)>,
    /// Candidates with a free core at the fold clock, keyed by machine
    /// index — the least-wait winner among zero-wait machines is the
    /// lowest index, exactly the scan's first-seen tie-break.
    idle_heap: IndexedMinHeap<u32>,
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
    /// Every completion report: as booked, in booking order, and as
    /// folded, in fold order.
    #[cfg(test)]
    report_log: (Vec<ReportLine>, Vec<ReportLine>),
}

/// One completion report as `(at, machine, response, probe)`.
#[cfg(test)]
type ReportLine = (u64, usize, u64, bool);

/// Deterministic work counts of the front-end fold: which candidate path
/// each policy pick took, how often the fold paid a pass over the whole
/// active prefix, and how much work the health feedback cost. They repeat
/// exactly for a given input and configuration, so a test can pin them
/// where wall-clock timings would drown in host noise.
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
    /// Completion reports folded into the health tracker.
    pub reports_folded: u64,
    /// Completion reports queued on an entry of their own, because a
    /// straggler window delays them past their booked completion.
    pub report_only: u64,
    /// Hedge decisions that compared a booking against the observed tail
    /// (past the trigger's sample floor and the hedge budget).
    pub hedge_checks: u64,
    /// Recomputations of the hedge trigger's tail quantile: the checks
    /// the exact-count screen could not decide, after a report folded.
    pub tail_refreshes: u64,
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
    /// This and the straggler lists are empty under an empty fault plan,
    /// so a fault-free dispatch reads no per-machine fault state.
    crash_at: Vec<Vec<u64>>,
    crash_cur: Vec<usize>,
    /// Per-machine straggler windows `(start_us, end_us, slowdown)`,
    /// start-sorted, with advancing cursors.
    straggle: Vec<Vec<(u64, u64, f64)>>,
    straggle_cur: Vec<usize>,
    /// Every straggler window's start (µs), time-sorted. The ledger's
    /// `stragglers` count is the cursor into it: the windows the fold's
    /// clock has reached.
    straggle_starts: Vec<u64>,
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
    /// storm events into `stats`. Under an empty plan the fold allocates
    /// no per-machine fault lists: nothing dooms, straggles or queues for
    /// retry (pinned by `chaos_differential.rs`).
    fn new(cfg: &ChaosConfig, machines: usize, stats: &mut ChaosStats) -> Self {
        let per_machine = if cfg.plan.is_empty() { 0 } else { machines };
        let mut crashes = Vec::new();
        let mut crash_at = vec![Vec::new(); per_machine];
        let mut straggle = vec![Vec::new(); per_machine];
        let mut straggle_starts = Vec::new();
        for e in cfg.plan.events() {
            match e.fault {
                Fault::Crash { down } => {
                    crashes.push((e.at.as_micros(), e.machine, down.as_micros()));
                    crash_at[e.machine].push(e.at.as_micros());
                }
                Fault::Straggle { duration, slowdown } => {
                    straggle_starts.push(e.at.as_micros());
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
            straggle_starts,
            retries: EventQueue::new(),
            max_retries: cfg.max_retries,
            slo_us: cfg.slo.map(|s| s.as_micros()),
            pending_epochs: Vec::new(),
            slo_witness: None,
            churn: cfg
                .price
                .map(|p| (CostAccumulator::new(p), CostAccumulator::new(p))),
            backoff: cfg.backoff.map(|b| (b, b.stream())),
            backoff_retries: 0,
            backoff_delay_us: 0,
        }
    }
}

/// One booked attempt of an invocation — the primary or its hedge copy —
/// as it passes through the fold's stages.
struct Booking {
    machine: usize,
    /// The machine's epoch when booked: a reset in between voids the
    /// booking.
    epoch: u32,
    /// The spec its kernel will see: cold boot folded in by `book`,
    /// arrival floor and straggle applied by `land`.
    spec: TaskSpec,
    /// The router's FCFS completion estimate (µs), never straggle-scaled.
    completion: u64,
    /// Straggle inflation (µs) added by `land`: the completion report
    /// describes `completion + extra_us`.
    extra_us: u64,
    /// The function, if the admission cap counts this primary in flight
    /// until its completion drains.
    counted: Option<u64>,
}

/// A [`Due`] entry for a booked attempt's completion: draining it lowers
/// the machine's outstanding count unless a reset voided the booking.
const DUE_COMPLETION: u64 = 1;
/// The completion of a primary the admission cap counted in flight:
/// draining it lowers the function's count.
const DUE_NOTED: u64 = 1 << 1;
/// The entry carries a completion report for the health tracker.
const DUE_REPORT: u64 = 1 << 2;
/// The report is a half-open health probe's.
const DUE_PROBE: u64 = 1 << 3;
/// Bits below the insertion sequence in [`Due::seq`].
const DUE_FLAG_BITS: u32 = 4;

/// One entry of the booked-completion queue: a booked attempt's
/// completion, the completion report the front end booked with it, or
/// both. The winner of a dispatch carries the dispatch's report on its
/// own completion entry; a report that straggling delays past the
/// winner's completion rides an entry of its own. Entries are queued at
/// the report stage, once the hedge decision is known, or when a crash
/// dooms the attempt.
///
/// The derived order is the queue's: (instant, insertion). The sequence
/// is unique, so no later field is ever compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    /// The instant the entry drains (µs).
    at_us: u64,
    /// Insertion sequence, shifted above the `DUE_*` flags: the FIFO
    /// tie-break at equal instants, so reports fold in booking order.
    seq: u64,
    /// The reported response time (µs), if the entry carries a report.
    response_us: u64,
    /// The function, if the entry is a counted primary's completion.
    function: u64,
    machine: u32,
    /// The machine's epoch when the attempt was booked.
    epoch: u32,
}

// Entries stay at five words: the queue's sifts move whole entries.
const _: () = assert!(std::mem::size_of::<Due>() == 40);

impl Due {
    /// `true` if the entry carries `flag` (one of the `DUE_*` bits).
    fn has(&self, flag: u64) -> bool {
        self.seq & flag != 0
    }
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
        let chaos = ChaosFold::new(&cfg.chaos, cfg.machines, &mut stats);
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
            pools: FxHashMap::default(),
            cold: cfg.cold_start,
            overload: Overload::new(cfg.overload.clone()),
            active,
            available_at: vec![0; cfg.machines],
            chaos,
            scaler,
            stats,
            health: HealthTracker::new(cfg.health, cfg.machines, active),
            clock_us: 0,
            due: MinHeap4::new(),
            due_seq: 0,
            out_buckets: CountBuckets::new(),
            busy_heap: IndexedMinHeap::new(),
            idle_heap: IndexedMinHeap::new(),
            cand_list: (0..active).collect(),
            cand_active: active,
            cand_scratch: Vec::new(),
            warm_sites: FxHashMap::default(),
            counters: FoldCounters::default(),
            #[cfg(test)]
            report_log: Default::default(),
        };
        // Every active machine starts a candidate, idle (all cores free
        // at t = 0) with nothing outstanding.
        for m in 0..fe.active {
            fe.out_buckets.set(m, 0);
            fe.idle_heap.set(m, m as u32);
        }
        fe
    }

    /// The fold's work counts so far (see [`FoldCounters`]).
    pub fn fold_counters(&self) -> FoldCounters {
        let health = self.health.counters();
        FoldCounters {
            reports_folded: health.reports_folded,
            hedge_checks: health.hedge_checks,
            tail_refreshes: health.tail_refreshes,
            ..self.counters
        }
    }

    /// The chaos ledger so far — crash/retry/scale counters plus the
    /// dollar churn total. All-zero without a fault plan or autoscaler.
    /// `stragglers` and `unrecovered` are only final after
    /// [`FrontEnd::finish`].
    pub fn chaos_stats(&self) -> ChaosStats {
        let mut stats = self.stats;
        if let Some((retry, abandoned)) = &self.chaos.churn {
            stats.churn_cost_usd = retry.total_usd() + abandoned.total_usd();
        }
        stats
    }

    /// The node-health ledger so far — ejection/probe/hedge counters
    /// (plus the chaos layer's backoff totals) and the per-machine health
    /// columns. All-zero/empty with nothing armed; machines still
    /// ejected have their open span counted up to the fold's clock.
    pub fn health_stats(&self) -> (HealthStats, Vec<MachineHealth>) {
        let (mut stats, machines) = self.health.snapshot(self.clock_us);
        stats.backoff_retries = self.chaos.backoff_retries;
        stats.backoff_delay_total = SimDuration::from_micros(self.chaos.backoff_delay_us);
        (stats, machines)
    }

    /// The overload middleware's shed ledger so far — all-zero without
    /// middleware. `kernel_cancelled` is always zero here: in-flight
    /// cancellations happen inside the machines, beyond the router's
    /// information boundary, and are filled in at report assembly.
    pub fn overload_stats(&self) -> OverloadStats {
        self.overload.stats()
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
            let now_us = task.spec.arrival.as_micros();
            assert!(now_us >= self.clock_us, "arrival stream must be sorted");
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
    /// (`max(retry_at, clock)`), and a crash due by a retry's
    /// dispatch instant is applied first — exactly the mid-stream
    /// ordering. Returns the extra per-machine specs (all-empty without
    /// chaos); call it exactly once, after the final `dispatch_chunk`.
    pub fn finish<D: Dispatch + ?Sized>(&mut self, policy: &mut D) -> Assignment {
        let mut out = self.empty_assignment();
        while let Some(at) = self.chaos.retries.peek_time() {
            let now_us = at.as_micros().max(self.clock_us);
            self.advance_to(now_us, policy, &mut out);
            self.resolve_epochs(now_us);
        }
        // Trailing crashes and straggler windows past the last dispatch
        // still count (and crashes can open epochs that now have no
        // chance to close).
        self.advance_faults(u64::MAX);
        self.stats.unrecovered += self.chaos.pending_epochs.len() as u64;
        self.chaos.pending_epochs.clear();
        // Completion reports still in flight fold now: the final
        // telemetry describes every completion the router booked, even
        // the ones landing after the last arrival. (Nothing dispatches
        // after this, so late ejections change counters, not decisions.)
        self.drain_due(u64::MAX);
        out
    }

    fn empty_assignment(&self) -> Assignment {
        Assignment {
            per_machine: (0..self.loads.len()).map(|_| Vec::new()).collect(),
            cold_starts: 0,
        }
    }

    /// Brings the fold up to `now_us`: applies every crash due by now
    /// (and counts the straggler windows begun), drains the booked
    /// completions and reports due, then re-dispatches every retry that
    /// has come due.
    /// Retries dispatch *at* `now_us` — they ride the arrival clock rather
    /// than their own enqueue instant, so the per-machine spec feeds stay
    /// sorted no matter how the stream is chunked.
    fn advance_to<D: Dispatch + ?Sized>(
        &mut self,
        now_us: u64,
        policy: &mut D,
        out: &mut Assignment,
    ) {
        self.clock_us = self.clock_us.max(now_us);
        self.advance_faults(now_us);
        self.drain_due(now_us);
        // Machines whose FCFS backlog has drained promote busy → idle,
        // keeping `least_wait` an O(1) peek.
        while let Some((m, &(free, _))) = self.busy_heap.peek_min() {
            if free > now_us {
                break;
            }
            self.busy_heap.remove(m);
            self.idle_heap.set(m, m as u32);
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

    /// Drains every booked-completion queue entry due at or before
    /// `now_us`, in (instant, insertion) order — O(log) per entry rather
    /// than O(machines) per arrival. A completion lowers its machine's
    /// outstanding count (unless a crash or reset voided it, which the
    /// stale epoch shows) and, for a counted primary, its function's
    /// in-flight count, whatever the epoch: a crash does not void the
    /// admission estimate. A report folds into the health tracker, so
    /// delayed feedback reaches it before any retry or arrival dispatches
    /// at this instant. Completions and reports interleave: a report may
    /// flip a machine's candidacy before a later completion's count
    /// moves, which the dispatch heaps see only at the next pick's
    /// [`FrontEnd::sync_candidates`], the same state the pick would see
    /// had the completions all drained first.
    fn drain_due(&mut self, now_us: u64) {
        while self.due.peek_min().is_some_and(|d| d.at_us <= now_us) {
            let d = self.due.pop_min().expect("peeked above");
            let m = d.machine as usize;
            if d.has(DUE_COMPLETION) && self.loads[m].epoch == d.epoch {
                self.loads[m].outstanding -= 1;
                if self.is_candidate(m) {
                    self.out_buckets.set(m, self.loads[m].outstanding);
                }
            }
            if d.has(DUE_NOTED) {
                self.overload.note_drained(d.function);
            }
            if d.has(DUE_REPORT) {
                let probe = d.has(DUE_PROBE);
                self.health.fold_report(d.at_us, m, d.response_us, probe);
                #[cfg(test)]
                self.report_log.1.push((d.at_us, m, d.response_us, probe));
            }
        }
    }

    /// Queues a [`Due`] entry for booking `b` at `at_us` with `flags`; the
    /// completion entry of a primary the admission cap counted also
    /// drains that count.
    fn queue_due(&mut self, at_us: u64, mut flags: u64, b: &Booking, response_us: u64) {
        let mut function = 0;
        if let Some(f) = b.counted.filter(|_| flags & DUE_COMPLETION != 0) {
            flags |= DUE_NOTED;
            function = f;
        }
        self.due.push(Due {
            at_us,
            seq: (self.due_seq << DUE_FLAG_BITS) | flags,
            response_us,
            function,
            machine: b.machine as u32,
            epoch: b.epoch,
        });
        self.due_seq += 1;
    }

    /// Applies every scheduled crash at or before `now_us`, and counts
    /// every straggler window begun by then.
    fn advance_faults(&mut self, now_us: u64) {
        while let Some(&(at, machine, down)) = self.chaos.crashes.get(self.chaos.cursor) {
            if at > now_us {
                break;
            }
            self.chaos.cursor += 1;
            self.apply_crash(machine, at, down);
        }
        let starts = &self.chaos.straggle_starts[self.stats.stragglers as usize..];
        self.stats.stragglers += starts.partition_point(|&at| at <= now_us) as u64;
    }

    /// A machine dies: all in-flight work is lost (the doomed invocations
    /// were already routed to the retry queue at dispatch time) and the
    /// router's view of it resets until the downtime ends.
    fn apply_crash(&mut self, machine: usize, at_us: u64, down_us: u64) {
        let until = at_us + down_us;
        self.reset_machine(machine, until);
        self.stats.crashes += 1;
        self.health.note_crash(machine, until, at_us);
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
        let cores = load.free_cores.len();
        load.free_cores.clear();
        for _ in 0..cores {
            load.free_cores.push(ready_us);
        }
        // Void the booked completions wholesale: the epoch bump keeps
        // this machine's queued completions off its count at pop.
        load.epoch += 1;
        load.outstanding = 0;
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
        machine < self.active && !self.health.excluded(machine)
    }

    /// Re-files `machine` in the outstanding buckets and both wait heaps
    /// from its current
    /// outstanding count and FCFS head against the fold clock if it is a
    /// candidate, or takes it out of them if it is not.
    fn refile(&mut self, machine: usize) {
        if self.is_candidate(machine) {
            self.out_buckets
                .set(machine, self.loads[machine].outstanding);
            self.refresh_wait(machine, self.clock_us);
        } else {
            self.out_buckets.remove(machine);
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

    /// One autoscaler observation. Its load signal, the outstanding
    /// count summed over the active prefix, is read only when a check is
    /// due. Scale-up boots the next spare machine (a machine reset whose
    /// cores free after `boot_lag`); scale-down just shrinks the active
    /// prefix — the removed machine keeps draining what it already holds.
    fn autoscale_check(&mut self, now_us: u64) {
        let Some(scaler) = &mut self.scaler else {
            return;
        };
        let boot_us = scaler.boot_lag().as_micros();
        let active = &self.loads[..self.active];
        let outstanding = || active.iter().map(|l| u64::from(l.outstanding)).sum();
        match scaler.observe(now_us, outstanding, self.active) {
            Some(ScaleDecision::Up) => {
                // The spare rejoins the active prefix with whatever it was
                // still draining, which the reset voids: a fresh boot.
                let idx = self.active;
                self.active += 1;
                self.reset_machine(idx, now_us + boot_us);
                self.health.set_active(self.active);
                self.stats.scale_ups += 1;
                self.stats.peak_active = self.stats.peak_active.max(self.active as u64);
            }
            Some(ScaleDecision::Down) => {
                self.active -= 1;
                self.refile(self.active);
                self.health.set_active(self.active);
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
        while let Some(m) = self.health.pop_flip() {
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
            .extend((0..self.active).filter(|&m| !health.excluded(m)));
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
            self.out_buckets.len(),
            fresh.len(),
            "outstanding buckets hold non-candidates"
        );
        assert_eq!(
            self.idle_heap.len() + self.busy_heap.len(),
            fresh.len(),
            "wait heaps hold non-candidates"
        );
        for &m in &fresh {
            let load = &self.loads[m];
            assert_eq!(self.out_buckets.get(m), Some(load.outstanding));
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
        primary.counted = self
            .overload
            .note_dispatch(task.function, primary.completion, now_us)
            .then_some(task.function);
        if let Some(crash_at) = self.doom(&primary, now_us) {
            self.queue_due(primary.completion, DUE_COMPLETION, &primary, 0);
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
        match self.overload.admit(task.function, now_us, &task.spec) {
            Admission::Shed => None,
            Admission::Admit { probe } => Some(probe),
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
        let probe = self.health.probe_target(now_us);
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
        let duration = task.spec.work + task.spec.io_wait;
        let late = self
            .overload
            .deadline_at(now)
            .is_some_and(|d| self.est_completion(machine, task.function, now, duration) > d);
        if self
            .overload
            .verdict(task.function, breaker_probe, late, now_us, &task.spec)
        {
            self.health.note_timeout(machine);
            return None;
        }
        let mut spec = task.spec.clone();
        self.overload.stamp(&mut spec, now);
        if health_probe {
            self.health.mark_probing(machine);
        }
        Some(spec)
    }

    /// Book stage, shared by primaries and hedge copies: claims an idle
    /// warm instance or folds a cold boot into `spec`, books the FCFS
    /// estimate, and re-pools the instance, which serves this invocation
    /// until its booked completion and then idles warm. The estimate, the
    /// outstanding count and bucket, and both wait heaps move together,
    /// so every read stays O(1)/O(log M); the completion itself is queued
    /// at the report stage, or when a crash dooms the attempt.
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
        let (outstanding, epoch) = (load.outstanding, load.epoch);
        if self.is_candidate(machine) {
            self.out_buckets.set(machine, outstanding);
            self.refresh_wait(machine, now_us);
        }
        Booking {
            machine,
            epoch,
            spec,
            completion,
            extra_us: 0,
            counted: None,
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
            self.health.probe_doomed(doomed.machine, crash_at);
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
        let booked_response = primary.completion.saturating_sub(now_us);
        if !self.health.should_hedge(primary.machine, booked_response) {
            return None;
        }
        let target = self.health.hedge_target(primary.machine)?;
        let mut copy = self.book(target, task.function, task.spec.clone(), now_us, out);
        let mem = task.spec.mem_mib;
        if let Some(crash_at) = self.doom(&copy, now_us) {
            self.queue_due(copy.completion, DUE_COMPLETION, &copy, 0);
            let busy = SimDuration::from_micros(crash_at.saturating_sub(now_us));
            self.health.record_doomed_copy(busy, mem);
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
        self.health
            .record_hedge(won, SimDuration::from_micros(busy), mem);
        Some(copy)
    }

    /// Report stage: queues the completions of the primary and the hedge
    /// copy, with the completion report of the estimated winner (the
    /// earlier booked completion) for the health tracker at its true
    /// straggle-inflated instant, and appends each surviving spec to its
    /// machine's feed. The report rides the winner's completion entry, or
    /// an entry of its own when a straggler window delays it past that
    /// completion.
    fn report(
        &mut self,
        primary: Booking,
        copy: Option<Booking>,
        now_us: u64,
        health_probe: bool,
        out: &mut Assignment,
    ) {
        let copy_wins = copy
            .as_ref()
            .is_some_and(|c| c.completion < primary.completion);
        let winner = match &copy {
            Some(c) if copy_wins => c,
            _ => &primary,
        };
        let at = winner.completion + winner.extra_us;
        let response = at.saturating_sub(now_us);
        let mut report = 0;
        if self.health.note_report() {
            #[cfg(test)]
            self.report_log
                .0
                .push((at, winner.machine, response, health_probe));
            report = DUE_REPORT | if health_probe { DUE_PROBE } else { 0 };
            if winner.extra_us > 0 {
                self.counters.report_only += 1;
                self.queue_due(at, report, winner, response);
                report = 0;
            }
        }
        let (primary_report, copy_report) = if copy_wins { (0, report) } else { (report, 0) };
        self.queue_due(
            primary.completion,
            DUE_COMPLETION | primary_report,
            &primary,
            response,
        );
        if let Some(c) = copy {
            self.queue_due(c.completion, DUE_COMPLETION | copy_report, &c, response);
            out.per_machine[c.machine].push(c.spec);
        }
        out.per_machine[primary.machine].push(primary.spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{LeastOutstanding, Passthrough, RoundRobinDispatch};
    use crate::{ColdStartConfig, FaultPlan, FaultPlanConfig};
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
    fn straggler_windows_count_once_the_fold_reaches_them() {
        let faults = FaultPlanConfig::new(0x57A6_0002, 1).with_stragglers(
            4.0,
            SimDuration::from_secs(5),
            2.0,
        );
        let plan = FaultPlan::generate(&faults, 2);
        let starts: Vec<SimTime> = plan.events().iter().map(|e| e.at).collect();
        assert!(starts.len() >= 2 && starts[0] > SimTime::from_millis(10));
        let mut fe = FrontEnd::new(&cfg(2, 1).with_chaos(ChaosConfig::new(plan)));
        let mut rr = RoundRobinDispatch::new();
        // The stream ends before the plan's first window.
        let tasks: Vec<ClusterTask> = (0..10).map(|i| task(i, 1, 0)).collect();
        fe.dispatch_chunk(&tasks, &mut rr);
        assert_eq!(fe.chaos_stats().stragglers, 0, "no window has begun");
        // An arrival at the second window's start has seen two begin.
        let mut late = task(0, 1, 0);
        late.spec.arrival = starts[1];
        fe.dispatch_chunk(&[late], &mut rr);
        assert_eq!(fe.chaos_stats().stragglers, 2);
        fe.finish(&mut rr);
        assert_eq!(fe.chaos_stats().stragglers, starts.len() as u64);
    }

    /// The benchmark's `control-plane` stack at test scale: cold starts,
    /// a per-function admission cap, a 5 s deadline with kernel cancel,
    /// crashes with 4 s downtime, 30 s stragglers at 8×, backoff retries
    /// with a retry cap of 1, ejection and hedging, over 16 nodes.
    fn control_plane_cfg(machines: usize) -> ClusterConfig {
        use crate::{BackoffConfig, EjectionConfig, HealthConfig, HedgeConfig, OverloadConfig};
        use faas_kernel::InterferenceConfig;
        use lambda_pricing::PriceModel;
        let price = PriceModel::duration_only();
        let overload = OverloadConfig::default()
            .with_concurrency_limit(320)
            .with_deadline(SimDuration::from_secs(5))
            .with_kernel_cancel()
            .with_price(price);
        let faults = FaultPlanConfig::new(0x00BA_C0FF, 2)
            .with_crashes(4.0, SimDuration::from_secs(4))
            .with_stragglers(2.0, SimDuration::from_secs(30), 8.0);
        let chaos = ChaosConfig::new(FaultPlan::generate(&faults, machines))
            .with_max_retries(1)
            .with_slo(SimDuration::from_secs(2))
            .with_price(price)
            .with_backoff(
                BackoffConfig::new(0x0BAC_0FF5)
                    .with_delays(SimDuration::from_millis(250), SimDuration::from_secs(30))
                    .with_jitter(0.25),
            );
        let health = HealthConfig::default()
            .with_ejection(
                EjectionConfig::default()
                    .with_threshold(2.0)
                    .with_probation(SimDuration::from_secs(5))
                    .with_min_samples(8),
            )
            .with_hedge(
                HedgeConfig::default()
                    .with_min_samples(256)
                    .with_price(price),
            );
        let machine = MachineConfig::new(50).with_interference(InterferenceConfig::default());
        ClusterConfig::new(machines, machine)
            .with_cold_start(ColdStartConfig::firecracker())
            .with_overload(overload)
            .with_chaos(chaos)
            .with_health(health)
    }

    /// W2 at four times its rate: the benchmark's per-node load on 16
    /// nodes (49,768 arrivals).
    fn control_plane_tasks() -> Vec<ClusterTask> {
        use azure_trace::{AzureTrace, TraceConfig};
        crate::workload_from_trace(&AzureTrace::generate(&TraceConfig::w2().rps_scaled(4)), 1)
    }

    /// FNV-1a 64-bit over formatted text.
    struct Fnv1a(u64);

    impl std::fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Byte-identity pin of the whole `control-plane` fold under
    /// `LeastOutstanding`: every spec fed to every machine, the cold
    /// starts, the overload, chaos and health ledgers with their
    /// per-machine columns, each machine's EWMA to the bit, and the
    /// candidate-path counters. Captured before the fold's bookkeeping
    /// moved from heaps to count buckets and one booked-completion queue.
    #[test]
    fn control_plane_least_outstanding_fold_pinned() {
        use std::fmt::Write;
        let mut fe = FrontEnd::new(&control_plane_cfg(16));
        let tasks = control_plane_tasks();
        let body = fe.dispatch_chunk(&tasks, &mut LeastOutstanding);
        let tail = fe.finish(&mut LeastOutstanding);
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        for a in [&body, &tail] {
            for (m, specs) in a.per_machine.iter().enumerate() {
                write!(h, "m{m}:").expect("hashing cannot fail");
                for s in specs {
                    write!(h, "{s:?};").expect("hashing cannot fail");
                }
            }
            write!(h, "cold {};", a.cold_starts).expect("hashing cannot fail");
        }
        let (health, columns) = fe.health_stats();
        let c = fe.fold_counters();
        write!(
            h,
            "{:?} {:?} {health:?} {columns:?} {:?} {} {} {} {}",
            fe.overload_stats(),
            fe.chaos_stats(),
            fe.health.ewma_bits(),
            c.restricted,
            c.built,
            c.rebuilds,
            c.epoch_scans,
        )
        .expect("hashing cannot fail");
        assert!(
            health.ejections > 0 && health.hedges_won > 0 && fe.chaos_stats().retries > 0,
            "the fold must eject, hedge and retry: {health:?}"
        );
        assert_eq!(
            h.0, 0x6d20_a874_2e3b_138a,
            "control-plane fold changed: {:#018x}",
            h.0
        );
        // The health feedback's work: every report folds once, and the
        // exact-count screen settles most hedge checks without a refresh.
        let sampled: u64 = columns.iter().map(|m| m.samples).sum();
        assert_eq!(c.reports_folded, sampled);
        assert_eq!(
            (
                c.reports_folded,
                c.report_only,
                c.hedge_checks,
                c.tail_refreshes
            ),
            (48_269, 553, 32_040, 4_563),
            "{c:?}"
        );
    }

    /// The reports the tracker folds are exactly what one
    /// [`EventQueue`] over the booked reports would deliver, in its
    /// (instant, booking) order: the booked-completion queue loses,
    /// reorders or invents none, whether a report rides its winner's
    /// completion or, straggled, an entry of its own, and whether the
    /// primary or its hedge copy won.
    #[test]
    fn reports_fold_in_reference_queue_order() {
        let mut fe = FrontEnd::new(&control_plane_cfg(16));
        let tasks = control_plane_tasks();
        fe.dispatch_chunk(&tasks, &mut LeastOutstanding);
        fe.finish(&mut LeastOutstanding);
        let (booked, folded) = &fe.report_log;
        let mut reference = EventQueue::new();
        for &(at, machine, response, probe) in booked {
            reference.schedule(SimTime::from_micros(at), (machine, response, probe));
        }
        let want: Vec<ReportLine> = std::iter::from_fn(|| reference.pop())
            .map(|(at, (machine, response, probe))| (at.as_micros(), machine, response, probe))
            .collect();
        assert_eq!(folded.len(), want.len(), "reports lost or invented");
        assert!(*folded == want, "reports folded out of queue order");
        let c = fe.fold_counters();
        let (health, _) = fe.health_stats();
        assert!(
            c.report_only > 0 && health.hedges_won > 0 && health.probes > 0,
            "the shape must straggle winners, win hedges by the copy and probe: {c:?} {health:?}"
        );
    }

    /// The admission cap counts a primary a crash dooms, like any other,
    /// until its booked completion drains, although the crash voids the
    /// booking on the machine.
    #[test]
    fn admission_cap_counts_doomed_primaries_until_their_booked_completion() {
        use crate::{Fault, OverloadConfig};
        let faults =
            FaultPlanConfig::new(0xD00D, 1).with_crashes(2.0, SimDuration::from_millis(100));
        let plan = FaultPlan::generate(&faults, 1);
        let crash_us = plan
            .events()
            .iter()
            .find(|e| matches!(e.fault, Fault::Crash { .. }))
            .expect("the plan crashes the machine")
            .at
            .as_micros();
        assert!(crash_us > 10_000);
        let cfg = cfg(1, 1)
            .with_overload(OverloadConfig::default().with_concurrency_limit(1))
            .with_chaos(ChaosConfig::new(plan));
        let invocation = |at_us: u64, work_ms: u64| ClusterTask {
            spec: TaskSpec::function(
                SimTime::from_micros(at_us),
                SimDuration::from_millis(work_ms),
                128,
            ),
            function: 7,
        };
        // Booked to complete 990 ms after the crash: doomed, and retried
        // with the next arrival, 100 ms after the crash. The last arrival
        // comes after that booked completion.
        let tasks = [
            invocation(crash_us - 10_000, 1_000),
            invocation(crash_us + 100_000, 1),
            invocation(crash_us + 2_000_000, 1),
        ];
        let mut fe = FrontEnd::new(&cfg);
        fe.dispatch_chunk(&tasks, &mut Passthrough);
        fe.finish(&mut Passthrough);
        assert_eq!(fe.chaos_stats().retries, 1);
        assert_eq!(
            fe.overload_stats().shed_concurrency,
            2,
            "the retry and the second arrival find the doomed primary in \
             flight, and the last arrival finds it drained"
        );
    }

    #[test]
    fn reports_fold_only_when_due() {
        use crate::{EjectionConfig, HealthConfig, HedgeConfig};
        // Armed behind sample floors no run reaches: reports fold, and
        // nothing acts on them.
        let health = HealthConfig::default()
            .with_ejection(EjectionConfig::default().with_min_samples(u64::MAX))
            .with_hedge(HedgeConfig::default().with_min_samples(u64::MAX));
        let mut fe = FrontEnd::new(&cfg(1, 1).with_health(health));
        let samples = |fe: &FrontEnd| fe.health_stats().1[0].samples;
        fe.dispatch_chunk(&[task(0, 50, 0), task(40, 1, 0)], &mut Passthrough);
        assert_eq!(samples(&fe), 0, "no report due by 40 ms");
        fe.dispatch_chunk(&[task(50, 1, 0)], &mut Passthrough);
        assert_eq!(samples(&fe), 1, "the first report is due at 50 ms");
        fe.finish(&mut Passthrough);
        assert_eq!(samples(&fe), 3, "finish folds every report still due");
    }

    /// The autoscaler's load is the active prefix's: a machine scaled
    /// down keeps draining its long invocation, and that backlog must not
    /// scale the fleet back up.
    #[test]
    fn autoscaler_load_counts_only_the_active_prefix() {
        use crate::AutoscaleConfig;
        let scaler = AutoscaleConfig {
            min_machines: 1,
            high_watermark: 0.9,
            low_watermark: 0.6,
            check_interval: SimDuration::from_millis(1),
            cooldown: SimDuration::ZERO,
            boot_lag: SimDuration::ZERO,
        };
        let mut fe = FrontEnd::new(&cfg(2, 1).with_autoscale(scaler));
        // 1 ms: one outstanding on one machine scales up, and the 100 s
        // invocation lands on the booted machine 1. 20 ms: machine 0 has
        // drained, 1 of 2 outstanding scales down. 30 ms: the active
        // prefix is idle; only the drained-away machine 1 is busy.
        let tasks = [
            task(0, 10, 0),
            task(1, 100_000, 0),
            task(20, 1, 0),
            task(30, 1, 0),
        ];
        let a = fe.dispatch_chunk(&tasks, &mut LeastOutstanding);
        let c = fe.chaos_stats();
        assert_eq!((c.scale_ups, c.scale_downs), (1, 1), "{c:?}");
        assert_eq!((a.per_machine[0].len(), a.per_machine[1].len()), (3, 1));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_are_rejected() {
        let tasks = vec![task(10, 1, 0), task(5, 1, 0)];
        FrontEnd::new(&cfg(1, 1)).dispatch_chunk(&tasks, &mut Passthrough);
    }
}
