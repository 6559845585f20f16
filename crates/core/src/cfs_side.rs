//! The long-task (CFS) side of the hybrid scheduler.
//!
//! Per-core vruntime queues with *dynamic membership*: cores join and leave
//! as the rightsizing controller moves them between groups (§IV-B). The
//! scheduling logic matches `faas_policies::Cfs` (placement at
//! `min_vruntime`, latency-target slices, stealing), re-implemented here
//! because membership churn requires queue hand-off primitives a fixed-set
//! policy does not need.

use faas_kernel::{Machine, TaskId};
use faas_simcore::{MinHeap4, SimDuration};

/// A run-queue key: effective vruntime (µs) with the task id tie-break.
type RqKey = (i64, TaskId);
type RunQueue = MinHeap4<RqKey>;

#[derive(Debug, Default)]
struct Rq {
    /// Runnable tasks keyed by (vruntime, id) in a dense 4-ary heap —
    /// keys are unique, so `pop_min`/`take_max` reproduce the old
    /// `BTreeSet` iteration-order picks exactly, without per-insert node
    /// allocation.
    queue: RunQueue,
    min_vruntime: i64,
}

/// Dynamic-membership CFS run queues.
///
/// `rqs` is a dense vector indexed by core id (`None` = not a member).
/// `steal_into` and `balance` pick victims by iterating it, so iteration
/// order must be deterministic — a `HashMap` here once made tie-breaks,
/// and therefore whole simulations, nondeterministic across runs. The
/// dense layout also makes the per-dispatch queue lookups O(1).
#[derive(Debug)]
pub(crate) struct CfsSide {
    rqs: Vec<Option<Rq>>,
    /// vruntime offset per task: effective vr = offset + cpu_time.
    /// Dense, indexed by `TaskId::index()` (task ids are assigned densely
    /// by the kernel); absent entries read as 0, matching the old
    /// `HashMap::get(..).unwrap_or(0)` behavior without hashing on the
    /// enqueue/requeue hot path.
    offsets: Vec<i64>,
    sched_latency: SimDuration,
    min_granularity: SimDuration,
    /// Smallest runnable count at which the slice formula bottoms out at
    /// `min_granularity` (skips the division on the dispatch hot path).
    slice_floor_nr: u64,
    /// Member queues holding at least two tasks — the only ones a steal
    /// may take from. While it is zero a steal attempt misses in O(1)
    /// instead of scanning every member.
    crowded: usize,
}

impl CfsSide {
    pub(crate) fn new(sched_latency: SimDuration, min_granularity: SimDuration) -> Self {
        assert!(
            !min_granularity.is_zero(),
            "min_granularity must be positive"
        );
        CfsSide {
            rqs: Vec::new(),
            offsets: Vec::new(),
            sched_latency,
            min_granularity,
            slice_floor_nr: sched_latency
                .as_micros()
                .div_ceil(min_granularity.as_micros()),
            crowded: 0,
        }
    }

    pub(crate) fn add_core(&mut self, core: usize) {
        if core >= self.rqs.len() {
            self.rqs.resize_with(core + 1, || None);
        }
        if self.rqs[core].is_none() {
            self.rqs[core] = Some(Rq::default());
        }
    }

    /// Removes a core, returning its queued tasks in vruntime order.
    pub(crate) fn remove_core(&mut self, core: usize) -> Vec<TaskId> {
        match self.rqs.get_mut(core).and_then(Option::take) {
            Some(rq) => {
                if rq.queue.len() >= 2 {
                    self.crowded -= 1;
                }
                rq.queue
                    .into_sorted_vec()
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect()
            }
            None => Vec::new(),
        }
    }

    pub(crate) fn has_core(&self, core: usize) -> bool {
        matches!(self.rqs.get(core), Some(Some(_)))
    }

    pub(crate) fn queue_len(&self, core: usize) -> usize {
        match self.rqs.get(core) {
            Some(Some(r)) => r.queue.len(),
            _ => 0,
        }
    }

    /// Total queued tasks across all member cores.
    pub(crate) fn total_queued(&self) -> usize {
        self.rqs.iter().flatten().map(|r| r.queue.len()).sum()
    }

    /// Asserts the incremental crowded-queue count against a scan of
    /// every member queue (the test oracle).
    #[cfg(test)]
    pub(crate) fn check_crowded(&self) {
        let scan = self.members().filter(|(_, rq)| rq.queue.len() >= 2).count();
        assert_eq!(
            self.crowded, scan,
            "crowded-queue count diverged from the scan"
        );
    }

    /// Iterates `(core, rq)` over member cores in ascending core order.
    fn members(&self) -> impl Iterator<Item = (usize, &Rq)> {
        self.rqs
            .iter()
            .enumerate()
            .filter_map(|(c, rq)| rq.as_ref().map(|r| (c, r)))
    }

    fn rq_mut(&mut self, core: usize) -> Option<&mut Rq> {
        self.rqs.get_mut(core).and_then(Option::as_mut)
    }

    /// Pushes `key` onto member `core`'s queue, keeping the crowded-queue
    /// count.
    fn push(&mut self, core: usize, key: RqKey) {
        let queue = &mut self.rq_mut(core).expect("push on member core").queue;
        queue.push(key);
        if queue.len() == 2 {
            self.crowded += 1;
        }
    }

    /// Takes one key off member `core`'s queue with `pick` (`pop_min` or
    /// `take_max`), keeping the crowded-queue count.
    fn take(&mut self, core: usize, pick: fn(&mut RunQueue) -> Option<RqKey>) -> Option<RqKey> {
        let queue = &mut self.rq_mut(core)?.queue;
        let key = pick(queue)?;
        if queue.len() == 1 {
            self.crowded -= 1;
        }
        Some(key)
    }

    fn effective_vr(&self, m: &Machine, task: TaskId) -> i64 {
        self.offsets.get(task.index()).copied().unwrap_or(0)
            + m.task(task).cpu_time().as_micros() as i64
    }

    /// Enqueues a task entering this core fresh: placed at the core's
    /// `min_vruntime` so it is not starved nor unfairly boosted.
    pub(crate) fn enqueue_new(&mut self, m: &Machine, core: usize, task: TaskId) {
        let cpu = m.task(task).cpu_time().as_micros() as i64;
        let min_vruntime = self
            .rq_mut(core)
            .expect("enqueue on member core")
            .min_vruntime;
        let offset = min_vruntime - cpu;
        self.push(core, (offset + cpu, task));
        if self.offsets.len() <= task.index() {
            self.offsets.resize(task.index() + 1, 0);
        }
        self.offsets[task.index()] = offset;
    }

    /// Re-enqueues a task that already belongs to this core (slice expiry);
    /// its vruntime advanced by the CPU time it just consumed.
    pub(crate) fn requeue(&mut self, m: &Machine, core: usize, task: TaskId) {
        let vr = self.effective_vr(m, task);
        self.push(core, (vr, task));
    }

    /// Pops the smallest-vruntime task of `core` together with its slice.
    pub(crate) fn pop(&mut self, core: usize) -> Option<(TaskId, SimDuration)> {
        let (sched_latency, min_granularity) = (self.sched_latency, self.min_granularity);
        let key = self.take(core, RunQueue::pop_min)?;
        let rq = self.rq_mut(core).expect("member core");
        rq.min_vruntime = rq.min_vruntime.max(key.0);
        let nr = rq.queue.len() as u64 + 1;
        let slice = if nr >= self.slice_floor_nr {
            // The quotient cannot exceed min_granularity here; skip the
            // division on the loaded-queue hot path.
            min_granularity
        } else {
            (sched_latency / nr).max(min_granularity)
        };
        Some((key.1, slice))
    }

    /// Steals the longest-waiting task from the most loaded sibling queue
    /// (length > 1) and enqueues it fresh on `core`. Returns whether a
    /// steal happened; a miss with no crowded queue anywhere is O(1).
    pub(crate) fn steal_into(&mut self, m: &Machine, core: usize) -> bool {
        if self.crowded == 0 {
            return false;
        }
        let victim = self
            .members()
            .filter(|&(c, _)| c != core)
            .max_by_key(|(_, rq)| rq.queue.len())
            .map(|(c, rq)| (c, rq.queue.len()));
        match victim {
            Some((v, len)) if len > 1 => {
                let key = self.take(v, RunQueue::take_max).expect("non-empty");
                self.enqueue_new(m, core, key.1);
                true
            }
            _ => false,
        }
    }

    /// Rebalances queues so the longest and shortest differ by at most one
    /// (used after a core joins the group, §IV-B). Returns how many tasks
    /// moved.
    pub(crate) fn balance(&mut self, m: &Machine) -> usize {
        let mut moved = 0;
        loop {
            let (max_c, max_len) = match self.members().max_by_key(|(_, r)| r.queue.len()) {
                Some((c, r)) => (c, r.queue.len()),
                None => return moved,
            };
            let (min_c, min_len) = match self.members().min_by_key(|(_, r)| r.queue.len()) {
                Some((c, r)) => (c, r.queue.len()),
                None => return moved,
            };
            if max_len <= min_len + 1 {
                return moved;
            }
            let key = self.take(max_c, RunQueue::take_max).expect("non-empty");
            self.enqueue_new(m, min_c, key.1);
            moved += 1;
        }
    }
}
