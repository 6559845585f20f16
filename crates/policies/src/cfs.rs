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
//! offset is fixed at enqueue time (placement at `min_vruntime`).

use faas_kernel::{CoreId, CoreState, Machine, Scheduler, TaskId};
use faas_simcore::{MinHeap4, SimDuration};

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
type RunQueue = MinHeap4<RqKey>;

#[derive(Debug, Default)]
struct CoreRq {
    /// Runnable tasks keyed by effective vruntime (µs) with id tie-break.
    /// A dense 4-ary heap: picking the next task is a cache-local
    /// `pop_min` with no node allocation or pointer chasing, and the
    /// (vruntime, id) keys are unique, so min/max picks match the old
    /// `BTreeSet` ordering exactly.
    queue: RunQueue,
    /// Monotone floor for new placements.
    min_vruntime: i64,
}

/// The simulated CFS agent.
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
/// let report = Simulation::new(MachineConfig::new(1), specs, Cfs::with_cores(1)).run()?;
/// let exec = report.tasks[0].execution_time().unwrap();
/// assert!(exec >= SimDuration::from_millis(500), "time slicing stretches execution");
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Cfs {
    params: CfsParams,
    rqs: Vec<CoreRq>,
    /// vruntime offset per task: effective vr = offset + cpu_time.
    offsets: Vec<i64>,
    /// Smallest runnable count at which the slice formula bottoms out at
    /// `min_granularity`; at or beyond it the per-dispatch hot path skips
    /// the division (loaded queues hit this constantly).
    slice_floor_nr: u64,
    /// Run queues holding at least two tasks — the only ones a steal may
    /// take from. While it is zero a steal attempt misses in O(1) instead
    /// of scanning every queue.
    crowded: usize,
}

impl Cfs {
    /// CFS over `cores` cores with default parameters.
    pub fn with_cores(cores: usize) -> Self {
        Cfs::with_params(cores, CfsParams::default())
    }

    /// CFS with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `min_granularity` is zero.
    pub fn with_params(cores: usize, params: CfsParams) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            !params.min_granularity.is_zero(),
            "min_granularity must be positive"
        );
        Cfs {
            params,
            rqs: (0..cores).map(|_| CoreRq::default()).collect(),
            offsets: Vec::new(),
            slice_floor_nr: params
                .sched_latency
                .as_micros()
                .div_ceil(params.min_granularity.as_micros()),
            crowded: 0,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> CfsParams {
        self.params
    }

    /// Runnable tasks queued on `core` (excluding the running one).
    pub fn queue_len(&self, core: usize) -> usize {
        self.rqs[core].queue.len()
    }

    fn effective_vr(&self, m: &Machine, task: TaskId) -> i64 {
        self.offsets[task.index()] + m.task(task).cpu_time().as_micros() as i64
    }

    fn enqueue_at(&mut self, m: &Machine, core: usize, task: TaskId, at_min: bool) {
        self.enqueue_with_bonus(m, core, task, at_min, 0);
    }

    /// Enqueues with a vruntime placement bonus (µs below `min_vruntime`)
    /// — the sleeper-fairness credit real CFS grants wakeups, which is
    /// what arms the wakeup-preemption check.
    fn enqueue_with_bonus(
        &mut self,
        m: &Machine,
        core: usize,
        task: TaskId,
        at_min: bool,
        bonus_us: i64,
    ) {
        if self.offsets.len() <= task.index() {
            self.offsets.resize(task.index() + 1, 0);
        }
        if at_min {
            let cpu = m.task(task).cpu_time().as_micros() as i64;
            self.offsets[task.index()] = self.rqs[core].min_vruntime - bonus_us - cpu;
        }
        let key = (self.effective_vr(m, task), task);
        let queue = &mut self.rqs[core].queue;
        queue.push(key);
        if queue.len() == 2 {
            self.crowded += 1;
        }
    }

    /// Takes one key off `core`'s queue with `pick` (`pop_min` or
    /// `take_max`), keeping the crowded-queue count.
    fn take(&mut self, core: usize, pick: fn(&mut RunQueue) -> Option<RqKey>) -> Option<RqKey> {
        let queue = &mut self.rqs[core].queue;
        let key = pick(queue)?;
        if queue.len() == 1 {
            self.crowded -= 1;
        }
        Some(key)
    }

    fn least_loaded_core(&self, m: &Machine) -> usize {
        (0..self.rqs.len())
            .min_by_key(|&i| {
                let running =
                    matches!(m.core_state(CoreId::from_index(i)), CoreState::Running(_)) as usize;
                self.rqs[i].queue.len() + running
            })
            .expect("at least one core")
    }

    /// Asserts the incremental crowded-queue count against a scan of
    /// every queue (the test oracle).
    #[cfg(test)]
    fn check_crowded(&self) {
        let scan = self.rqs.iter().filter(|rq| rq.queue.len() >= 2).count();
        assert_eq!(
            self.crowded, scan,
            "crowded-queue count diverged from the scan"
        );
    }

    fn slice_for(&self, queued_after_pick: usize) -> SimDuration {
        let nr = queued_after_pick as u64 + 1;
        if nr >= self.slice_floor_nr {
            // nr * min_granularity >= sched_latency, so the quotient can
            // only be <= min_granularity: the max() below would pick the
            // floor anyway. Skip the division.
            return self.params.min_granularity;
        }
        (self.params.sched_latency / nr).max(self.params.min_granularity)
    }
}

impl Scheduler for Cfs {
    fn name(&self) -> &str {
        "cfs"
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        let core = self.least_loaded_core(m);
        // New tasks get the sleeper credit: placed half a latency period
        // below min_vruntime (bounded unfairness, like the kernel).
        let bonus = (self.params.sched_latency / 2).as_micros() as i64;
        self.enqueue_with_bonus(m, core, task, true, bonus);
        if !self.params.wakeup_preemption {
            return;
        }
        // check_preempt_wakeup: if the core is running something whose
        // vruntime is far enough ahead of the newcomer, kick it off now;
        // the idle sweep re-picks the smallest vruntime (the newcomer).
        let core_id = CoreId::from_index(core);
        if let Some((running, _)) = m.running_on(core_id) {
            let lead = self.effective_vr(m, running) - self.effective_vr(m, task);
            if lead >= self.params.wakeup_granularity.as_micros() as i64 {
                let evicted = m.preempt(core_id).expect("core was running");
                self.enqueue_at(m, core, evicted, false);
            }
        }
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, core: CoreId) {
        // Keep the accumulated offset: vruntime advanced by the on-CPU time.
        self.enqueue_at(m, core.index(), task, false);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        let idx = core.index();
        if self.rqs[idx].queue.is_empty() {
            if self.crowded == 0 {
                return; // no queue to steal from; stay idle
            }
            // Load balance: steal the task that would wait longest on the
            // most loaded sibling queue (its own queue is empty, so some
            // sibling holds two or more).
            let victim = (0..self.rqs.len())
                .filter(|&i| i != idx)
                .max_by_key(|&i| self.rqs[i].queue.len())
                .expect("a crowded sibling queue");
            let key = self.take(victim, RunQueue::take_max).expect("non-empty");
            self.enqueue_at(m, idx, key.1, true);
        }
        let key = self.take(idx, RunQueue::pop_min).expect("non-empty queue");
        let rq = &mut self.rqs[idx];
        rq.min_vruntime = rq.min_vruntime.max(key.0);
        let slice = self.slice_for(self.rqs[idx].queue.len());
        m.dispatch(core, key.1, Some(slice))
            .expect("cfs dispatch on idle core");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{
        CostModel, InterferenceConfig, MachineConfig, SimReport, Simulation, TaskSpec,
    };
    use faas_simcore::{check, SimTime};

    fn run(cores: usize, specs: Vec<TaskSpec>) -> SimReport {
        let cfg = MachineConfig::new(cores).with_cost(CostModel::free());
        Simulation::new(cfg, specs, Cfs::with_cores(cores))
            .run()
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
            .run()
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
            .run()
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
                sim.policy().check_crowded();
            }
            sim.policy().check_crowded();
        });
    }

    #[test]
    fn slice_respects_min_granularity() {
        let cfs = Cfs::with_cores(1);
        assert_eq!(cfs.slice_for(0), SimDuration::from_millis(24));
        assert_eq!(cfs.slice_for(1), SimDuration::from_millis(12));
        assert_eq!(cfs.slice_for(100), SimDuration::from_millis(3));
    }
}
