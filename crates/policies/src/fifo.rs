//! The global-queue policies: one FIFO run queue, optionally time-sliced.
//!
//! Four of the compared schedulers differ only in the slice every dispatch
//! carries (§II-D, §III-C):
//!
//! * [`Fifo::new`] — run to completion. Optimal *execution* time at the
//!   cost of head-of-line blocking in the global queue (poor *response*
//!   time): the paper's cheap-but-slow baseline in Figs. 1, 4, 5, 6, 20,
//!   23 and Table I.
//! * [`Fifo::with_limit`] — the paper's "FIFO 100ms" (§II-D): a task that
//!   exceeds the limit is preempted and moved to the queue tail.
//!   Observation 3: this trades execution time for a large response-time
//!   improvement and a net turnaround win.
//! * [`Fifo::round_robin`] — Round-Robin with a fixed quantum, one of the
//!   Fig. 23 baselines.
//! * [`Fifo::shinjuku`] — Shinjuku-like centralized scheduling \[42\]: a
//!   small quantum, so every waiting task gets on-CPU within one queue
//!   rotation. A lone task re-dispatched onto the same core resumes
//!   *warm* (the kernel charges no switch cost), so slicing is free
//!   without contention. To model Shinjuku's cheap hardware-assisted
//!   preemption under contention, pair it with a reduced
//!   [`CostModel`](faas_kernel::CostModel) (see the Fig. 23 harness).

use std::collections::VecDeque;

use faas_kernel::{CoreId, Machine, Scheduler, TaskId};
use faas_simcore::SimDuration;

/// Global-queue FIFO, run to completion or time-sliced.
///
/// A task whose slice expires goes to the queue *tail*. So does a task
/// host-OS interference kicks off a core, even without a slice: in ghOSt
/// the preempted thread re-enters the agent via a new message and is
/// appended like any other wakeup. This is exactly the mechanism the
/// paper blames for plain FIFO's poor p99 execution time (Table I).
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::Fifo;
/// use faas_simcore::{SimDuration, SimTime};
///
/// let specs = vec![
///     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(30), 128),
///     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
/// ];
/// let report = Simulation::new(MachineConfig::new(1), specs, Fifo::new()).run_slim()?;
/// // Arrival order wins: the 30 ms task finishes first despite being longer.
/// assert!(report.tasks[0].completion() < report.tasks[1].completion());
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Fifo {
    queue: VecDeque<TaskId>,
    /// Slice every dispatch carries; `None` runs tasks to completion.
    slice: Option<SimDuration>,
    name: &'static str,
}

impl Default for Fifo {
    fn default() -> Self {
        Fifo::new()
    }
}

impl Fifo {
    /// Plain FIFO: tasks run to completion (report name `"fifo"`).
    pub fn new() -> Self {
        Fifo {
            queue: VecDeque::new(),
            slice: None,
            name: "fifo",
        }
    }

    /// FIFO with a preemption limit (`"fifo+limit"`).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_limit(limit: SimDuration) -> Self {
        Fifo::sliced("fifo+limit", limit)
    }

    /// Round-Robin with a fixed quantum (`"round-robin"`).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn round_robin(quantum: SimDuration) -> Self {
        Fifo::sliced("round-robin", quantum)
    }

    /// Shinjuku-like centralized scheduling with a small preemption
    /// quantum (`"shinjuku"`).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn shinjuku(quantum: SimDuration) -> Self {
        Fifo::sliced("shinjuku", quantum)
    }

    fn sliced(name: &'static str, slice: SimDuration) -> Self {
        assert!(!slice.is_zero(), "slice must be positive");
        Fifo {
            slice: Some(slice),
            name,
            ..Fifo::new()
        }
    }

    /// The slice every dispatch carries (`None` for plain FIFO).
    pub fn slice(&self) -> Option<SimDuration> {
        self.slice
    }

    /// Number of tasks waiting in the global queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        self.name
    }

    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        self.queue.push_back(task);
    }

    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
        self.queue.push_back(task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        if let Some(task) = self.queue.pop_front() {
            m.dispatch(core, task, self.slice)
                .expect("fifo dispatch on idle core");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, Simulation, SlimReport, TaskSpec};
    use faas_simcore::SimTime;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn uniform_specs(n: usize, work_ms: u64) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| TaskSpec::function(SimTime::ZERO, ms(work_ms), 128))
            .collect()
    }

    fn run_free(cores: usize, specs: Vec<TaskSpec>, policy: Fifo) -> SlimReport {
        let cfg = MachineConfig::new(cores).with_cost(CostModel::free());
        Simulation::new(cfg, specs, policy).run_slim().unwrap()
    }

    /// The worst response time among `tasks`.
    fn worst_response(tasks: &[faas_kernel::Task]) -> SimDuration {
        tasks
            .iter()
            .map(|t| t.response_time().unwrap())
            .max()
            .unwrap()
    }

    #[test]
    fn constructors_keep_report_names_and_slices() {
        let cases = [
            (Fifo::new(), "fifo", None),
            (Fifo::default(), "fifo", None),
            (Fifo::with_limit(ms(100)), "fifo+limit", Some(ms(100))),
            (Fifo::round_robin(ms(7)), "round-robin", Some(ms(7))),
            (Fifo::shinjuku(ms(1)), "shinjuku", Some(ms(1))),
        ];
        for (policy, name, slice) in cases {
            assert_eq!(policy.name(), name);
            assert_eq!(policy.slice(), slice, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "slice must be positive")]
    fn zero_limit_rejected() {
        let _ = Fifo::with_limit(SimDuration::ZERO);
    }

    #[test]
    fn runs_in_arrival_order_single_core() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::function(SimTime::from_millis(i), ms(50), 128))
            .collect();
        let report = run_free(1, specs, Fifo::new());
        let first_runs: Vec<_> = report
            .tasks
            .iter()
            .map(|t| t.first_run().unwrap())
            .collect();
        let mut sorted = first_runs.clone();
        sorted.sort();
        assert_eq!(first_runs, sorted);
    }

    #[test]
    fn execution_equals_work_without_interference() {
        let report = run_free(2, uniform_specs(10, 25), Fifo::new());
        for t in &report.tasks {
            assert_eq!(t.execution_time().unwrap(), ms(25));
            assert_eq!(t.preemptions(), 0);
        }
    }

    #[test]
    fn head_of_line_blocking_hurts_response() {
        // One huge task in front of many tiny tasks on one core.
        let mut specs = vec![TaskSpec::function(
            SimTime::ZERO,
            SimDuration::from_secs(10),
            128,
        )];
        specs.extend(uniform_specs(5, 1));
        let report = run_free(1, specs, Fifo::new());
        for t in &report.tasks[1..] {
            assert!(t.response_time().unwrap() >= SimDuration::from_secs(10));
        }
    }

    #[test]
    fn zero_preemptions_across_cores() {
        let cfg = MachineConfig::new(4).with_cost(CostModel::default());
        let report = Simulation::new(cfg, uniform_specs(40, 10), Fifo::new())
            .run_slim()
            .unwrap();
        assert_eq!(report.total_preemptions(), 0);
    }

    #[test]
    fn short_tasks_finish_unpreempted() {
        let report = run_free(2, uniform_specs(5, 50), Fifo::with_limit(ms(100)));
        assert!(report.tasks.iter().all(|t| t.preemptions() == 0));
    }

    #[test]
    fn long_task_cycles_to_queue_tail() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, ms(250), 128),
            TaskSpec::function(SimTime::ZERO, ms(10), 128),
            TaskSpec::function(SimTime::ZERO, ms(10), 128),
        ];
        let report = run_free(1, specs, Fifo::with_limit(ms(100)));
        // The two 10 ms tasks finish before the 250 ms task despite
        // arriving later: they slipped in after its first slice.
        assert!(report.tasks[1].completion().unwrap() < report.tasks[0].completion().unwrap());
        assert!(report.tasks[2].completion().unwrap() < report.tasks[0].completion().unwrap());
        assert!(report.tasks[1].response_time().unwrap() <= ms(100));
        assert!(report.tasks[0].preemptions() >= 2);
    }

    #[test]
    fn response_time_improves_over_plain_fifo() {
        // Paper §II-D: preemption alleviates head-of-line blocking.
        let mk_specs = || {
            let mut v = vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(5),
                128,
            )];
            v.extend(
                (0..10).map(|i| TaskSpec::function(SimTime::from_millis(i * 10), ms(20), 128)),
            );
            v
        };
        let plain = run_free(1, mk_specs(), Fifo::new());
        let limited = run_free(1, mk_specs(), Fifo::with_limit(ms(100)));
        assert!(worst_response(&limited.tasks[1..]) < worst_response(&plain.tasks[1..]));
        // …while the long task's execution time got worse (Obs. 3).
        assert!(
            limited.tasks[0].execution_time().unwrap() > plain.tasks[0].execution_time().unwrap()
        );
    }

    #[test]
    fn interleaves_equal_tasks() {
        let report = run_free(1, uniform_specs(2, 30), Fifo::round_robin(ms(10)));
        // Processor sharing: both finish within one quantum of each other,
        // each sliced at least twice.
        let c0 = report.tasks[0].completion().unwrap().as_millis();
        let c1 = report.tasks[1].completion().unwrap().as_millis();
        assert!(c0.abs_diff(c1) <= 10, "{c0} vs {c1}");
        assert!(report.tasks.iter().all(|t| t.preemptions() >= 2));
    }

    #[test]
    fn short_task_not_blocked_behind_long() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(2), 128),
            TaskSpec::function(SimTime::from_millis(1), ms(10), 128),
        ];
        let report = run_free(1, specs, Fifo::round_robin(ms(50)));
        assert!(
            report.tasks[1].completion().unwrap() < SimTime::from_millis(200),
            "short task must finish quickly under RR"
        );
    }

    #[test]
    fn lone_task_pays_no_switch_cost() {
        // Quantum expiries on a lone task are warm resumes: with a
        // non-zero cost model the task still finishes in exactly its work
        // time plus the single initial switch.
        let specs = vec![TaskSpec::function(SimTime::ZERO, ms(500), 128)];
        let cfg = MachineConfig::new(1).with_cost(CostModel::from_micros(10, 1_000));
        let report = Simulation::new(cfg, specs, Fifo::shinjuku(ms(1)))
            .run_slim()
            .unwrap();
        assert_eq!(
            report.tasks[0].completion().unwrap().as_micros(),
            500_000 + 10,
            "only the initial context switch is charged"
        );
        assert_eq!(report.core_stats[0].ctx_switches, 1);
    }

    #[test]
    fn contended_tasks_share_within_quanta() {
        let report = run_free(2, uniform_specs(8, 20), Fifo::shinjuku(ms(1)));
        for t in &report.tasks {
            assert!(
                t.response_time().unwrap() <= ms(10),
                "centralized quantum keeps response low, got {}",
                t.response_time().unwrap()
            );
        }
    }

    #[test]
    fn tail_latency_beats_fifo_under_skew() {
        // One heavy task plus many light ones; compare p-worst response.
        let mk = || {
            let mut v = vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_secs(3),
                128,
            )];
            v.extend((1..20).map(|i| TaskSpec::function(SimTime::from_millis(i), ms(5), 128)));
            v
        };
        let fifo = run_free(1, mk(), Fifo::new());
        let shin = run_free(1, mk(), Fifo::shinjuku(ms(1)));
        assert!(worst_response(&shin.tasks) < worst_response(&fifo.tasks) / 10);
    }
}
