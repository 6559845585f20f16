//! SFS-like least-attained-service scheduling (the paper's closest
//! related work [25]).
//!
//! SFS ("Smart OS scheduling for serverless functions", SC'22)
//! approximates Shortest-Remaining-Time-First in user space: since exact
//! remaining time is unknown, it privileges the task that has *attained
//! the least service so far* — newly arrived (short-looking) functions run
//! before functions that have already consumed CPU. We implement the
//! classic least-attained-service (foreground–background) discipline with
//! a quantum: pick the runnable task with minimal accumulated CPU time,
//! run it for one quantum, re-queue.
//!
//! Fresh tasks therefore behave like FIFO-without-preemption until they
//! exceed one quantum, after which they fall behind newer arrivals —
//! mirroring SFS's bucketed demotion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faas_kernel::{CoreId, Machine, Scheduler, TaskId};
use faas_simcore::SimDuration;

/// Least-attained-service policy with a fixed quantum.
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::Sfs;
/// use faas_simcore::{SimDuration, SimTime};
///
/// // A hog arrives first; a short function arrives later and still wins.
/// let specs = vec![
///     TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(2), 128),
///     TaskSpec::function(SimTime::from_millis(300), SimDuration::from_millis(40), 128),
/// ];
/// let report =
///     Simulation::new(MachineConfig::new(1), specs, Sfs::new(SimDuration::from_millis(50)))
///         .run_slim()?;
/// assert!(report.tasks[1].completion() < report.tasks[0].completion());
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Sfs {
    /// Runnable tasks keyed by (attained service µs, arrival order).
    queue: BinaryHeap<Reverse<(u64, TaskId)>>,
    quantum: SimDuration,
}

impl Sfs {
    /// Creates the policy with the given service quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Sfs {
            queue: BinaryHeap::new(),
            quantum,
        }
    }

    /// The configured quantum.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// Number of queued (not running) tasks.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn push(&mut self, m: &Machine, task: TaskId) {
        let attained = m.task(task).cpu_time().as_micros();
        self.queue.push(Reverse((attained, task)));
    }
}

impl Scheduler for Sfs {
    fn name(&self) -> &str {
        "sfs"
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        self.push(m, task);
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, _core: CoreId) {
        self.push(m, task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        if let Some(Reverse((_, task))) = self.queue.pop() {
            m.dispatch(core, task, Some(self.quantum))
                .expect("dispatch on idle core");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, Simulation, TaskSpec};
    use faas_simcore::SimTime;

    fn quantum() -> SimDuration {
        SimDuration::from_millis(50)
    }

    #[test]
    fn least_attained_runs_first() {
        // Two tasks: after the first exceeds a quantum, the newcomer with
        // zero attained service preempts at the next dispatch point.
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(500), 128),
            TaskSpec::function(SimTime::from_millis(60), SimDuration::from_millis(60), 128),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Sfs::new(quantum()))
            .run_slim()
            .unwrap();
        assert!(report.tasks[1].completion().unwrap() < report.tasks[0].completion().unwrap());
    }

    #[test]
    fn short_functions_fly_through_a_loaded_system() {
        // A pile of hogs plus periodic short functions: every short one
        // must finish in a handful of quanta.
        let mut specs: Vec<TaskSpec> = (0..4)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(3), 128))
            .collect();
        for i in 0..10 {
            specs.push(TaskSpec::function(
                SimTime::from_millis(200 + i * 100),
                SimDuration::from_millis(20),
                128,
            ));
        }
        let cfg = MachineConfig::new(2).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Sfs::new(quantum()))
            .run_slim()
            .unwrap();
        for t in &report.tasks[4..] {
            assert!(
                t.turnaround_time().unwrap() <= SimDuration::from_millis(200),
                "short function stuck for {}",
                t.turnaround_time().unwrap()
            );
        }
    }

    #[test]
    fn equal_tasks_degrade_to_round_robin() {
        let specs: Vec<TaskSpec> = (0..3)
            .map(|_| TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(150), 128))
            .collect();
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Sfs::new(quantum()))
            .run_slim()
            .unwrap();
        let completions: Vec<u64> = report
            .tasks
            .iter()
            .map(|t| t.completion().unwrap().as_millis())
            .collect();
        let spread = completions.iter().max().unwrap() - completions.iter().min().unwrap();
        assert!(spread <= 100, "fair sharing expected, spread {spread}ms");
    }

    #[test]
    #[should_panic]
    fn zero_quantum_rejected() {
        let _ = Sfs::new(SimDuration::ZERO);
    }
}
