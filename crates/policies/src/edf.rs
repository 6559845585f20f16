//! Earliest Deadline First (§III-C): deadline-priority scheduling with
//! arrival-time preemption.
//!
//! Each task's deadline is `arrival + expected duration` (falling back to
//! `arrival` when no hint is present — degrading to arrival order). A newly
//! arrived task with an earlier deadline than some running task preempts
//! the running task with the *latest* deadline. One of the Fig. 23
//! baselines.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faas_kernel::{CoreId, CoreState, Machine, Scheduler, TaskId};
use faas_simcore::SimTime;

/// Preemptive EDF over a global deadline-ordered queue.
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::Edf;
/// use faas_simcore::{SimDuration, SimTime};
///
/// // Task 1 arrives later but has a much tighter deadline.
/// let specs = vec![
///     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(500), 128)
///         .with_expected(SimDuration::from_millis(500)),
///     TaskSpec::function(SimTime::from_millis(10), SimDuration::from_millis(20), 128)
///         .with_expected(SimDuration::from_millis(20)),
/// ];
/// let report = Simulation::new(MachineConfig::new(1), specs, Edf::new()).run_slim()?;
/// assert!(report.tasks[1].completion() < report.tasks[0].completion());
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct Edf {
    queue: BinaryHeap<Reverse<(SimTime, TaskId)>>,
}

impl Edf {
    /// Creates an empty EDF agent.
    pub fn new() -> Self {
        Edf {
            queue: BinaryHeap::new(),
        }
    }

    /// Number of queued (not running) tasks.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    fn deadline(m: &Machine, task: TaskId) -> SimTime {
        let spec = m.task(task).spec();
        match spec.expected {
            Some(d) => spec.arrival + d,
            None => spec.arrival,
        }
    }

    fn push(&mut self, m: &Machine, task: TaskId) {
        self.queue.push(Reverse((Self::deadline(m, task), task)));
    }
}

impl Scheduler for Edf {
    fn name(&self) -> &str {
        "edf"
    }

    fn on_task_new(&mut self, m: &mut Machine, task: TaskId) {
        let dl = Self::deadline(m, task);
        self.push(m, task);
        // If every core is busy, preempt the running task with the latest
        // deadline, provided it is later than the newcomer's.
        let mut victim: Option<(SimTime, CoreId)> = None;
        let mut any_idle = false;
        for i in 0..m.num_cores() {
            let core = CoreId::from_index(i);
            match m.core_state(core) {
                CoreState::Idle => {
                    any_idle = true;
                    break;
                }
                CoreState::Running(t) => {
                    let d = Self::deadline(m, t);
                    if victim.map(|(vd, _)| d > vd).unwrap_or(true) {
                        victim = Some((d, core));
                    }
                }
                CoreState::Interference => {}
            }
        }
        if !any_idle {
            if let Some((vd, core)) = victim {
                if vd > dl {
                    let evicted = m.preempt(core).expect("victim core was running");
                    self.push(m, evicted);
                    // The idle sweep after this callback re-dispatches.
                }
            }
        }
    }

    fn on_slice_expired(&mut self, m: &mut Machine, task: TaskId, _core: CoreId) {
        self.push(m, task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        if let Some(Reverse((_, task))) = self.queue.pop() {
            m.dispatch(core, task, None).expect("dispatch on idle core");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, Simulation, TaskSpec};
    use faas_simcore::SimDuration;

    #[test]
    fn orders_by_deadline_not_arrival() {
        // Both queued behind a running task; the tighter deadline runs first.
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(100), 128)
                .with_expected(SimDuration::from_millis(100)),
            TaskSpec::function(SimTime::from_millis(1), SimDuration::from_millis(80), 128)
                .with_expected(SimDuration::from_secs(10)),
            TaskSpec::function(SimTime::from_millis(2), SimDuration::from_millis(80), 128)
                .with_expected(SimDuration::from_millis(90)),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Edf::new()).run_slim().unwrap();
        // Task 2 (deadline 92 ms) beats task 1 (deadline 10 s).
        assert!(report.tasks[2].completion().unwrap() < report.tasks[1].completion().unwrap());
    }

    #[test]
    fn urgent_arrival_preempts_latest_deadline() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_secs(5), 128)
                .with_expected(SimDuration::from_secs(60)),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(10), 128)
                .with_expected(SimDuration::from_millis(15)),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Edf::new()).run_slim().unwrap();
        assert!(
            report.tasks[0].preemptions() >= 1,
            "long task must be preempted"
        );
        assert!(
            report.tasks[1].response_time().unwrap() <= SimDuration::from_millis(5),
            "urgent task runs immediately"
        );
    }

    #[test]
    fn missing_hint_degrades_to_arrival_order() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(10), 128),
            TaskSpec::function(SimTime::from_millis(1), SimDuration::from_millis(10), 128),
        ];
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        let report = Simulation::new(cfg, specs, Edf::new()).run_slim().unwrap();
        assert!(report.tasks[0].completion().unwrap() < report.tasks[1].completion().unwrap());
    }
}
