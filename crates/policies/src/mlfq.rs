//! Multi-Level Feedback Queue — the textbook scheduler from the book the
//! paper takes its metrics from (Arpaci-Dusseau, *Operating Systems:
//! Three Easy Pieces* [37]), included in the Fig. 23 scheduler zoo.
//!
//! New tasks enter the highest-priority level with a short quantum; a task
//! that exhausts its quantum is demoted one level (each level's quantum
//! doubles). A periodic priority boost returns everything to the top
//! level, bounding starvation.

use std::collections::VecDeque;

use faas_kernel::{CoreId, Machine, Scheduler, TaskId};
use faas_simcore::SimDuration;

/// Configuration of the MLFQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlfqParams {
    /// Number of priority levels.
    pub levels: usize,
    /// Quantum of the highest level; level `i` gets `base_quantum << i`.
    pub base_quantum: SimDuration,
    /// Period of the anti-starvation priority boost.
    pub boost_every: SimDuration,
}

impl Default for MlfqParams {
    fn default() -> Self {
        MlfqParams {
            levels: 4,
            base_quantum: SimDuration::from_millis(10),
            boost_every: SimDuration::from_secs(1),
        }
    }
}

/// The multi-level feedback queue agent.
///
/// # Examples
///
/// ```
/// use faas_kernel::{MachineConfig, Simulation, TaskSpec};
/// use faas_policies::{Mlfq, MlfqParams};
/// use faas_simcore::{SimDuration, SimTime};
///
/// let specs = vec![
///     TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(500), 128),
///     TaskSpec::function(SimTime::from_millis(50), SimDuration::from_millis(5), 128),
/// ];
/// let report =
///     Simulation::new(MachineConfig::new(1), specs, Mlfq::new(MlfqParams::default())).run_slim()?;
/// // The interactive-looking task jumps the demoted hog.
/// assert!(report.tasks[1].completion() < report.tasks[0].completion());
/// # Ok::<(), faas_kernel::SimError>(())
/// ```
#[derive(Debug)]
pub struct Mlfq {
    params: MlfqParams,
    queues: Vec<VecDeque<TaskId>>,
    /// Current level per task (grown on demand).
    level_of: Vec<usize>,
}

impl Mlfq {
    /// Creates the agent.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or `base_quantum` is zero.
    pub fn new(params: MlfqParams) -> Self {
        assert!(params.levels > 0, "need at least one level");
        assert!(!params.base_quantum.is_zero(), "quantum must be positive");
        Mlfq {
            queues: (0..params.levels).map(|_| VecDeque::new()).collect(),
            level_of: Vec::new(),
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> MlfqParams {
        self.params
    }

    /// Tasks queued at `level`.
    pub fn queue_len(&self, level: usize) -> usize {
        self.queues[level].len()
    }

    fn level_slot(&mut self, task: TaskId) -> &mut usize {
        if self.level_of.len() <= task.index() {
            self.level_of.resize(task.index() + 1, 0);
        }
        &mut self.level_of[task.index()]
    }

    fn quantum_at(&self, level: usize) -> SimDuration {
        self.params.base_quantum * (1u64 << level.min(20))
    }
}

impl Scheduler for Mlfq {
    fn name(&self) -> &str {
        "mlfq"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.params.boost_every)
    }

    fn on_task_new(&mut self, _m: &mut Machine, task: TaskId) {
        *self.level_slot(task) = 0;
        self.queues[0].push_back(task);
    }

    fn on_slice_expired(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
        // Used its whole quantum: demote.
        let bottom = self.queues.len() - 1;
        let slot = self.level_slot(task);
        *slot = (*slot + 1).min(bottom);
        let level = *slot;
        self.queues[level].push_back(task);
    }

    fn on_interference_preempt(&mut self, _m: &mut Machine, task: TaskId, _core: CoreId) {
        // Not the task's fault: same level, front of its queue.
        let level = *self.level_slot(task);
        self.queues[level].push_front(task);
    }

    fn on_core_idle(&mut self, m: &mut Machine, core: CoreId) {
        for level in 0..self.queues.len() {
            if let Some(task) = self.queues[level].pop_front() {
                let q = self.quantum_at(level);
                m.dispatch(core, task, Some(q))
                    .expect("dispatch on idle core");
                return;
            }
        }
    }

    fn on_tick(&mut self, _m: &mut Machine) {
        // Priority boost: everything back to the top level, preserving
        // order top-down.
        let mut boosted = VecDeque::new();
        for q in self.queues.iter_mut() {
            while let Some(t) = q.pop_front() {
                boosted.push_back(t);
            }
        }
        for &t in &boosted {
            *self.level_slot(t) = 0;
        }
        self.queues[0] = boosted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_kernel::{CostModel, MachineConfig, Simulation, TaskSpec};
    use faas_simcore::SimTime;

    fn run(specs: Vec<TaskSpec>, params: MlfqParams) -> faas_kernel::SlimReport {
        let cfg = MachineConfig::new(1).with_cost(CostModel::free());
        Simulation::new(cfg, specs, Mlfq::new(params))
            .run_slim()
            .unwrap()
    }

    #[test]
    fn hog_gets_demoted_below_newcomers() {
        let specs = vec![
            TaskSpec::function(SimTime::ZERO, SimDuration::from_millis(400), 128),
            TaskSpec::function(SimTime::from_millis(100), SimDuration::from_millis(8), 128),
        ];
        let report = run(specs, MlfqParams::default());
        // The newcomer waits at most the hog's current (bottom-level)
        // quantum of 80 ms before jumping ahead of it.
        assert!(
            report.tasks[1].response_time().unwrap() <= SimDuration::from_millis(80),
            "newcomer must run within one bottom-level quantum, got {}",
            report.tasks[1].response_time().unwrap()
        );
        assert!(
            report.tasks[1].completion().unwrap() < report.tasks[0].completion().unwrap(),
            "newcomer finishes well before the demoted hog"
        );
    }

    #[test]
    fn boost_prevents_starvation() {
        // A hog plus a steady stream of short tasks: without the boost the
        // hog would starve at the bottom level; with it, it finishes.
        let mut specs = vec![TaskSpec::function(
            SimTime::ZERO,
            SimDuration::from_millis(900),
            128,
        )];
        specs.extend((0..200).map(|i| {
            TaskSpec::function(
                SimTime::from_millis(i * 9),
                SimDuration::from_millis(8),
                128,
            )
        }));
        let params = MlfqParams {
            boost_every: SimDuration::from_millis(200),
            ..MlfqParams::default()
        };
        let report = run(specs, params);
        assert!(
            report.tasks[0].completion().is_some(),
            "hog must not starve"
        );
    }

    #[test]
    fn quanta_double_per_level() {
        let mlfq = Mlfq::new(MlfqParams::default());
        assert_eq!(mlfq.quantum_at(0), SimDuration::from_millis(10));
        assert_eq!(mlfq.quantum_at(1), SimDuration::from_millis(20));
        assert_eq!(mlfq.quantum_at(3), SimDuration::from_millis(80));
    }

    #[test]
    fn demotion_saturates_at_bottom_level() {
        let specs = vec![TaskSpec::function(
            SimTime::ZERO,
            SimDuration::from_secs(2),
            128,
        )];
        let params = MlfqParams {
            levels: 3,
            boost_every: SimDuration::from_secs(60),
            ..MlfqParams::default()
        };
        let report = run(specs, params);
        // 2 s at the bottom quantum (40 ms) is ~50 slices — no panic from
        // out-of-range levels, task completes.
        assert!(report.tasks[0].completion().is_some());
    }

    #[test]
    #[should_panic]
    fn zero_levels_rejected() {
        let _ = Mlfq::new(MlfqParams {
            levels: 0,
            ..MlfqParams::default()
        });
    }
}
