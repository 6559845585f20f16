//! Per-task measurement records.
//!
//! [`TaskRecord`] is the analysis-side view of a finished task, carrying
//! exactly what the paper's metrics (§II-B, Fig. 3) and its cost model
//! need: arrival, first run, completion, CPU time, preemptions and memory.

use faas_kernel::Task;
use faas_simcore::{SimDuration, SimTime};

/// The measurement record of one completed function invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// Arrival at the platform.
    pub arrival: SimTime,
    /// First time on a CPU.
    pub first_run: SimTime,
    /// Completion instant.
    pub completion: SimTime,
    /// Accumulated on-CPU time.
    pub cpu_time: SimDuration,
    /// Times the task was preempted.
    pub preemptions: u32,
    /// Allocated memory in MiB (drives pricing).
    pub mem_mib: u32,
}

impl TaskRecord {
    /// Execution time per §II-B: `T_completion − T_firstrun`. This is the
    /// *billable* duration in the paper's cost model.
    pub fn execution_time(&self) -> SimDuration {
        self.completion - self.first_run
    }

    /// Response time per §II-B: `T_firstrun − T_arrival`.
    pub fn response_time(&self) -> SimDuration {
        self.first_run - self.arrival
    }

    /// Turnaround time per §II-B: `T_completion − T_arrival`.
    pub fn turnaround_time(&self) -> SimDuration {
        self.completion - self.arrival
    }

    /// The schedule-induced execution inflation: wall-clock execution
    /// divided by pure CPU time (1.0 = never waited while started).
    pub fn stretch(&self) -> f64 {
        if self.cpu_time.is_zero() {
            return 1.0;
        }
        self.execution_time().as_secs_f64() / self.cpu_time.as_secs_f64()
    }
}

impl TryFrom<&Task> for TaskRecord {
    type Error = UnfinishedTaskError;

    /// Converts a kernel task record; fails when the task never finished.
    fn try_from(t: &Task) -> Result<Self, UnfinishedTaskError> {
        match (t.first_run(), t.completion()) {
            (Some(first_run), Some(completion)) => Ok(TaskRecord {
                arrival: t.spec().arrival,
                first_run,
                completion,
                cpu_time: t.cpu_time(),
                preemptions: t.preemptions(),
                mem_mib: t.spec().mem_mib,
            }),
            _ => Err(UnfinishedTaskError),
        }
    }
}

/// Error converting an unfinished task into a [`TaskRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnfinishedTaskError;

impl std::fmt::Display for UnfinishedTaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task has not finished")
    }
}

impl std::error::Error for UnfinishedTaskError {}

/// Converts every finished task of a report into records, preserving order
/// and skipping unfinished ones.
pub fn records_from_tasks(tasks: &[Task]) -> Vec<TaskRecord> {
    tasks
        .iter()
        .filter_map(|t| TaskRecord::try_from(t).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> TaskRecord {
        TaskRecord {
            arrival: SimTime::from_millis(100),
            first_run: SimTime::from_millis(150),
            completion: SimTime::from_millis(450),
            cpu_time: SimDuration::from_millis(100),
            preemptions: 2,
            mem_mib: 256,
        }
    }

    #[test]
    fn paper_metric_equations() {
        let r = record();
        assert_eq!(r.response_time(), SimDuration::from_millis(50));
        assert_eq!(r.execution_time(), SimDuration::from_millis(300));
        assert_eq!(r.turnaround_time(), SimDuration::from_millis(350));
        assert_eq!(
            r.turnaround_time(),
            r.response_time() + r.execution_time(),
            "turnaround = response + execution"
        );
    }

    #[test]
    fn stretch_ratio() {
        let r = record();
        assert!((r.stretch() - 3.0).abs() < 1e-12);
        let ideal = TaskRecord {
            cpu_time: SimDuration::from_millis(300),
            ..r
        };
        assert!((ideal.stretch() - 1.0).abs() < 1e-12);
        let degenerate = TaskRecord {
            cpu_time: SimDuration::ZERO,
            ..r
        };
        assert_eq!(degenerate.stretch(), 1.0);
    }

    #[test]
    fn conversion_from_kernel_task() {
        use faas_kernel::{CoreId, Machine, Scheduler, TaskId};
        use faas_kernel::{MachineConfig, Simulation, TaskSpec};
        struct Greedy;
        impl Scheduler for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn on_task_new(&mut self, m: &mut Machine, t: TaskId) {
                m.dispatch(CoreId::from_index(0), t, None).ok();
            }
            fn on_slice_expired(&mut self, _m: &mut Machine, _t: TaskId, _c: CoreId) {}
            fn on_core_idle(&mut self, _m: &mut Machine, _c: CoreId) {}
        }
        let specs = vec![TaskSpec::function(
            SimTime::ZERO,
            SimDuration::from_millis(10),
            512,
        )];
        let report = Simulation::new(MachineConfig::new(1), specs, Greedy)
            .run_slim()
            .unwrap();
        let recs = records_from_tasks(&report.tasks);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].mem_mib, 512);
        assert_eq!(recs[0].cpu_time, SimDuration::from_millis(10));
    }

    #[test]
    fn unfinished_task_rejected() {
        use faas_kernel::{Machine, MachineConfig, TaskSpec};
        let m = Machine::new(
            MachineConfig::new(1),
            vec![TaskSpec::function(
                SimTime::ZERO,
                SimDuration::from_millis(1),
                128,
            )],
        );
        let err = TaskRecord::try_from(&m.tasks()[0]).unwrap_err();
        assert_eq!(err, UnfinishedTaskError);
        assert_eq!(err.to_string(), "task has not finished");
    }
}
