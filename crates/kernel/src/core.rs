//! Simulated CPU cores.

use faas_simcore::{SimDuration, SimTime};

use crate::task::TaskId;

/// Stable identifier of a CPU core within one [`Machine`](crate::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub(crate) u16);

impl CoreId {
    /// The numeric index of this core (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a core id from an index.
    ///
    /// Only meaningful for indices below the machine's core count; the
    /// machine validates ids at use sites.
    pub fn from_index(index: usize) -> Self {
        CoreId(index as u16)
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Nothing scheduled.
    Idle,
    /// Running the given task.
    Running(TaskId),
    /// Occupied by the host OS (native-kernel interference, §VI-D /
    /// Table I discussion); no enclave task can run.
    Interference,
}

/// Internal per-core bookkeeping.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) state: CoreState,
    /// Invalidates in-flight completion/slice events after preemption.
    pub(crate) generation: u64,
    /// When the current occupancy (dispatch or interference) began;
    /// meaningful only while the core is busy.
    pub(crate) busy_since: SimTime,
    /// When the current task starts making real progress (after the
    /// context-switch direct cost).
    pub(crate) work_start: SimTime,
    /// Preemptions suffered on this core (slice expiry + explicit + interference).
    pub(crate) preemptions: u64,
    /// Context switches performed on this core.
    pub(crate) ctx_switches: u64,
    /// Task that most recently ran on this core (for free re-dispatch).
    pub(crate) last_task: Option<TaskId>,
    /// CPU time of the task last dispatched here right after the latest
    /// slice the kernel renewed since that dispatch; zero if none.
    pub(crate) renewed_cpu: SimDuration,
}

impl Core {
    pub(crate) fn new() -> Self {
        Core {
            state: CoreState::Idle,
            generation: 0,
            busy_since: SimTime::ZERO,
            work_start: SimTime::ZERO,
            preemptions: 0,
            ctx_switches: 0,
            last_task: None,
            renewed_cpu: SimDuration::ZERO,
        }
    }
}

/// Aggregated per-core statistics exposed after (or during) a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Number of preemptions suffered on this core.
    pub preemptions: u64,
    /// Number of context switches performed on this core.
    pub ctx_switches: u64,
    /// Total busy time (task work + switch overhead + interference).
    pub busy: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_roundtrip() {
        let id = CoreId::from_index(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "C5");
    }

    #[test]
    fn fresh_core_is_idle() {
        let c = Core::new();
        assert_eq!(c.state, CoreState::Idle);
        assert_eq!(c.generation, 0);
        assert_eq!(c.preemptions, 0);
    }
}
