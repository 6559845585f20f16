//! Cross-machine (cluster-level) record merging.
//!
//! A fleet run produces one record set per machine; every cluster-level
//! statistic — the merged CDFs and percentiles of the dispatch-policy
//! comparisons, the fleet dollar cost — is computed over the
//! concatenation. Merging is **in machine order** (shard 0's records
//! first, in their original task order), so cluster output is a pure
//! function of the per-machine results no matter how the machine
//! simulations were fanned across threads.
//!
//! [`FleetSummary`] is the one fleet-level summary, generic over the
//! merged statistics: both run paths attach the same per-machine
//! summaries and front-end ledgers to it.

use crate::chaos::ChaosStats;
use crate::health::{HealthStats, MachineHealth};
use crate::overload::OverloadStats;
use crate::record::TaskRecord;
use crate::summary::RunSummary;

/// Concatenates per-machine record sets in machine order.
///
/// Order within a machine is preserved; machines contribute in slice
/// order. All rank statistics ([`crate::DurationCdf`], [`RunSummary`])
/// are order-insensitive, but a fixed merge order keeps any record-level
/// output (CSV exports, digests) byte-identical across fan schedules.
///
/// # Examples
///
/// ```
/// use faas_metrics::{merge_records, TaskRecord};
/// use faas_simcore::{SimDuration, SimTime};
///
/// let rec = |ms: u64| TaskRecord {
///     arrival: SimTime::ZERO,
///     first_run: SimTime::ZERO,
///     completion: SimTime::from_millis(ms),
///     cpu_time: SimDuration::from_millis(ms),
///     preemptions: 0,
///     mem_mib: 128,
/// };
/// let merged = merge_records(&[vec![rec(10), rec(20)], vec![rec(30)]]);
/// assert_eq!(merged.len(), 3);
/// assert_eq!(merged[2], rec(30));
/// ```
pub fn merge_records(per_machine: &[Vec<TaskRecord>]) -> Vec<TaskRecord> {
    let total = per_machine.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for records in per_machine {
        out.extend_from_slice(records);
    }
    out
}

/// Fleet-level summary: the merged statistics `M` across all machines,
/// each machine's own summary (for balance/outlier inspection), and the
/// ledgers of the front end's layers. [`ClusterSummary`] merges exact
/// [`RunSummary`]s; [`StreamClusterSummary`](crate::StreamClusterSummary)
/// merges streaming accumulators.
#[derive(Debug, Clone)]
pub struct FleetSummary<M> {
    /// Statistics over every machine's completed tasks, merged in machine
    /// order.
    pub merged: M,
    /// One summary per machine, in machine order; `None` for a machine
    /// that completed no tasks (possible under heavy downscaling).
    pub per_machine: Vec<Option<RunSummary>>,
    /// What the dispatch-tier overload middleware refused or killed.
    /// All-zero when the front end ran without middleware.
    pub overload: OverloadStats,
    /// What the fault-injection layer crashed, retried, and scaled.
    /// All-zero when the front end ran without chaos.
    pub chaos: ChaosStats,
    /// What the node-health feedback layer ejected, probed and hedged.
    /// All-zero when the front end ran without a health config.
    pub health: HealthStats,
    /// Per-machine health columns (EWMA, ejections, time spent
    /// ejected), in machine order; empty without a health config.
    pub machine_health: Vec<MachineHealth>,
}

/// The materializing path's fleet summary: exact statistics computed
/// from every machine's records.
pub type ClusterSummary = FleetSummary<RunSummary>;

impl<M> FleetSummary<M> {
    /// A summary with every layer's ledger still empty.
    pub(crate) fn new(merged: M, per_machine: Vec<Option<RunSummary>>) -> Self {
        FleetSummary {
            merged,
            per_machine,
            overload: OverloadStats::default(),
            chaos: ChaosStats::default(),
            health: HealthStats::default(),
            machine_health: Vec::new(),
        }
    }

    /// Attaches the overload middleware's shed ledger (the merged
    /// statistics only describe work that *ran*).
    pub fn with_overload(mut self, overload: OverloadStats) -> Self {
        self.overload = overload;
        self
    }

    /// Attaches the chaos layer's fault/retry/autoscale ledger (crashed
    /// attempts and abandoned invocations leave no [`TaskRecord`]).
    pub fn with_chaos(mut self, chaos: ChaosStats) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches the health layer's ejection/probe/hedge ledger and the
    /// per-machine health columns (in machine order).
    pub fn with_health(mut self, health: HealthStats, machines: Vec<MachineHealth>) -> Self {
        self.health = health;
        self.machine_health = machines;
        self
    }

    /// The spread of per-machine p99 response times: `(min, max)` across
    /// machines that completed tasks — a quick imbalance indicator for
    /// dispatch policies.
    pub fn response_p99_spread(&self) -> (faas_simcore::SimDuration, faas_simcore::SimDuration) {
        let p99s = self.per_machine.iter().flatten().map(|s| s.response.p99);
        let min = p99s.clone().min().unwrap_or_default();
        let max = p99s.max().unwrap_or_default();
        (min, max)
    }
}

impl ClusterSummary {
    /// Computes the merged and per-machine summaries.
    ///
    /// # Panics
    ///
    /// Panics if no machine completed any task (there is nothing to
    /// summarize).
    pub fn compute(per_machine: &[Vec<TaskRecord>]) -> Self {
        FleetSummary::new(
            RunSummary::over(per_machine),
            per_machine
                .iter()
                .map(|r| (!r.is_empty()).then(|| RunSummary::compute(r)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::{SimDuration, SimTime};

    fn rec(response_ms: u64, exec_ms: u64) -> TaskRecord {
        TaskRecord {
            arrival: SimTime::ZERO,
            first_run: SimTime::from_millis(response_ms),
            completion: SimTime::from_millis(response_ms + exec_ms),
            cpu_time: SimDuration::from_millis(exec_ms),
            preemptions: 0,
            mem_mib: 128,
        }
    }

    #[test]
    fn merge_keeps_machine_then_task_order() {
        let shards = vec![vec![rec(1, 1), rec(2, 1)], vec![], vec![rec(3, 1)]];
        let merged = merge_records(&shards);
        let responses: Vec<u64> = merged
            .iter()
            .map(|r| r.response_time().as_millis())
            .collect();
        assert_eq!(responses, vec![1, 2, 3]);
    }

    #[test]
    fn cluster_summary_merges_percentiles_across_machines() {
        // Machine 0 is fast, machine 1 slow: the merged p99 must reflect
        // the slow machine's tail, which no per-machine summary shows.
        let fast: Vec<TaskRecord> = (0..95).map(|_| rec(1, 10)).collect();
        let slow: Vec<TaskRecord> = (0..5).map(|_| rec(1_000, 10)).collect();
        let s = ClusterSummary::compute(&[fast, slow]);
        assert_eq!(s.per_machine.len(), 2);
        assert_eq!(
            s.per_machine[0].unwrap().response.p99,
            SimDuration::from_millis(1),
            "fast machine alone has a 1 ms tail"
        );
        assert_eq!(
            s.merged.response.p99,
            SimDuration::from_millis(1_000),
            "merged tail comes from the slow machine"
        );
        let (min, max) = s.response_p99_spread();
        assert_eq!(min, SimDuration::from_millis(1));
        assert_eq!(max, SimDuration::from_millis(1_000));
    }

    #[test]
    fn idle_machines_are_tolerated() {
        let merged = merge_records(&[]);
        assert!(merged.is_empty());
        // One busy machine, one machine that never completed a task.
        let s = ClusterSummary::compute(&[vec![rec(5, 10)], vec![]]);
        assert!(s.per_machine[0].is_some());
        assert!(s.per_machine[1].is_none(), "idle machine has no summary");
        assert_eq!(
            s.response_p99_spread(),
            (SimDuration::from_millis(5), SimDuration::from_millis(5))
        );
    }
}
