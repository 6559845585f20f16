//! # lambda-pricing
//!
//! The AWS-Lambda-style pay-per-millisecond cost model the paper uses for
//! every cost figure (Figs. 1, 20, 22, Table I, Fig. 23).
//!
//! AWS Lambda bills `GB-seconds` of *wall-clock* duration — not CPU time —
//! at a flat tariff, so a scheduler that stretches execution time (CFS
//! time-slicing) directly costs the user money (§I, Obs. 5). The billable
//! duration of an invocation is the paper's execution time:
//! `T_completion − T_firstrun`.
//!
//! ```
//! use faas_metrics::TaskRecord;
//! use faas_simcore::{SimDuration, SimTime};
//! use lambda_pricing::PriceModel;
//!
//! let model = PriceModel::duration_only();
//! let record = TaskRecord {
//!     arrival: SimTime::ZERO,
//!     first_run: SimTime::ZERO,
//!     completion: SimTime::from_secs(1),
//!     cpu_time: SimDuration::from_secs(1),
//!     preemptions: 0,
//!     mem_mib: 1_024,
//! };
//! // 1 GB for 1 second = one GB-second.
//! let usd = model.cost_of(&record);
//! assert!((usd - 1.66667e-5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faas_metrics::TaskRecord;
use faas_simcore::SimDuration;

/// The standard AWS Lambda memory tiers the cost sweeps use (Figs. 1/20/22
/// plot cost as if all functions had the same size).
pub const SWEEP_TIERS_MIB: [u32; 7] = [128, 256, 512, 1_024, 2_048, 4_096, 10_240];

/// A pay-per-duration tariff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceModel {
    /// USD per GB-second of billed duration.
    pub usd_per_gb_second: f64,
    /// USD per request (AWS charges $0.20 per million).
    pub usd_per_request: f64,
    /// Billing granularity; durations are rounded *up* to a multiple.
    pub granularity: SimDuration,
}

impl PriceModel {
    /// The public AWS Lambda x86 tariff as of 2024: $0.0000166667 per
    /// GB-second, $0.20 per million requests, 1 ms granularity.
    pub fn aws_lambda_2024() -> Self {
        PriceModel {
            usd_per_gb_second: 1.66667e-5,
            usd_per_request: 0.2e-6,
            granularity: SimDuration::from_millis(1),
        }
    }

    /// A tariff without the per-request component (duration-only analyses,
    /// matching the paper's "multiplying the total execution time … by the
    /// cost per millisecond").
    pub fn duration_only() -> Self {
        PriceModel {
            usd_per_request: 0.0,
            ..PriceModel::aws_lambda_2024()
        }
    }

    /// The per-millisecond price of one invocation at `mem_mib`.
    pub fn usd_per_ms(&self, mem_mib: u32) -> f64 {
        self.usd_per_gb_second * (mem_mib as f64 / 1_024.0) / 1_000.0
    }

    /// Billable duration: rounded up to the granularity.
    pub fn billable(&self, duration: SimDuration) -> SimDuration {
        let g = self.granularity.as_micros();
        if g == 0 {
            return duration;
        }
        let d = duration.as_micros();
        SimDuration::from_micros(d.div_ceil(g) * g)
    }

    /// Cost in USD of one invocation, using its own memory size and the
    /// paper's billable duration (execution time).
    pub fn cost_of(&self, record: &TaskRecord) -> f64 {
        self.cost_of_duration(record.execution_time(), record.mem_mib)
    }

    /// Cost in USD of a `duration` at `mem_mib`.
    pub fn cost_of_duration(&self, duration: SimDuration, mem_mib: u32) -> f64 {
        self.billable(duration).as_millis_f64() * self.usd_per_ms(mem_mib) + self.usd_per_request
    }

    /// Total workload cost, each invocation billed at its own memory size —
    /// Table I's "overall cost … according to the memory size distribution
    /// of the Azure traces".
    pub fn workload_cost(&self, records: &[TaskRecord]) -> f64 {
        records.iter().map(|r| self.cost_of(r)).sum()
    }

    /// Total cost of a whole fleet: per-machine record sets summed in
    /// machine order (billing is additive, so this equals the cost of the
    /// merged workload) — the `$`-axis of the cluster dispatch-policy
    /// comparisons.
    pub fn cluster_workload_cost(&self, per_machine: &[Vec<TaskRecord>]) -> f64 {
        per_machine.iter().map(|r| self.workload_cost(r)).sum()
    }

    /// Total workload cost as if every function had `mem_mib` — one bar of
    /// the Fig. 1/20/22 sweeps.
    pub fn workload_cost_at(&self, records: &[TaskRecord], mem_mib: u32) -> f64 {
        records
            .iter()
            .map(|r| self.cost_of_duration(r.execution_time(), mem_mib))
            .sum()
    }

    /// The full memory sweep: `(mem_mib, usd)` per tier — the series behind
    /// Figs. 1, 20 and 22.
    pub fn memory_sweep(&self, records: &[TaskRecord]) -> Vec<(u32, f64)> {
        SWEEP_TIERS_MIB
            .iter()
            .map(|&tier| (tier, self.workload_cost_at(records, tier)))
            .collect()
    }
}

/// Online cost accumulator: bills invocations one at a time as they
/// retire instead of pricing a materialized record vector.
///
/// The running total is a plain left-to-right `f64` sum — the *same* fold
/// [`PriceModel::workload_cost`] performs — so a streaming run that
/// retires records in record order produces a bitwise-identical total to
/// the materializing path (pinned by the cluster differential suite).
///
/// Work that never leaves a [`TaskRecord`] — an invocation shed by the
/// router, a crash-doomed or abandoned attempt, the losing side of a
/// hedge — is billed through [`record_duration`](Self::record_duration)
/// from the spec's would-have-been duration (CPU work + billed I/O
/// wait). Each of those ledgers is a left-to-right fold in the order the
/// serial front end charged it, so it is byte-identical at any fan width
/// or trace chunking.
#[derive(Debug, Clone, PartialEq)]
pub struct CostAccumulator {
    model: PriceModel,
    total_usd: f64,
    count: u64,
}

impl CostAccumulator {
    /// An empty accumulator billing under `model`.
    pub fn new(model: PriceModel) -> Self {
        CostAccumulator {
            model,
            total_usd: 0.0,
            count: 0,
        }
    }

    /// Bills one finished invocation.
    pub fn record(&mut self, record: &TaskRecord) {
        self.record_duration(record.execution_time(), record.mem_mib);
    }

    /// Bills one invocation that occupied (or would have occupied) the
    /// platform for `duration` at `mem_mib`.
    pub fn record_duration(&mut self, duration: SimDuration, mem_mib: u32) {
        self.total_usd += self.model.cost_of_duration(duration, mem_mib);
        self.count += 1;
    }

    /// Running total in USD.
    pub fn total_usd(&self) -> f64 {
        self.total_usd
    }

    /// Number of invocations billed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The tariff this accumulator bills under.
    pub fn model(&self) -> &PriceModel {
        &self.model
    }
}

/// The relative extra cost of `more` over `less` (e.g. "CFS introduces
/// more than 10 times extra cost compared to FIFO", Fig. 1).
///
/// # Panics
///
/// Panics if `less` is not positive.
pub fn cost_ratio(more: f64, less: f64) -> f64 {
    assert!(less > 0.0, "baseline cost must be positive");
    more / less
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::SimTime;

    fn record(exec_ms: u64, mem_mib: u32) -> TaskRecord {
        TaskRecord {
            arrival: SimTime::ZERO,
            first_run: SimTime::ZERO,
            completion: SimTime::from_millis(exec_ms),
            cpu_time: SimDuration::from_millis(exec_ms),
            preemptions: 0,
            mem_mib,
        }
    }

    #[test]
    fn gb_second_reference_point() {
        let m = PriceModel::duration_only();
        // 1 GB × 1 s = $0.0000166667.
        let usd = m.cost_of(&record(1_000, 1_024));
        assert!((usd - 1.66667e-5).abs() < 1e-12);
        // Half the memory, half the price.
        let usd_half = m.cost_of(&record(1_000, 512));
        assert!((usd_half * 2.0 - usd).abs() < 1e-12);
    }

    #[test]
    fn per_request_component() {
        let m = PriceModel::aws_lambda_2024();
        let with = m.cost_of(&record(1, 128));
        let without = PriceModel::duration_only().cost_of(&record(1, 128));
        assert!((with - without - 0.2e-6).abs() < 1e-15);
    }

    #[test]
    fn billing_rounds_up_to_granularity() {
        let m = PriceModel::aws_lambda_2024();
        assert_eq!(
            m.billable(SimDuration::from_micros(1)),
            SimDuration::from_millis(1)
        );
        assert_eq!(
            m.billable(SimDuration::from_micros(1_001)),
            SimDuration::from_millis(2)
        );
        assert_eq!(
            m.billable(SimDuration::from_millis(5)),
            SimDuration::from_millis(5)
        );
        assert_eq!(m.billable(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn billed_on_wall_clock_not_cpu() {
        // A task that waited while "executing" (CFS stretching) pays for
        // the waiting — the paper's central point.
        let m = PriceModel::duration_only();
        let stretched = TaskRecord {
            completion: SimTime::from_secs(10),
            cpu_time: SimDuration::from_millis(100),
            ..record(0, 1_024)
        };
        let compact = record(100, 1_024);
        assert!(m.cost_of(&stretched) > 99.0 * m.cost_of(&compact));
    }

    #[test]
    fn workload_cost_sums() {
        let m = PriceModel::duration_only();
        let records = vec![record(100, 128), record(200, 256)];
        let total = m.workload_cost(&records);
        assert!((total - (m.cost_of(&records[0]) + m.cost_of(&records[1]))).abs() < 1e-15);
    }

    #[test]
    fn cluster_cost_equals_merged_cost() {
        let m = PriceModel::duration_only();
        let shards = vec![
            vec![record(100, 128), record(200, 256)],
            vec![],
            vec![record(50, 1_024)],
        ];
        let merged: Vec<TaskRecord> = shards.iter().flatten().copied().collect();
        assert!((m.cluster_workload_cost(&shards) - m.workload_cost(&merged)).abs() < 1e-15);
    }

    #[test]
    fn memory_sweep_scales_linearly() {
        let m = PriceModel::duration_only();
        let records = vec![record(1_000, 128); 10];
        let sweep = m.memory_sweep(&records);
        assert_eq!(sweep.len(), SWEEP_TIERS_MIB.len());
        let at_128 = sweep[0].1;
        let at_1024 = sweep.iter().find(|(t, _)| *t == 1_024).unwrap().1;
        assert!(
            (at_1024 / at_128 - 8.0).abs() < 1e-9,
            "price scales with memory"
        );
    }

    #[test]
    fn accumulator_matches_workload_cost_bitwise() {
        // Same records, same order: the streaming fold must equal the
        // materializing fold down to the last bit (f64 addition is
        // order-sensitive, and both paths add left to right).
        let m = PriceModel::aws_lambda_2024();
        let records: Vec<TaskRecord> = (1..=1_000)
            .map(|i| record(i % 97 + 1, [128, 256, 1_024][i as usize % 3]))
            .collect();
        let mut acc = CostAccumulator::new(m);
        for r in &records {
            acc.record(r);
        }
        assert_eq!(
            acc.total_usd().to_bits(),
            m.workload_cost(&records).to_bits()
        );
        assert_eq!(acc.count(), 1_000);
        assert_eq!(acc.model(), &m);
    }

    #[test]
    fn shed_accumulator_prices_forfeited_duration() {
        // A shed invocation costs exactly what the same duration would
        // have billed had it run — same tariff, same rounding.
        let m = PriceModel::aws_lambda_2024();
        let mut shed = CostAccumulator::new(m);
        shed.record_duration(SimDuration::from_millis(100), 128);
        shed.record_duration(SimDuration::from_millis(250), 1_024);
        let ran = m.cost_of_duration(SimDuration::from_millis(100), 128)
            + m.cost_of_duration(SimDuration::from_millis(250), 1_024);
        assert_eq!(shed.total_usd().to_bits(), ran.to_bits());
        assert_eq!(shed.count(), 2);
        assert_eq!(shed.model(), &m);
    }

    #[test]
    fn churn_accumulator_keeps_retry_and_abandon_ledgers_apart() {
        let m = PriceModel::duration_only();
        let mut retry_cost = CostAccumulator::new(m);
        let mut abandoned_cost = CostAccumulator::new(m);
        retry_cost.record_duration(SimDuration::from_millis(100), 128);
        retry_cost.record_duration(SimDuration::from_millis(100), 128);
        abandoned_cost.record_duration(SimDuration::from_millis(400), 256);
        let retry = 2.0 * m.cost_of_duration(SimDuration::from_millis(100), 128);
        let gone = m.cost_of_duration(SimDuration::from_millis(400), 256);
        assert_eq!(retry_cost.count(), 2);
        assert_eq!(abandoned_cost.count(), 1);
        assert_eq!(retry_cost.total_usd().to_bits(), retry.to_bits());
        assert_eq!(abandoned_cost.total_usd().to_bits(), gone.to_bits());
        assert_eq!(
            (retry_cost.total_usd() + abandoned_cost.total_usd()).to_bits(),
            (retry + gone).to_bits()
        );
        assert_eq!(retry_cost.model(), &m);
    }

    #[test]
    fn hedge_accumulator_prices_losing_attempts_bitwise() {
        // A losing hedge costs exactly what the same duration would have
        // billed had it completed — same tariff, same rounding, same
        // left-to-right fold order.
        let m = PriceModel::aws_lambda_2024();
        let mut hedge = CostAccumulator::new(m);
        hedge.record_duration(SimDuration::from_millis(100), 128);
        hedge.record_duration(SimDuration::from_millis(250), 1_024);
        let ran = m.cost_of_duration(SimDuration::from_millis(100), 128)
            + m.cost_of_duration(SimDuration::from_millis(250), 1_024);
        assert_eq!(hedge.total_usd().to_bits(), ran.to_bits());
        assert_eq!(hedge.count(), 2);
        assert_eq!(hedge.model(), &m);
    }

    #[test]
    fn cost_ratio_basics() {
        assert!((cost_ratio(10.0, 1.0) - 10.0).abs() < 1e-12);
        assert!((cost_ratio(1.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_baseline_rejected() {
        let _ = cost_ratio(1.0, 0.0);
    }
}
