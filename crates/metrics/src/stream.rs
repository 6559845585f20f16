//! Streaming (constant-space) counterparts of the record-vector
//! summaries.
//!
//! The materializing path computes [`crate::MetricSummary`] /
//! [`crate::RunSummary`] / [`crate::ClusterSummary`] from full
//! `Vec<TaskRecord>`s. The streaming cluster path retires records as they
//! finish, so it accumulates the same statistics online instead:
//!
//! * [`StreamStats`] — count / mean / max / total exactly (integer
//!   accumulators identical to `MetricSummary`'s arithmetic) plus
//!   quantiles from a [`QuantileSketch`] within a reported rank-error
//!   certificate — including **p999**, which the tail-latency argument at
//!   provider scale needs and the exact summary never offered;
//! * [`StreamRunStats`] — the three paper metrics per machine, fed one
//!   [`TaskRecord`] at a time;
//! * [`StreamClusterSummary`] — the [`crate::FleetSummary`] over these
//!   accumulators: per-machine stats merged **in machine order** into a
//!   fleet-wide summary holding O(sketch) memory instead of
//!   O(invocations).
//!
//! Everything except quantiles matches the exact path bit-for-bit (the
//! differential suite in `faas-cluster` pins this); quantiles carry their
//! own certificate.
//!
//! ```
//! use faas_metrics::{StreamRunStats, TaskRecord};
//! use faas_simcore::{SimDuration, SimTime};
//!
//! let mut stats = StreamRunStats::new(0.001);
//! for i in 1..=100u64 {
//!     stats.record(&TaskRecord {
//!         arrival: SimTime::ZERO,
//!         first_run: SimTime::from_millis(i),
//!         completion: SimTime::from_millis(i + 200),
//!         cpu_time: SimDuration::from_millis(200),
//!         preemptions: 0,
//!         mem_mib: 128,
//!     });
//! }
//! let summary = stats.to_summary();
//! assert_eq!(summary.response.p99, SimDuration::from_millis(99));
//! assert_eq!(summary.execution.max, SimDuration::from_millis(200));
//! ```

use faas_simcore::SimDuration;

use crate::merge::FleetSummary;
use crate::record::TaskRecord;
use crate::sketch::QuantileSketch;
use crate::summary::{Metric, MetricSummary, RunSummary};

/// Default sketch epsilon for streaming cluster runs: rank error ε·n with
/// ε = 5·10⁻⁴ keeps even the p999 target rank meaningfully resolved
/// (error at most half the p999 tail mass).
pub const DEFAULT_STREAM_EPSILON: f64 = 5e-4;

/// Online summary of one duration metric: exact count / total / mean /
/// max, sketched quantiles. The count and maximum are the sketch's own,
/// which it keeps exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Sum of all recorded durations in microseconds. `u128` so an
    /// hour-scale fleet trace cannot overflow the accumulator.
    total_micros: u128,
    sketch: QuantileSketch,
}

impl StreamStats {
    /// Creates an empty accumulator with the given sketch epsilon.
    pub fn new(epsilon: f64) -> Self {
        StreamStats {
            total_micros: 0,
            sketch: QuantileSketch::new(epsilon),
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let v = d.as_micros();
        self.total_micros += u128::from(v);
        self.sketch.record(v);
    }

    /// Merges another accumulator into this one (machine-order merging is
    /// the caller's contract; the sketch merge itself is commutative).
    pub fn merge_from(&mut self, other: &StreamStats) {
        self.total_micros += other.total_micros;
        self.sketch.merge_from(&other.sketch);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.sketch.count()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Exact sum of recorded durations.
    ///
    /// # Panics
    ///
    /// Panics if the total exceeds `u64::MAX` microseconds (≈584k years).
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(u64::try_from(self.total_micros).expect("total overflows u64 µs"))
    }

    /// Exact arithmetic mean, with the same integer division as
    /// [`MetricSummary::compute`]. Zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.is_empty() {
            return SimDuration::from_micros(0);
        }
        SimDuration::from_micros((self.total_micros / u128::from(self.count())) as u64)
    }

    /// Exact maximum. Zero when empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.sketch.max().unwrap_or(0))
    }

    /// Sketched `q`-quantile (nearest-rank convention). Zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        SimDuration::from_micros(self.sketch.quantile(q).unwrap_or(0))
    }

    /// Sketched 99.9th percentile — the provider-scale tail statistic the
    /// exact [`MetricSummary`] never carried.
    pub fn p999(&self) -> SimDuration {
        self.quantile(0.999)
    }

    /// The sketch's a-posteriori rank-error certificate, in ranks.
    pub fn rank_error_bound(&self) -> u64 {
        self.sketch.rank_error_bound()
    }

    /// Summary-tuple footprint of the sketch (memory proxy for tests).
    pub fn tuple_count(&self) -> usize {
        self.sketch.tuple_count()
    }

    /// Renders the accumulator as a [`MetricSummary`] so streaming runs
    /// can reuse every table/figure writer. Count, mean, max and total are
    /// exact; p50/p90/p99 come from the sketch.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been recorded (mirroring
    /// [`MetricSummary::compute`] on empty records).
    pub fn to_summary(&self) -> MetricSummary {
        assert!(!self.is_empty(), "cannot summarize zero records");
        MetricSummary {
            count: self.count() as usize,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
            total: self.total(),
        }
    }
}

/// Streaming counterpart of [`RunSummary`]: the paper's three §II-B
/// metrics accumulated record by record.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRunStats {
    /// Execution-time accumulator (`T_completion − T_firstrun`).
    pub execution: StreamStats,
    /// Response-time accumulator (`T_firstrun − T_arrival`).
    pub response: StreamStats,
    /// Turnaround-time accumulator (`T_completion − T_arrival`).
    pub turnaround: StreamStats,
}

impl StreamRunStats {
    /// Creates empty accumulators for all three metrics.
    pub fn new(epsilon: f64) -> Self {
        StreamRunStats {
            execution: StreamStats::new(epsilon),
            response: StreamStats::new(epsilon),
            turnaround: StreamStats::new(epsilon),
        }
    }

    /// Records one finished task across all three metrics.
    pub fn record(&mut self, r: &TaskRecord) {
        self.execution.record(Metric::Execution.of(r));
        self.response.record(Metric::Response.of(r));
        self.turnaround.record(Metric::Turnaround.of(r));
    }

    /// Merges another machine's accumulators into this one.
    pub fn merge_from(&mut self, other: &StreamRunStats) {
        self.execution.merge_from(&other.execution);
        self.response.merge_from(&other.response);
        self.turnaround.merge_from(&other.turnaround);
    }

    /// Number of recorded tasks.
    pub fn count(&self) -> u64 {
        self.execution.count()
    }

    /// `true` if no task has been recorded.
    pub fn is_empty(&self) -> bool {
        self.execution.is_empty()
    }

    /// Total summary-tuple footprint across the three sketches.
    pub fn tuple_count(&self) -> usize {
        self.execution.tuple_count() + self.response.tuple_count() + self.turnaround.tuple_count()
    }

    /// Renders all three accumulators as a [`RunSummary`].
    ///
    /// # Panics
    ///
    /// Panics if no task has been recorded.
    pub fn to_summary(&self) -> RunSummary {
        RunSummary {
            execution: self.execution.to_summary(),
            response: self.response.to_summary(),
            turnaround: self.turnaround.to_summary(),
        }
    }
}

/// Streaming counterpart of [`crate::ClusterSummary`]: fleet-wide
/// accumulators merged in machine order, plus fixed-size per-machine
/// summaries — O(machines with records × sketch) memory total (an empty
/// sketch holds no heap), independent of the number of invocations
/// simulated.
pub type StreamClusterSummary = FleetSummary<StreamRunStats>;

impl StreamClusterSummary {
    /// Merges per-machine accumulators (in slice order) into a cluster
    /// summary.
    ///
    /// # Panics
    ///
    /// Panics if no machine completed any task, mirroring
    /// [`crate::ClusterSummary::compute`].
    pub fn compute(per_machine: &[StreamRunStats]) -> Self {
        assert!(
            per_machine.iter().any(|m| !m.is_empty()),
            "cannot summarize zero records"
        );
        let epsilon = per_machine[0].execution.sketch.epsilon();
        let mut merged = StreamRunStats::new(epsilon);
        for m in per_machine {
            merged.merge_from(m);
        }
        FleetSummary::new(
            merged,
            per_machine
                .iter()
                .map(|m| (!m.is_empty()).then(|| m.to_summary()))
                .collect(),
        )
    }

    /// Renders the fleet-wide summary (see [`StreamRunStats::to_summary`]).
    pub fn summary(&self) -> RunSummary {
        self.merged.to_summary()
    }

    /// Total summary-tuple footprint of the merged sketches (memory proxy
    /// for the 1×-vs-10×-trace independence test).
    pub fn tuple_count(&self) -> usize {
        self.merged.tuple_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::RunSummary;
    use faas_simcore::SimTime;

    fn record(response_ms: u64, exec_ms: u64) -> TaskRecord {
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
    fn matches_exact_summary_on_small_runs() {
        // Below the compression threshold the sketch is exact, so the
        // whole rendered summary must equal the record-vector path.
        let records: Vec<TaskRecord> = (1..=100).map(|i| record(i, 2 * i)).collect();
        let exact = RunSummary::compute(&records);
        let mut stream = StreamRunStats::new(DEFAULT_STREAM_EPSILON);
        for r in &records {
            stream.record(r);
        }
        assert_eq!(stream.to_summary(), exact);
        assert_eq!(stream.count(), 100);
    }

    #[test]
    fn mean_total_max_are_exact_at_any_scale() {
        let mut stream = StreamStats::new(0.05);
        let mut total = 0u64;
        let mut max = 0u64;
        let n = 20_000u64;
        for i in 0..n {
            let us = (i * 7_919) % 100_000;
            stream.record(SimDuration::from_micros(us));
            total += us;
            max = max.max(us);
        }
        assert_eq!(stream.count(), n);
        assert_eq!(stream.total(), SimDuration::from_micros(total));
        assert_eq!(stream.mean(), SimDuration::from_micros(total / n));
        assert_eq!(stream.max(), SimDuration::from_micros(max));
    }

    #[test]
    fn p999_resolves_the_far_tail() {
        // 1 in 1000 records is slow; p999 must see it, p99 must not.
        let mut stream = StreamStats::new(DEFAULT_STREAM_EPSILON);
        for i in 0..100_000u64 {
            let us = if i % 1000 == 999 { 5_000_000 } else { 1_000 };
            stream.record(SimDuration::from_micros(us));
        }
        assert_eq!(stream.quantile(0.99), SimDuration::from_micros(1_000));
        assert_eq!(stream.p999(), SimDuration::from_micros(5_000_000));
    }

    #[test]
    fn empty_stats_render_safely() {
        let stats = StreamStats::new(0.01);
        assert!(stats.is_empty());
        assert_eq!(stats.mean(), SimDuration::from_micros(0));
        assert_eq!(stats.quantile(0.5), SimDuration::from_micros(0));
    }

    #[test]
    #[should_panic(expected = "zero records")]
    fn empty_summary_panics_like_exact_path() {
        let _ = StreamStats::new(0.01).to_summary();
    }

    #[test]
    fn cluster_summary_merges_in_machine_order() {
        // Fast machine + slow machine: merged p99 reflects the slow tail,
        // matching the exact ClusterSummary test for the same shape.
        let mut fast = StreamRunStats::new(DEFAULT_STREAM_EPSILON);
        for _ in 0..95 {
            fast.record(&record(1, 10));
        }
        let mut slow = StreamRunStats::new(DEFAULT_STREAM_EPSILON);
        for _ in 0..5 {
            slow.record(&record(1_000, 10));
        }
        let idle = StreamRunStats::new(DEFAULT_STREAM_EPSILON);
        let s = StreamClusterSummary::compute(&[fast, slow, idle]);
        assert_eq!(s.per_machine.len(), 3);
        assert!(s.per_machine[2].is_none(), "idle machine has no summary");
        assert_eq!(
            s.per_machine[0].as_ref().unwrap().response.p99,
            SimDuration::from_millis(1)
        );
        assert_eq!(s.summary().response.p99, SimDuration::from_millis(1_000));
        assert_eq!(
            s.response_p99_spread(),
            (SimDuration::from_millis(1), SimDuration::from_millis(1_000))
        );
    }

    #[test]
    #[should_panic(expected = "zero records")]
    fn all_idle_cluster_panics() {
        let _ = StreamClusterSummary::compute(&[StreamRunStats::new(0.01)]);
    }
}
