//! Statistical summaries of a set of task records.

use faas_simcore::{nearest_rank, SimDuration};

use crate::record::TaskRecord;

/// Which of the paper's three §II-B metrics to summarize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// `T_completion − T_firstrun` (the billable duration).
    Execution,
    /// `T_firstrun − T_arrival`.
    Response,
    /// `T_completion − T_arrival`.
    Turnaround,
}

impl Metric {
    /// All three metrics in the paper's plotting order.
    pub const ALL: [Metric; 3] = [Metric::Execution, Metric::Response, Metric::Turnaround];

    /// Extracts this metric from a record.
    pub fn of(self, r: &TaskRecord) -> SimDuration {
        match self {
            Metric::Execution => r.execution_time(),
            Metric::Response => r.response_time(),
            Metric::Turnaround => r.turnaround_time(),
        }
    }

    /// The label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Execution => "execution",
            Metric::Response => "response",
            Metric::Turnaround => "turnaround",
        }
    }
}

/// Five-number-ish summary of one metric over a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Number of records summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median (nearest rank).
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 99th percentile — the paper's Table I headline.
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
    /// Sum over all records (useful for cost).
    pub total: SimDuration,
}

impl MetricSummary {
    /// Summarizes `metric` over `records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn compute(records: &[TaskRecord], metric: Metric) -> Self {
        Self::over(&[records], metric)
    }

    /// Summarizes `metric` over the concatenation of `parts` without
    /// copying the records together. The quantiles are nearest-rank
    /// selections, and the total an integer sum, so neither depends on
    /// the order of the records.
    ///
    /// # Panics
    ///
    /// Panics if `parts` hold no record.
    pub(crate) fn over<R: AsRef<[TaskRecord]>>(parts: &[R], metric: Metric) -> Self {
        let n: usize = parts.iter().map(|p| p.as_ref().len()).sum();
        assert!(n > 0, "cannot summarize zero records");
        let mut values = Vec::with_capacity(n);
        for part in parts {
            values.extend(part.as_ref().iter().map(|r| metric.of(r)));
        }
        let total: SimDuration = values.iter().copied().sum();
        let rank = |p: f64| nearest_rank(p, n as u64) as usize - 1;
        let (i50, i90, i99) = (rank(0.50), rank(0.90), rank(0.99));
        // Each selection leaves the values at or below its index in the
        // prefix up to it, so the next lower quantile is selected there.
        let (_, &mut p99, above) = values.select_nth_unstable(i99);
        let max = above.iter().copied().max().unwrap_or(p99);
        let p90 = *values[..=i99].select_nth_unstable(i90).1;
        let p50 = *values[..=i90].select_nth_unstable(i50).1;
        MetricSummary {
            count: n,
            mean: SimDuration::from_micros(total.as_micros() / n as u64),
            p50,
            p90,
            p99,
            max,
            total,
        }
    }
}

/// Table-I-style row: all three metric summaries for one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Execution-time summary.
    pub execution: MetricSummary,
    /// Response-time summary.
    pub response: MetricSummary,
    /// Turnaround-time summary.
    pub turnaround: MetricSummary,
}

impl RunSummary {
    /// Computes all three summaries.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn compute(records: &[TaskRecord]) -> Self {
        Self::over(&[records])
    }

    /// All three summaries over the concatenation of `parts`, without
    /// copying the records together.
    ///
    /// # Panics
    ///
    /// Panics if `parts` hold no record.
    pub(crate) fn over<R: AsRef<[TaskRecord]>>(parts: &[R]) -> Self {
        RunSummary {
            execution: MetricSummary::over(parts, Metric::Execution),
            response: MetricSummary::over(parts, Metric::Response),
            turnaround: MetricSummary::over(parts, Metric::Turnaround),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn summary_of_uniform_records() {
        let records: Vec<TaskRecord> = (1..=100).map(|i| record(0, i)).collect();
        let s = MetricSummary::compute(&records, Metric::Execution);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, SimDuration::from_millis(50));
        assert_eq!(s.p90, SimDuration::from_millis(90));
        assert_eq!(s.p99, SimDuration::from_millis(99));
        assert_eq!(s.max, SimDuration::from_millis(100));
        assert_eq!(s.total, SimDuration::from_millis(5_050));
        assert_eq!(s.mean, SimDuration::from_micros(50_500));
    }

    #[test]
    fn metric_extraction() {
        let r = record(10, 40);
        assert_eq!(Metric::Response.of(&r), SimDuration::from_millis(10));
        assert_eq!(Metric::Execution.of(&r), SimDuration::from_millis(40));
        assert_eq!(Metric::Turnaround.of(&r), SimDuration::from_millis(50));
        assert_eq!(Metric::Execution.label(), "execution");
        assert_eq!(Metric::ALL.len(), 3);
    }

    #[test]
    fn run_summary_composes() {
        let records: Vec<TaskRecord> = (0..10).map(|i| record(i, 10 * (i + 1))).collect();
        let rs = RunSummary::compute(&records);
        assert_eq!(rs.response.max, SimDuration::from_millis(9));
        assert_eq!(rs.execution.max, SimDuration::from_millis(100));
        assert_eq!(rs.turnaround.max, SimDuration::from_millis(109));
    }

    #[test]
    fn single_record() {
        let s = MetricSummary::compute(&[record(5, 20)], Metric::Turnaround);
        assert_eq!(s.p50, s.p99);
        assert_eq!(s.p99, SimDuration::from_millis(25));
    }

    /// Selection reads the same nearest-rank quantiles as a full sort,
    /// and a split input the same as the whole, on inputs with heavy
    /// ties and on distinct values alike.
    #[test]
    fn property_selection_matches_sorted_quantiles() {
        faas_simcore::check::run("selected quantiles == sorted quantiles", 64, |g| {
            let n = g.usize_in(1, 400);
            let spread = g.u64_in(1, 1_000);
            let records: Vec<TaskRecord> = (0..n)
                .map(|_| record(g.u64_in(0, spread), g.u64_in(0, spread)))
                .collect();
            let cut = g.usize_in(0, n + 1);
            for metric in Metric::ALL {
                let mut sorted: Vec<SimDuration> = records.iter().map(|r| metric.of(r)).collect();
                sorted.sort_unstable();
                let at = |p: f64| sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
                let s = MetricSummary::compute(&records, metric);
                assert_eq!(
                    (s.p50, s.p90, s.p99, s.max),
                    (at(0.50), at(0.90), at(0.99), sorted[n - 1])
                );
                assert_eq!(s.total, sorted.iter().copied().sum());
                let split = MetricSummary::over(&[&records[..cut], &records[cut..]], metric);
                assert_eq!(split, s);
            }
        });
    }

    #[test]
    #[should_panic]
    fn empty_records_panic() {
        let _ = MetricSummary::compute(&[], Metric::Execution);
    }
}
