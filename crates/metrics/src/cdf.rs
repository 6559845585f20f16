//! Duration CDFs — the paper plots every comparison (Figs. 4, 5, 6, 11,
//! 12, 21) as cumulative distribution functions of one of the §II-B
//! metrics.

use faas_simcore::{nearest_rank, SimDuration};

use crate::record::TaskRecord;
use crate::summary::Metric;

/// An empirical CDF over durations.
///
/// # Examples
///
/// ```
/// use faas_metrics::DurationCdf;
/// use faas_simcore::SimDuration;
///
/// let cdf = DurationCdf::from_durations(
///     (1..=10).map(SimDuration::from_millis).collect::<Vec<_>>(),
/// );
/// assert_eq!(cdf.fraction_at_most(SimDuration::from_millis(5)), 0.5);
/// assert_eq!(cdf.percentile(0.99), SimDuration::from_millis(10));
/// ```
#[derive(Debug, Clone)]
pub struct DurationCdf {
    sorted: Vec<SimDuration>,
}

impl DurationCdf {
    /// Builds a CDF from raw durations.
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty.
    pub fn from_durations(mut durations: Vec<SimDuration>) -> Self {
        assert!(!durations.is_empty(), "need at least one duration");
        durations.sort_unstable();
        DurationCdf { sorted: durations }
    }

    /// Builds the CDF of `metric` over `records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn of_metric(records: &[TaskRecord], metric: Metric) -> Self {
        DurationCdf::from_durations(records.iter().map(|r| metric.of(r)).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction requires samples); present for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= d)`.
    pub fn fraction_at_most(&self, d: SimDuration) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= d);
        idx as f64 / self.sorted.len() as f64
    }

    /// Nearest-rank percentile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile fraction must be in [0,1]"
        );
        self.sorted[nearest_rank(p, self.sorted.len() as u64) as usize - 1]
    }

    /// Samples the curve at `points` evenly spaced quantiles — the series a
    /// figure harness prints. Returns `(duration, cumulative_fraction)`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    pub fn series(&self, points: usize) -> Vec<(SimDuration, f64)> {
        assert!(points > 0, "need at least one point");
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                (self.percentile(p), p)
            })
            .collect()
    }

    /// The area between this CDF and `other` where `self` is to the left
    /// (smaller durations): a scalar "who wins and by how much" for tests.
    /// Positive means `self` stochastically dominates (is faster than)
    /// `other`.
    pub fn advantage_over(&self, other: &DurationCdf) -> f64 {
        let points = 200;
        let mut acc = 0.0;
        for i in 1..=points {
            let p = i as f64 / points as f64;
            let a = self.percentile(p).as_secs_f64();
            let b = other.percentile(p).as_secs_f64();
            acc += b - a;
        }
        acc / points as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::SimTime;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn fraction_and_percentile_agree() {
        let cdf = DurationCdf::from_durations((1..=100).map(ms).collect());
        for p in [0.1, 0.5, 0.9, 0.99] {
            let d = cdf.percentile(p);
            assert!(cdf.fraction_at_most(d) >= p - 1e-9);
        }
    }

    #[test]
    fn series_is_monotone() {
        let cdf = DurationCdf::from_durations(vec![ms(5), ms(1), ms(9), ms(3)]);
        let series = cdf.series(10);
        assert_eq!(series.len(), 10);
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(series.last().unwrap().0, ms(9));
    }

    #[test]
    fn advantage_sign() {
        let fast = DurationCdf::from_durations((1..=50).map(ms).collect());
        let slow = DurationCdf::from_durations((51..=100).map(ms).collect());
        assert!(fast.advantage_over(&slow) > 0.0);
        assert!(slow.advantage_over(&fast) < 0.0);
        assert!((fast.advantage_over(&fast)).abs() < 1e-12);
    }

    #[test]
    fn of_metric_reads_records() {
        let records: Vec<TaskRecord> = (1..=4)
            .map(|i| TaskRecord {
                arrival: SimTime::ZERO,
                first_run: SimTime::from_millis(i),
                completion: SimTime::from_millis(10 * i),
                cpu_time: ms(1),
                preemptions: 0,
                mem_mib: 128,
            })
            .collect();
        let cdf = DurationCdf::of_metric(&records, Metric::Response);
        assert_eq!(cdf.percentile(1.0), ms(4));
        assert_eq!(cdf.len(), 4);
    }
}
