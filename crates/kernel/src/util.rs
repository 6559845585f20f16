//! Per-core utilization accounting.
//!
//! The paper's provider-side mechanisms (time-limit adaptation and CPU-group
//! rightsizing, §IV-B) are driven by a utilization monitor — their daemon
//! samples psutil into shared memory. Our simulated equivalent accumulates
//! per-core busy microseconds into fixed-width time buckets, from which the
//! policy (and the figure harnesses) read windowed averages.
//!
//! A run to completion keeps every bucket, so the timeline figures can
//! read the whole series. A streaming run would then grow by one word per
//! core per simulated second, so it bounds the ledger to the trailing
//! window its policy reads: older busy time folds into per-core totals as
//! it is recorded.

use faas_simcore::{SimDuration, SimTime};

/// Accumulates busy time per core in fixed-width buckets.
///
/// A streaming run bounds the ledger to a trailing window (see
/// [`MachineRun::bound_utilization`](crate::MachineRun::bound_utilization)):
/// each core then keeps only the buckets a read of that window can still
/// reach and folds the rest into its total, so totals stay exact and a
/// read of a folded bucket panics instead of answering zero. Every other
/// run keeps the whole series.
///
/// # Examples
///
/// ```
/// use faas_kernel::UtilizationLedger;
/// use faas_simcore::{SimDuration, SimTime};
///
/// let mut ledger = UtilizationLedger::new(2, SimDuration::from_secs(1));
/// // Core 0 busy for the first half of second zero.
/// ledger.record_busy(0, SimTime::ZERO, SimTime::from_millis(500));
/// assert_eq!(ledger.bucket_utilization(0, 0), 0.5);
/// assert_eq!(ledger.bucket_utilization(1, 0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationLedger {
    bucket: SimDuration,
    lanes: Vec<Lane>,
    /// Buckets touched on any core, folded ones included.
    touched: usize,
    /// The trailing window, in microseconds, that reads may still reach,
    /// once the ledger is bounded; `None` keeps every bucket.
    window: Option<u64>,
}

/// One core's buckets.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// `busy[i]` = busy microseconds in bucket `first + i`.
    busy: Vec<u64>,
    /// The first bucket kept; every bucket before it has been folded.
    first: usize,
    /// Busy microseconds of the folded buckets.
    folded: u64,
    /// Memo of the last bucket written: `(start_us, end_us, index)`.
    /// Busy intervals arrive in non-decreasing time order and are usually
    /// much shorter than a bucket, so the common case re-hits the
    /// memoized bucket and skips the `u64` division on the event hot
    /// path.
    hint: (u64, u64, usize),
}

impl Lane {
    /// Folds every bucket before `upto` into the total. A lane that had
    /// grown far past what it keeps (a long span recorded before the
    /// ledger was bounded) gives the capacity back.
    fn fold_before(&mut self, upto: usize) {
        if upto <= self.first {
            return;
        }
        let n = (upto - self.first).min(self.busy.len());
        self.folded += self.busy.drain(..n).sum::<u64>();
        self.busy.shrink_to(2 * self.busy.len() + 8);
        self.first = upto;
        if self.hint.2 < upto {
            self.hint = (0, 0, 0);
        }
    }
}

impl UtilizationLedger {
    /// Creates a ledger for `cores` cores with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(cores: usize, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        UtilizationLedger {
            bucket,
            lanes: vec![Lane::default(); cores],
            touched: 0,
            window: None,
        }
    }

    /// Bucket width used by this ledger.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.lanes.len()
    }

    /// Records that `core` was busy during `[from, to)`, splitting the
    /// interval across buckets. Each core's intervals must not overlap and
    /// must arrive in time order. On a bounded ledger the part of the
    /// interval no read can reach goes straight to the core's total.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `to < from`.
    pub fn record_busy(&mut self, core: usize, from: SimTime, to: SimTime) {
        assert!(to >= from, "interval must be ordered");
        let width = self.bucket.as_micros();
        let lane = &mut self.lanes[core];
        let mut cur = from.as_micros();
        let end = to.as_micros();
        // Fast path: the whole interval falls inside the bucket this core
        // last wrote (run segments are typically milliseconds against
        // 1-second buckets) — one add, no division.
        let (hint_start, hint_end, hint_idx) = lane.hint;
        if cur >= hint_start && end <= hint_end && cur < end {
            lane.busy[hint_idx - lane.first] += end - cur;
            return;
        }
        if cur == end {
            return;
        }
        self.touched = self.touched.max(end.div_ceil(width) as usize);
        if let Some(window) = self.window {
            // The machine records an interval when it ends, so later
            // reads end at `to` or later, and this core's later intervals
            // start there.
            lane.fold_before((end.saturating_sub(window) / width) as usize);
            let kept_from = lane.first as u64 * width;
            if cur < kept_from {
                let unreachable = kept_from.min(end) - cur;
                lane.folded += unreachable;
                cur += unreachable;
            }
        }
        while cur < end {
            let idx = (cur / width) as usize;
            let bucket_end = (idx as u64 + 1) * width;
            let chunk = end.min(bucket_end) - cur;
            let slot = idx - lane.first;
            if lane.busy.len() <= slot {
                lane.busy.resize(slot + 1, 0);
            }
            lane.busy[slot] += chunk;
            cur += chunk;
            lane.hint = (bucket_end - width, bucket_end, idx);
        }
    }

    /// Bounds the ledger to the trailing `window` a reader reads, at
    /// `now` or later: folds each core's buckets that such a read cannot
    /// reach into its total, and from then on folds them as intervals are
    /// recorded, so each core keeps about `window` worth of buckets
    /// however long the run lives. Totals
    /// ([`total_busy`](Self::total_busy)) and
    /// [`bucket_count`](Self::bucket_count) are unchanged.
    pub(crate) fn keep_window(&mut self, window: SimDuration, now: SimTime) {
        let window = window.as_micros();
        self.window = Some(window);
        let upto = (now.as_micros().saturating_sub(window) / self.bucket.as_micros()) as usize;
        for lane in &mut self.lanes {
            lane.fold_before(upto);
        }
    }

    /// Number of buckets that have been touched on any core, folded ones
    /// included.
    pub fn bucket_count(&self) -> usize {
        self.touched
    }

    /// Busy microseconds of `core` in a kept `bucket`.
    fn kept(&self, core: usize, bucket: usize) -> u64 {
        let lane = &self.lanes[core];
        let slot = bucket
            .checked_sub(lane.first)
            .expect("read of a folded utilization bucket");
        lane.busy.get(slot).copied().unwrap_or(0)
    }

    /// Fraction of `bucket` during which `core` was busy, in `[0, 1]`.
    /// Untouched buckets count as 0.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` was folded.
    pub fn bucket_utilization(&self, core: usize, bucket: usize) -> f64 {
        self.kept(core, bucket) as f64 / self.bucket.as_micros() as f64
    }

    /// Average utilization of a set of cores over a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty.
    pub fn group_bucket_utilization(&self, cores: &[usize], bucket: usize) -> f64 {
        assert!(!cores.is_empty(), "group must be non-empty");
        cores
            .iter()
            .map(|&c| self.bucket_utilization(c, bucket))
            .sum::<f64>()
            / cores.len() as f64
    }

    /// Average utilization of one core over the trailing `window` ending at
    /// `now` (partial leading buckets are weighted by coverage).
    ///
    /// # Panics
    ///
    /// Panics if the window reaches a folded bucket.
    pub fn windowed_utilization(&self, core: usize, now: SimTime, window: SimDuration) -> f64 {
        let width = self.bucket.as_micros();
        let end = now.as_micros();
        let start = end.saturating_sub(window.as_micros());
        if end == start {
            return 0.0;
        }
        let mut busy = 0u64;
        let mut cur = start;
        while cur < end {
            let idx = (cur / width) as usize;
            let bucket_end = (idx as u64 + 1) * width;
            let span = end.min(bucket_end) - cur;
            let in_bucket = self.kept(core, idx);
            // Assume busy time is spread uniformly within the bucket when
            // taking a partial slice of it.
            busy += (in_bucket as u128 * span as u128 / width as u128) as u64;
            cur += span;
        }
        busy as f64 / (end - start) as f64
    }

    /// Total busy time accumulated by `core`, folded buckets included.
    pub fn total_busy(&self, core: usize) -> SimDuration {
        let lane = &self.lanes[core];
        SimDuration::from_micros(lane.folded + lane.busy.iter().sum::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> UtilizationLedger {
        UtilizationLedger::new(2, SimDuration::from_secs(1))
    }

    #[test]
    fn interval_splits_across_buckets() {
        let mut l = ledger();
        // 0.5s .. 2.5s busy => buckets 0:0.5, 1:1.0, 2:0.5
        l.record_busy(0, SimTime::from_millis(500), SimTime::from_millis(2_500));
        assert!((l.bucket_utilization(0, 0) - 0.5).abs() < 1e-9);
        assert!((l.bucket_utilization(0, 1) - 1.0).abs() < 1e-9);
        assert!((l.bucket_utilization(0, 2) - 0.5).abs() < 1e-9);
        assert_eq!(l.bucket_count(), 3);
    }

    #[test]
    fn empty_interval_is_noop() {
        let mut l = ledger();
        l.record_busy(0, SimTime::from_millis(100), SimTime::from_millis(100));
        assert_eq!(l.bucket_count(), 0);
        assert_eq!(l.total_busy(0), SimDuration::ZERO);
    }

    #[test]
    fn group_average() {
        let mut l = ledger();
        l.record_busy(0, SimTime::ZERO, SimTime::from_secs(1)); // core 0: 100%
                                                                // core 1 idle.
        assert!((l.group_bucket_utilization(&[0, 1], 0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn windowed_utilization_full_and_partial() {
        let mut l = ledger();
        l.record_busy(0, SimTime::ZERO, SimTime::from_secs(2));
        // Fully busy window.
        let u = l.windowed_utilization(0, SimTime::from_secs(2), SimDuration::from_secs(2));
        assert!((u - 1.0).abs() < 1e-9);
        // Window extends past recorded data: 2s busy out of 4s.
        let u = l.windowed_utilization(0, SimTime::from_secs(4), SimDuration::from_secs(4));
        assert!((u - 0.5).abs() < 1e-9);
        // Zero-length window.
        assert_eq!(
            l.windowed_utilization(0, SimTime::ZERO, SimDuration::ZERO),
            0.0
        );
    }

    #[test]
    fn total_busy_accumulates() {
        let mut l = ledger();
        l.record_busy(1, SimTime::ZERO, SimTime::from_millis(300));
        l.record_busy(1, SimTime::from_millis(700), SimTime::from_millis(900));
        assert_eq!(l.total_busy(1), SimDuration::from_millis(500));
    }

    #[test]
    fn bounded_ledger_keeps_totals_windows_and_bucket_count() {
        let window = SimDuration::from_secs(2);
        let mut whole = ledger();
        let mut bounded = ledger();
        bounded.keep_window(window, SimTime::ZERO);
        // Bounded only after ten minutes, so core 0 has grown one bucket
        // per second by then.
        let mut late = ledger();
        // `(core, from_ms, to_ms)` in the order a machine records them
        // (by end instant): a ten-minute gap on core 0, and a segment on
        // core 1 open across it, so its start lies far behind the kept
        // range when it is recorded.
        let intervals = [
            (0, 200, 2_600),
            (1, 3_100, 3_400),
            (0, 2_900, 5_500),
            (1, 6_000, 6_250),
            (0, 600_000, 600_300),
            (1, 7_000, 600_500),
            (0, 600_700, 603_100),
        ];
        for (i, &(core, from, to)) in intervals.iter().enumerate() {
            let (from, now) = (SimTime::from_millis(from), SimTime::from_millis(to));
            for l in [&mut whole, &mut bounded, &mut late] {
                l.record_busy(core, from, now);
            }
            if i == 4 {
                late.keep_window(window, now);
                assert!(late.lanes[0].busy.capacity() <= 16, "capacity kept");
            }
            for l in [&bounded, &late] {
                assert_eq!(l.bucket_count(), whole.bucket_count());
                for core in 0..2 {
                    assert_eq!(l.total_busy(core), whole.total_busy(core));
                    for w in [SimDuration::from_millis(500), window] {
                        assert_eq!(
                            l.windowed_utilization(core, now, w),
                            whole.windowed_utilization(core, now, w)
                        );
                    }
                }
            }
            assert!(bounded.lanes.iter().all(|l| l.busy.len() <= 4));
        }
        assert_eq!(whole.bucket_count(), 604);
        assert!(whole.lanes[0].busy.len() > 600);
    }

    #[test]
    fn an_interval_ending_where_the_ledger_was_bounded_is_folded() {
        // Bounded at a bucket edge while a busy interval of the folded
        // bucket is still to be recorded at that instant: it goes to the
        // total, not through the write hint into the folded bucket.
        let mut l = ledger();
        l.record_busy(0, SimTime::from_millis(200), SimTime::from_millis(500));
        l.keep_window(SimDuration::ZERO, SimTime::from_secs(1));
        l.record_busy(0, SimTime::from_millis(700), SimTime::from_secs(1));
        assert_eq!(l.total_busy(0), SimDuration::from_millis(600));
        assert_eq!(l.bucket_count(), 1);
    }

    #[test]
    #[should_panic(expected = "folded utilization bucket")]
    fn reading_a_folded_bucket_panics() {
        let mut l = ledger();
        l.keep_window(SimDuration::from_secs(1), SimTime::ZERO);
        l.record_busy(0, SimTime::ZERO, SimTime::from_secs(3));
        l.windowed_utilization(0, SimTime::from_secs(3), SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic]
    fn reversed_interval_panics() {
        let mut l = ledger();
        l.record_busy(0, SimTime::from_millis(5), SimTime::from_millis(1));
    }
}
