//! Sliding window of recent task durations (§IV-B).
//!
//! The paper keeps "the most recent 100 function durations" and derives the
//! FIFO preemption time limit as a configurable percentile of that window.

use faas_simcore::{nearest_rank, SimDuration};

/// Fixed-capacity ring buffer of recent durations with percentile queries.
///
/// # Examples
///
/// ```
/// use hybrid_scheduler::SlidingWindow;
/// use faas_simcore::SimDuration;
///
/// let mut w = SlidingWindow::new(100);
/// for ms in 1..=100 {
///     w.push(SimDuration::from_millis(ms));
/// }
/// assert_eq!(w.percentile(0.90), Some(SimDuration::from_millis(90)));
/// assert_eq!(w.percentile(0.50), Some(SimDuration::from_millis(50)));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    buf: Vec<SimDuration>,
    capacity: usize,
    next: usize,
}

impl SlidingWindow {
    /// Creates a window remembering the last `capacity` durations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// Records a duration, evicting the oldest when full.
    pub fn push(&mut self, d: SimDuration) {
        if self.buf.len() < self.capacity {
            self.buf.push(d);
        } else {
            self.buf[self.next] = d;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of durations currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no duration has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of durations remembered.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nearest-rank percentile of the stored durations.
    ///
    /// `p` is a fraction in `[0, 1]`; e.g. `0.95` for the paper's best-
    /// performing limit (Fig. 15). Returns `None` while the window is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile fraction must be in [0,1]"
        );
        if self.buf.is_empty() {
            return None;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_unstable();
        Some(sorted[nearest_rank(p, sorted.len() as u64) as usize - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_window_has_no_percentile() {
        let w = SlidingWindow::new(10);
        assert!(w.is_empty());
        assert_eq!(w.percentile(0.5), None);
    }

    #[test]
    fn eviction_keeps_most_recent() {
        let mut w = SlidingWindow::new(3);
        for v in [1, 2, 3, 4, 5] {
            w.push(ms(v));
        }
        assert_eq!(w.len(), 3);
        // Window now holds {3,4,5}.
        assert_eq!(w.percentile(0.0), Some(ms(3)));
        assert_eq!(w.percentile(1.0), Some(ms(5)));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut w = SlidingWindow::new(100);
        for v in 1..=100 {
            w.push(ms(v));
        }
        assert_eq!(w.percentile(0.25), Some(ms(25)));
        assert_eq!(w.percentile(0.75), Some(ms(75)));
        assert_eq!(w.percentile(0.95), Some(ms(95)));
        assert_eq!(w.percentile(1.0), Some(ms(100)));
    }

    #[test]
    fn single_element_answers_everything() {
        let mut w = SlidingWindow::new(5);
        w.push(ms(42));
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(w.percentile(p), Some(ms(42)));
        }
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut w = SlidingWindow::new(10);
        for v in [50, 10, 90, 30, 70] {
            w.push(ms(v));
        }
        assert_eq!(w.percentile(0.5), Some(ms(50)));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_percentile_rejected() {
        let mut w = SlidingWindow::new(2);
        w.push(ms(1));
        let _ = w.percentile(1.5);
    }
}
