//! Fairness statistics used by the analysis binaries and fairness
//! assertions: Jain's fairness index and per-task slowdown.

use crate::record::TaskRecord;

/// Jain's fairness index over non-negative values: 1.0 = perfectly equal,
/// `1/n` = maximally unfair. Useful for checking CFS's fairness claim —
/// equal tasks should see near-equal *slowdowns*.
///
/// # Panics
///
/// Panics if `values` is empty or any value is negative.
pub fn jain_fairness(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "need at least one value");
    assert!(
        values.iter().all(|v| *v >= 0.0),
        "values must be non-negative"
    );
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0; // all zeros: trivially equal
    }
    sum * sum / (values.len() as f64 * sum_sq)
}

/// Per-task slowdown: wall-clock execution divided by pure CPU time
/// (≥ 1.0 up to rounding). The scheduler-quality number behind the
/// paper's cost claims.
pub fn slowdowns(records: &[TaskRecord]) -> Vec<f64> {
    records.iter().map(TaskRecord::stretch).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::{SimDuration, SimTime};

    fn record(exec_ms: u64, cpu_ms: u64) -> TaskRecord {
        TaskRecord {
            arrival: SimTime::ZERO,
            first_run: SimTime::ZERO,
            completion: SimTime::from_millis(exec_ms),
            cpu_time: SimDuration::from_millis(cpu_ms),
            preemptions: 0,
            mem_mib: 128,
        }
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let unfair = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((unfair - 0.25).abs() < 1e-12, "1/n for a single hog");
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn slowdowns_from_records() {
        let records = vec![record(100, 100), record(300, 100)];
        let s = slowdowns(&records);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        // Equal slowdowns are perfectly fair; these are not.
        assert!(jain_fairness(&s) < 1.0);
    }

    #[test]
    #[should_panic]
    fn jain_rejects_negatives() {
        let _ = jain_fairness(&[1.0, -0.5]);
    }
}
