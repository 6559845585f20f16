//! Distributional similarity checks (Fig. 10).
//!
//! The paper validates its two-minute sample against two weeks of trace
//! data by overlaying the duration CDFs. We make the check quantitative
//! with the two-sample Kolmogorov–Smirnov statistic.

use faas_simcore::nearest_rank;

/// An empirical CDF over `f64` samples.
///
/// # Examples
///
/// ```
/// use azure_trace::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.eval(0.0), 0.0);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        EmpiricalCdf { sorted: samples }
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if built from zero samples (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile fraction must be in [0,1]"
        );
        self.sorted[nearest_rank(p, self.sorted.len() as u64) as usize - 1]
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum vertical distance
/// between the two empirical CDFs. 0 = identical, 1 = disjoint.
///
/// # Examples
///
/// ```
/// use azure_trace::{ks_statistic, EmpiricalCdf};
///
/// let a = EmpiricalCdf::from_samples((1..=100).map(f64::from).collect());
/// let b = EmpiricalCdf::from_samples((1..=100).map(f64::from).collect());
/// assert_eq!(ks_statistic(&a, &b), 0.0);
/// ```
pub fn ks_statistic(a: &EmpiricalCdf, b: &EmpiricalCdf) -> f64 {
    let mut max = 0.0f64;
    for x in a.samples().iter().chain(b.samples()) {
        let d = (a.eval(*x) - b.eval(*x)).abs();
        if d > max {
            max = d;
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_correctly() {
        let cdf = EmpiricalCdf::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.eval(0.9), 0.0);
        assert!((cdf.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((cdf.eval(4.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.eval(5.0), 1.0);
    }

    #[test]
    fn percentiles() {
        let cdf = EmpiricalCdf::from_samples((1..=10).map(f64::from).collect());
        assert_eq!(cdf.percentile(0.5), 5.0);
        assert_eq!(cdf.percentile(1.0), 10.0);
        assert_eq!(cdf.percentile(0.0), 1.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = EmpiricalCdf::from_samples(vec![1.0, 2.0]);
        let b = EmpiricalCdf::from_samples(vec![10.0, 20.0]);
        assert_eq!(ks_statistic(&a, &b), 1.0);
    }

    #[test]
    fn ks_is_symmetric() {
        let a = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0, 7.0]);
        let b = EmpiricalCdf::from_samples(vec![2.0, 3.0, 4.0]);
        assert_eq!(ks_statistic(&a, &b), ks_statistic(&b, &a));
    }

    #[test]
    #[should_panic]
    fn empty_samples_rejected() {
        let _ = EmpiricalCdf::from_samples(Vec::new());
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = EmpiricalCdf::from_samples(vec![1.0, f64::NAN]);
    }
}
