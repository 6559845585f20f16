//! The function-duration distribution of the synthetic Azure-like trace.
//!
//! The Microsoft Azure trace itself is not redistributable, so we rebuild
//! its duration *marginal* from the facts the paper (and the underlying
//! Shahrad et al. study) publish and rely on:
//!
//! * ~80% of function executions take less than 1 second (Fig. 2);
//! * the 90th percentile of the paper's sampled two-minute workload is
//!   1,633 ms (§II-E);
//! * durations are bucketed into Fibonacci arguments N = 36..46 (§V-B).
//!
//! The default bucket weights below reproduce those marginals exactly for
//! the calibrated buckets: cumulative weight 0.78 at ~624 ms, 0.88 at
//! ~1.0 s, and p90 = the N=41 bucket = 1,633 ms.

use faas_kernel::TaskSpec;
use faas_simcore::{SimDuration, SimRng};

use crate::calibration::{FibCalibration, FIB_MAX_N, FIB_MIN_N};

/// Default per-bucket weights for N = 36..=46.
pub const DEFAULT_WEIGHTS: [f64; 11] = [
    0.28, 0.20, 0.16, 0.14, 0.10, 0.04, 0.03, 0.02, 0.015, 0.01, 0.005,
];

/// A discrete duration distribution over Fibonacci buckets.
///
/// # Examples
///
/// ```
/// use azure_trace::DurationDistribution;
/// use faas_simcore::{SimDuration, SimRng};
///
/// let dist = DurationDistribution::azure_like();
/// // The paper's headline p90.
/// assert_eq!(dist.percentile(0.90), SimDuration::from_millis(1_633));
/// let mut rng = SimRng::seed_from(1);
/// let (n, d) = dist.sample(&mut rng);
/// assert!((36..=46).contains(&n));
/// assert!(d > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DurationDistribution {
    calibration: FibCalibration,
    weights: Vec<f64>,
}

impl DurationDistribution {
    /// The default distribution matching the published Azure marginals.
    pub fn azure_like() -> Self {
        DurationDistribution {
            calibration: FibCalibration::paper_default(),
            weights: DEFAULT_WEIGHTS.to_vec(),
        }
    }

    /// The calibration mapping buckets to durations.
    pub fn calibration(&self) -> &FibCalibration {
        &self.calibration
    }

    /// The bucket weights (normalized lazily at sampling time).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples `(fib_n, duration)` for one invocation.
    pub fn sample(&self, rng: &mut SimRng) -> (u32, SimDuration) {
        let idx = rng.weighted_index(&self.weights);
        let n = FIB_MIN_N + idx as u32;
        (n, self.calibration.duration(n))
    }

    /// Nearest-rank percentile of the (exact, weighted) distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(
            (0.0..=1.0).contains(&p),
            "percentile fraction must be in [0,1]"
        );
        let total: f64 = self.weights.iter().sum();
        let mut cum = 0.0;
        for (i, w) in self.weights.iter().enumerate() {
            cum += w / total;
            if cum >= p - 1e-12 {
                return self.calibration.duration(FIB_MIN_N + i as u32);
            }
        }
        self.calibration.duration(FIB_MAX_N)
    }

    /// Mean duration of the distribution.
    pub fn mean(&self) -> SimDuration {
        let total: f64 = self.weights.iter().sum();
        let mean_us: f64 = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                w / total * self.calibration.duration(FIB_MIN_N + i as u32).as_micros() as f64
            })
            .sum();
        SimDuration::from_micros(mean_us.round() as u64)
    }

    /// The exact cumulative distribution as `(duration, cumulative
    /// probability)` points — the Fig. 2 (left) / Fig. 10 curve.
    pub fn cdf_points(&self) -> Vec<(SimDuration, f64)> {
        let total: f64 = self.weights.iter().sum();
        let mut cum = 0.0;
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                cum += w / total;
                (self.calibration.duration(FIB_MIN_N + i as u32), cum)
            })
            .collect()
    }
}

/// Memory-size distribution of the synthetic trace.
///
/// The Azure study reports >90% of functions allocating under 400 MB; the
/// default tiers below put ~90% of invocations at ≤ 256 MiB.
#[derive(Debug, Clone)]
pub struct MemoryDistribution {
    tiers_mib: Vec<u32>,
    weights: Vec<f64>,
}

impl MemoryDistribution {
    /// The default Azure-like memory distribution.
    pub fn azure_like() -> Self {
        MemoryDistribution {
            tiers_mib: vec![128, 256, 512, 1_024, 2_048, 4_096],
            weights: vec![0.55, 0.35, 0.055, 0.03, 0.01, 0.005],
        }
    }

    /// The memory tiers in MiB.
    pub fn tiers(&self) -> &[u32] {
        &self.tiers_mib
    }

    /// Samples a memory size in MiB.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        self.tiers_mib[rng.weighted_index(&self.weights)]
    }

    /// Fraction of invocations at or below `mib`.
    pub fn fraction_at_most(&self, mib: u32) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.tiers_mib
            .iter()
            .zip(&self.weights)
            .filter(|(t, _)| **t <= mib)
            .map(|(_, w)| w / total)
            .sum()
    }
}

/// Builds kernel task specs from sampled `(arrival, fib_n, mem)` triples;
/// shared by the workload generator and tests.
pub(crate) fn spec_from_sample(
    arrival: faas_simcore::SimTime,
    duration: SimDuration,
    mem_mib: u32,
    jitter: f64,
    rng: &mut SimRng,
) -> TaskSpec {
    let work = rng.jitter(duration, jitter);
    TaskSpec::function(arrival, work, mem_mib).with_expected(duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_reproduce_paper_marginals() {
        let d = DurationDistribution::azure_like();
        // p90 anchor.
        assert_eq!(d.percentile(0.90), SimDuration::from_millis(1_633));
        // "80% under ~1 s": cumulative at the 1.009 s bucket is 0.88, at
        // the 624 ms bucket 0.78.
        let p78 = d.percentile(0.78);
        assert!(
            p78 >= SimDuration::from_millis(620) && p78 <= SimDuration::from_millis(628),
            "p78 was {p78}"
        );
        assert!(d.percentile(0.80) <= SimDuration::from_millis(1_010));
        // Mean ≈ 875 ms.
        let mean_ms = d.mean().as_millis();
        assert!((870..=880).contains(&mean_ms), "mean was {mean_ms} ms");
    }

    #[test]
    fn sampling_matches_weights() {
        let d = DurationDistribution::azure_like();
        let mut rng = SimRng::seed_from(99);
        let n = 50_000;
        let mut under_1s = 0;
        for _ in 0..n {
            let (_, dur) = d.sample(&mut rng);
            if dur <= SimDuration::from_millis(1_010) {
                under_1s += 1;
            }
        }
        let frac = under_1s as f64 / n as f64;
        assert!((frac - 0.88).abs() < 0.01, "fraction under ~1s was {frac}");
    }

    #[test]
    fn cdf_points_are_monotone_and_end_at_one() {
        let d = DurationDistribution::azure_like();
        let pts = d.cdf_points();
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_distribution_mostly_small() {
        let m = MemoryDistribution::azure_like();
        assert!(
            m.fraction_at_most(256) >= 0.88,
            "Azure: ~90% small functions"
        );
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1_000 {
            assert!(m.tiers().contains(&m.sample(&mut rng)));
        }
    }
}
