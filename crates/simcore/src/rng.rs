//! Deterministic random sampling for workload synthesis.
//!
//! [`SimRng`] is a seeded xoshiro256** generator (state expanded from the
//! 64-bit seed with SplitMix64, so the workspace needs no external crates)
//! plus the inverse-transform samplers the trace generator needs
//! (exponential, bounded Pareto) and a weighted discrete sampler.
//! Everything is reproducible from the seed.

use crate::time::SimDuration;

/// A deterministic random-number generator for simulations.
///
/// # Examples
///
/// ```
/// use faas_simcore::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.uniform_f64(), b.uniform_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used only to expand the seed into xoshiro state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Derives the seed of an independent child stream from a root seed
    /// and a stream index.
    ///
    /// This is the workspace's **shard seeding rule**: any generator that
    /// wants to produce the same output serially and in parallel splits
    /// its work into fixed logical units (a trace minute, a block of
    /// invocations) and seeds each unit's RNG with
    /// `stream_seed(root, unit_index)`. A unit's randomness then depends
    /// only on `(root, unit_index)` — never on how units are grouped onto
    /// threads — so the concatenated output is byte-identical at any
    /// shard count.
    ///
    /// The index is spread with the SplitMix64 golden-ratio increment and
    /// mixed through one SplitMix64 round, so consecutive indices land in
    /// uncorrelated parts of the seed space.
    ///
    /// # Examples
    ///
    /// ```
    /// use faas_simcore::SimRng;
    ///
    /// // Child streams are deterministic in (root, index) ...
    /// assert_eq!(SimRng::stream_seed(7, 3), SimRng::stream_seed(7, 3));
    /// // ... and distinct across indices and roots.
    /// assert_ne!(SimRng::stream_seed(7, 3), SimRng::stream_seed(7, 4));
    /// assert_ne!(SimRng::stream_seed(7, 3), SimRng::stream_seed(8, 3));
    /// ```
    pub fn stream_seed(root: u64, stream: u64) -> u64 {
        let mut s = root ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(&mut s)
    }

    /// A generator seeded with [`SimRng::stream_seed`]`(root, stream)` —
    /// the usual way to start one logical unit's RNG stream.
    pub fn stream(root: u64, stream: u64) -> Self {
        SimRng::seed_from(SimRng::stream_seed(root, stream))
    }

    /// The next raw 64-bit output (xoshiro256**).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high bits -> the standard [0,1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        // `lo + (hi - lo) * u` can round up to exactly `hi` for u close
        // to 1; keep the documented half-open contract.
        (lo + (hi - lo) * self.uniform_f64()).min(hi.next_down())
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Lemire-style widening multiply; the bias for any practical `n`
        // is far below what a simulation could observe.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        self.uniform_u64(n as u64) as usize
    }

    /// An exponential sample with the given mean (inverse-transform).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u: f64 = 1.0 - self.uniform_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// A Pareto sample with minimum `xm` and shape `alpha`, truncated at `cap`.
    ///
    /// Used for bursty per-minute invocation counts: heavy-tailed spikes on
    /// top of a base rate, as in the Azure trace's arrival pattern.
    ///
    /// # Panics
    ///
    /// Panics if `xm <= 0`, `alpha <= 0` or `cap < xm`.
    pub fn pareto(&mut self, xm: f64, alpha: f64, cap: f64) -> f64 {
        assert!(
            xm > 0.0 && alpha > 0.0 && cap >= xm,
            "invalid pareto parameters"
        );
        let u: f64 = 1.0 - self.uniform_f64();
        (xm / u.powf(1.0 / alpha)).min(cap)
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.uniform_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// A duration jittered by a multiplicative factor uniform in
    /// `[1-frac, 1+frac]`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not within `[0, 1)`.
    pub fn jitter(&mut self, base: SimDuration, frac: f64) -> SimDuration {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        if frac == 0.0 {
            return base;
        }
        base.mul_f64(self.uniform_range(1.0 - frac, 1.0 + frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_f64().to_bits(), b.uniform_f64().to_bits());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32)
            .filter(|_| a.uniform_f64() == b.uniform_f64())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_range_excludes_hi() {
        let mut rng = SimRng::seed_from(17);
        for _ in 0..100_000 {
            let x = rng.uniform_range(0.0, 0.1);
            assert!((0.0..0.1).contains(&x), "got {x}");
        }
    }

    #[test]
    fn uniform_u64_spans_beyond_u32() {
        let mut rng = SimRng::seed_from(23);
        let mut above_u32 = 0u32;
        for _ in 0..1_000 {
            let x = rng.uniform_u64(u64::MAX);
            if x > u64::from(u32::MAX) {
                above_u32 += 1;
            }
        }
        // Virtually every draw from [0, 2^64-1) lies above 2^32.
        assert!(above_u32 > 990, "only {above_u32} large draws");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn pareto_respects_bounds() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let x = rng.pareto(1.0, 1.5, 50.0);
            assert!((1.0..=50.0).contains(&x));
        }
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SimRng::seed_from(11);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut rng = SimRng::seed_from(3);
        let base = SimDuration::from_millis(100);
        for _ in 0..1_000 {
            let d = rng.jitter(base, 0.05);
            assert!(d >= SimDuration::from_millis(95) && d <= SimDuration::from_millis(105));
        }
        assert_eq!(rng.jitter(base, 0.0), base);
    }

    #[test]
    fn stream_seeds_are_spread() {
        // Adjacent stream indices must not produce adjacent (or equal)
        // seeds; a quick pairwise-distinctness check over a small grid.
        let mut seeds = Vec::new();
        for root in 0..8u64 {
            for stream in 0..64u64 {
                seeds.push(SimRng::stream_seed(root, stream));
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "stream seeds collided");
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_zero_total() {
        let mut rng = SimRng::seed_from(1);
        rng.weighted_index(&[0.0, 0.0]);
    }
}
