//! Mergeable quantile sketch for streaming cluster runs.
//!
//! The streaming cluster path (`faas-cluster`'s `run_streaming`) retires
//! task records as soon as they finish, so no component may hold
//! O(invocations) state. Quantiles are the one statistic that resists
//! constant-space accumulation; this module provides the deterministic
//! Greenwald–Khanna (GK) ε-approximate quantile summary the streaming
//! reports use instead of sorted record vectors.
//!
//! Three properties drive the design (see `DESIGN.md` "Streaming cluster
//! runs"):
//!
//! * **Deterministic** — no randomized compaction (which rules out KLL):
//!   the tuple set after any sequence of [`record`](QuantileSketch::record)
//!   and [`merge_from`](QuantileSketch::merge_from) calls is a pure
//!   function of the inputs, so cluster output stays byte-identical at any
//!   fan width.
//! * **Commutative merge** — per-machine sketches are merged in machine
//!   order, but `merge(a, b)` and `merge(b, a)` produce identical tuple
//!   sets (checked by [`digest`](QuantileSketch::digest) in the property
//!   suite), so the merge tree's shape can never leak into results.
//! * **A-posteriori certificate** — every sketch can report a sound bound
//!   on its own rank error ([`rank_error_bound`](QuantileSketch::rank_error_bound)),
//!   derived from the invariant that tuple `i` covers true ranks
//!   `[rmin_i, rmin_i + delta_i]` with `rmin_i = Σ_{j≤i} g_j`. While fewer
//!   than `1/(2ε)` values have been recorded no compression happens at
//!   all and the certificate is 0: small runs answer **exact**
//!   nearest-rank quantiles, which is what lets the streaming-vs-
//!   materializing differential pin summaries exactly at small scale.
//!
//! ```
//! use faas_metrics::QuantileSketch;
//!
//! let mut sk = QuantileSketch::new(0.01);
//! for v in 1..=1_000u64 {
//!     sk.record(v);
//! }
//! // Nearest-rank median of 1..=1000 is 500; the sketch is within its
//! // own certificate of the true rank.
//! let p50 = sk.quantile(0.5).unwrap();
//! assert!(p50.abs_diff(500) <= sk.rank_error_bound());
//! ```

/// One GK summary tuple: value `v` covers true ranks
/// `[rmin, rmin + delta]` where `rmin` is the running sum of `g` up to and
/// including this tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Tuple {
    /// The observed value this tuple stands for.
    v: u64,
    /// Rank mass between the previous tuple and this one (`rmin` delta).
    g: u64,
    /// Rank uncertainty: `rmax - rmin` for this tuple.
    delta: u64,
}

/// Values buffered before a sort-and-merge flush into the tuple list.
/// Amortizes insertion to O(log buffer) comparisons per value.
const BUFFER_CAP: usize = 512;

/// Deterministic Greenwald–Khanna ε-approximate quantile summary over
/// `u64` values (the metrics crate records microsecond durations).
///
/// Memory is O((1/ε)·log(εn)) tuples of 24 bytes, independent of the
/// number of recorded values once `n` exceeds `1/(2ε)`; below that the
/// sketch stores every value and answers exactly.
#[derive(Debug)]
pub struct QuantileSketch {
    /// Target rank-error fraction: quantile answers are within `ε·n`
    /// ranks of the true nearest-rank answer (and usually much closer —
    /// see [`rank_error_bound`](Self::rank_error_bound)).
    epsilon: f64,
    /// Summary tuples, sorted by value. The first and last tuples always
    /// carry the exact minimum and maximum (`compress` never merges the
    /// minimum away; the maximum keeps `delta == 0`).
    tuples: Vec<Tuple>,
    /// Values recorded but not yet flushed into `tuples`. Allocated at
    /// its full `BUFFER_CAP` on the first `record`, so a sketch that
    /// never sees a value (a fleet machine that never gets work) holds no
    /// heap at all.
    buffer: Vec<u64>,
    /// Total values recorded (flushed + buffered).
    count: u64,
    /// Working storage for `flush`, swapped with `tuples` each flush so
    /// the merge never allocates once both vectors have grown to the
    /// sketch's (bounded) tuple count. Not part of the observable state.
    scratch: Vec<Tuple>,
}

impl Clone for QuantileSketch {
    fn clone(&self) -> Self {
        QuantileSketch {
            epsilon: self.epsilon,
            tuples: self.tuples.clone(),
            buffer: self.buffer.clone(),
            count: self.count,
            scratch: Vec::new(),
        }
    }
}

impl QuantileSketch {
    /// Creates an empty sketch targeting rank error `ε·n`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 0.5`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "epsilon must be in (0, 0.5), got {epsilon}"
        );
        QuantileSketch {
            epsilon,
            tuples: Vec::new(),
            buffer: Vec::new(),
            count: 0,
            scratch: Vec::new(),
        }
    }

    /// The configured rank-error fraction.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no value has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        if self.buffer.capacity() == 0 {
            self.buffer.reserve_exact(BUFFER_CAP);
        }
        self.buffer.push(v);
        self.count += 1;
        if self.buffer.len() >= BUFFER_CAP {
            self.flush();
        }
    }

    /// Sorts the buffer and merge-inserts it into the tuple list, then
    /// compresses. Insertion follows GK: a value placed before successor
    /// tuple `s` (the first tuple with a strictly greater value) gets
    /// `delta = g_s + delta_s - 1`; a new global minimum or maximum gets
    /// `delta = 0`, so the extremes stay exact.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable();
        // Merge into the retained scratch vector, then swap it with
        // `tuples`: once both have grown to the sketch's bounded tuple
        // count, a flush performs no heap allocation.
        self.scratch.clear();
        self.scratch.reserve(self.tuples.len() + self.buffer.len());
        let old = &self.tuples;
        let mut oi = 0;
        for &v in &self.buffer {
            while oi < old.len() && old[oi].v <= v {
                self.scratch.push(old[oi]);
                oi += 1;
            }
            let delta = if oi == 0 || oi == old.len() {
                0
            } else {
                old[oi].g + old[oi].delta - 1
            };
            self.scratch.push(Tuple { v, g: 1, delta });
        }
        self.scratch.extend_from_slice(&old[oi..]);
        self.buffer.clear();
        std::mem::swap(&mut self.tuples, &mut self.scratch);
        self.compress();
    }

    /// Greedily merges adjacent tuples whose combined rank band stays
    /// under `2·ε·n`, left to right. The first tuple is never absorbed
    /// (preserving the exact minimum) and a merge adopts the right-hand
    /// tuple's `delta`, so the final tuple's `delta` stays 0 (exact
    /// maximum).
    fn compress(&mut self) {
        let threshold = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        if threshold == 0 || self.tuples.len() <= 2 {
            return;
        }
        // In place via a write cursor (`w <= r` always, so reads stay
        // ahead of writes): same greedy left-to-right rule, no
        // allocation.
        let tuples = &mut self.tuples;
        let mut w = 0usize;
        for r in 0..tuples.len() {
            let t = tuples[r];
            let mergeable = w > 1 && tuples[w - 1].g + t.g + t.delta <= threshold;
            if mergeable {
                let last = &mut tuples[w - 1];
                *last = Tuple {
                    v: t.v,
                    g: last.g + t.g,
                    delta: t.delta,
                };
            } else {
                tuples[w] = t;
                w += 1;
            }
        }
        tuples.truncate(w);
    }

    /// Flushed tuples for read-only queries: clones only when buffered
    /// values exist (the clone is at most `BUFFER_CAP` insertions).
    fn flushed_tuples(&self) -> std::borrow::Cow<'_, [Tuple]> {
        if self.buffer.is_empty() {
            std::borrow::Cow::Borrowed(&self.tuples)
        } else {
            let mut c = self.clone();
            c.flush();
            std::borrow::Cow::Owned(c.tuples)
        }
    }

    /// Merges another sketch into this one.
    ///
    /// The merge is **commutative**: each tuple's `delta` is raised by the
    /// rank band of the *other* sketch's successor (the first tuple with a
    /// strictly greater value) — a rule that depends only on values, not
    /// on which operand a tuple came from — then the union is sorted by
    /// the full `(v, g, delta)` key and compressed. The resulting epsilon
    /// is the larger of the two and the error certificate remains sound.
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            self.epsilon = self.epsilon.max(other.epsilon);
            return;
        }
        if self.count == 0 {
            self.epsilon = self.epsilon.max(other.epsilon);
            self.tuples = other.flushed_tuples().into_owned();
            self.buffer.clear();
            self.count = other.count;
            return;
        }
        // Flush each operand under its *own* epsilon (the other side is
        // flushed lazily by `flushed_tuples`), so the pre-merge state is
        // independent of argument order; only then adopt the joint
        // epsilon for the final compression.
        self.flush();
        let theirs = other.flushed_tuples();
        self.epsilon = self.epsilon.max(other.epsilon);
        let adjust = |t: &Tuple, against: &[Tuple]| -> Tuple {
            let j = against.partition_point(|y| y.v <= t.v);
            let extra = if j < against.len() {
                against[j].g + against[j].delta - 1
            } else {
                0
            };
            Tuple {
                v: t.v,
                g: t.g,
                delta: t.delta + extra,
            }
        };
        let mut merged: Vec<Tuple> = self
            .tuples
            .iter()
            .map(|t| adjust(t, &theirs))
            .chain(theirs.iter().map(|t| adjust(t, &self.tuples)))
            .collect();
        merged.sort_unstable();
        self.tuples = merged;
        self.count += other.count;
        self.compress();
    }

    /// Number of values buffered but not yet flushed into the tuple
    /// list. Hits zero exactly when [`record`](Self::record) triggers a
    /// flush — the signal callers maintaining a sorted mirror of the
    /// pending buffer (see [`quantile_via`](Self::quantile_via)) use to
    /// reset it.
    pub fn pending_len(&self) -> usize {
        self.buffer.len()
    }

    /// Exact fused equivalent of [`quantile`](Self::quantile) for
    /// callers that keep a sorted copy of the pending buffer.
    ///
    /// [`quantile`](Self::quantile) on a sketch with buffered values
    /// clones itself and flushes the clone — O(buffer·log buffer) sort
    /// plus two vector copies per query. This method takes the sorted
    /// pending values from the caller and streams the exact post-flush
    /// tuple sequence (same insertion rule as `flush`), compresses it
    /// greedily on the fly (same rule as `compress`) and evaluates the
    /// rank error of each finalized tuple (same rule as `quantile`) —
    /// one O(tuples + buffer) pass, no allocation, no mutation. The
    /// cluster's hedge-threshold cache refreshes through this on every
    /// completion report, so the constant matters.
    ///
    /// `pending_sorted` must be a sorted permutation of the unflushed
    /// buffer (callers track it via [`pending_len`](Self::pending_len):
    /// binary-insert each recorded value, clear when a flush drains the
    /// buffer). Debug builds assert the contract; release builds trust
    /// it.
    pub fn quantile_via(&self, q: f64, pending_sorted: &[u64]) -> Option<u64> {
        debug_assert_eq!(
            pending_sorted.len(),
            self.buffer.len(),
            "pending mirror out of sync with the sketch buffer"
        );
        debug_assert!(pending_sorted.windows(2).all(|w| w[0] <= w[1]));
        // Allocation-free multiset sanity check (the hedge hot path runs
        // under an allocation-counting test harness even in debug).
        debug_assert_eq!(
            self.buffer.iter().fold((0u64, 0u64), |(s, x), &v| {
                (s.wrapping_add(v), x ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }),
            pending_sorted.iter().fold((0u64, 0u64), |(s, x), &v| {
                (s.wrapping_add(v), x ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }),
            "pending mirror is not a permutation of the sketch buffer"
        );
        if self.count == 0 {
            return None;
        }
        if pending_sorted.is_empty() {
            return self.quantile(q);
        }
        let n = self.count;
        let r = ((q * n as f64).ceil() as u64).clamp(1, n);
        let threshold = (2.0 * self.epsilon * n as f64).floor() as u64;
        // The streaming accumulator: `cur` is the compressed tuple being
        // built at position `sealed`; sealing it accumulates rmin and
        // scores it against the target rank. `compress` never merges
        // into the first tuple (`w > 1`), hence the `sealed >= 1` guard.
        struct Fused {
            threshold: u64,
            r: u64,
            cur: Option<Tuple>,
            sealed: usize,
            rmin: u64,
            best: u64,
            best_err: u64,
        }
        impl Fused {
            fn seal(&mut self) {
                if let Some(c) = self.cur.take() {
                    self.rmin += c.g;
                    let rmax = self.rmin + c.delta;
                    let err = rmax
                        .saturating_sub(self.r)
                        .max(self.r.saturating_sub(self.rmin));
                    if err < self.best_err {
                        self.best_err = err;
                        self.best = c.v;
                    }
                    self.sealed += 1;
                }
            }
            fn push(&mut self, t: Tuple) {
                if let Some(c) = &mut self.cur {
                    if self.sealed >= 1 && c.g + t.g + t.delta <= self.threshold {
                        *c = Tuple {
                            v: t.v,
                            g: c.g + t.g,
                            delta: t.delta,
                        };
                        return;
                    }
                }
                self.seal();
                self.cur = Some(t);
            }
        }
        let mut f = Fused {
            threshold,
            r,
            cur: None,
            sealed: 0,
            rmin: 0,
            best: 0,
            best_err: u64::MAX,
        };
        let old = &self.tuples;
        let mut oi = 0usize;
        for &v in pending_sorted {
            while oi < old.len() && old[oi].v <= v {
                f.push(old[oi]);
                oi += 1;
            }
            let delta = if oi == 0 || oi == old.len() {
                0
            } else {
                old[oi].g + old[oi].delta - 1
            };
            f.push(Tuple { v, g: 1, delta });
        }
        for &t in &old[oi..] {
            f.push(t);
        }
        f.seal();
        Some(f.best)
    }

    /// The ε-approximate `q`-quantile, or `None` if the sketch is empty.
    ///
    /// The target rank is the nearest-rank `r = ⌈q·n⌉` clamped to
    /// `[1, n]`, matching [`crate::MetricSummary`]'s convention; the
    /// answer is the first tuple minimizing
    /// `max(rmax - r, r - rmin)`, so on an uncompressed sketch (every
    /// tuple `g = 1, delta = 0`) the answer is *exactly* the nearest-rank
    /// value. In general the answer's true rank is within
    /// [`rank_error_bound`](Self::rank_error_bound) of `r`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let tuples = self.flushed_tuples();
        let n = self.count;
        let r = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut best = tuples[0].v;
        let mut best_err = u64::MAX;
        let mut rmin = 0u64;
        for t in tuples.iter() {
            rmin += t.g;
            let rmax = rmin + t.delta;
            let err = rmax.saturating_sub(r).max(r.saturating_sub(rmin));
            if err < best_err {
                best_err = err;
                best = t.v;
            }
        }
        Some(best)
    }

    /// The exact minimum recorded value (`None` if empty). The compress
    /// rule never absorbs the first tuple, so this is always exact.
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        Some(self.flushed_tuples()[0].v)
    }

    /// The exact maximum recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let tuples = self.flushed_tuples();
        Some(tuples[tuples.len() - 1].v)
    }

    /// Sound a-posteriori bound on the rank error of any
    /// [`quantile`](Self::quantile) answer: `⌊max_i(g_i + delta_i) / 2⌋`.
    ///
    /// Between any two adjacent tuples the uncovered rank span is at most
    /// `max(g + delta)`, and the query picks the nearer side, so the
    /// distance to the target rank never exceeds half that span (the
    /// extremes are exact: the first tuple always keeps `g = 1,
    /// delta = 0` and the last `delta = 0`). A bound of 0 means every
    /// answer is the exact nearest-rank value.
    pub fn rank_error_bound(&self) -> u64 {
        self.flushed_tuples()
            .iter()
            .map(|t| t.g + t.delta)
            .max()
            .map_or(0, |gd| gd / 2)
    }

    /// Number of summary tuples currently held — the sketch's memory
    /// footprint in 24-byte units. Grows like O((1/ε)·log(εn)), not O(n);
    /// the streaming memory tests assert this directly.
    pub fn tuple_count(&self) -> usize {
        self.flushed_tuples().len()
    }

    /// FNV-1a digest of the flushed state `(ε, n, tuples)`. Two sketches
    /// with equal digests hold identical summaries; the property suite
    /// uses this to check merge commutativity byte-for-byte.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.epsilon.to_bits());
        eat(self.count);
        for t in self.flushed_tuples().iter() {
            eat(t.v);
            eat(t.g);
            eat(t.delta);
        }
        h
    }
}

impl PartialEq for QuantileSketch {
    /// Equality of the *flushed* summaries: same ε, count and tuple set,
    /// regardless of how values are split between buffer and tuples.
    fn eq(&self, other: &Self) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.count == other.count
            && self.flushed_tuples() == other.flushed_tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_simcore::check;

    /// Exact nearest-rank quantile over a sorted copy — the reference the
    /// sketch is checked against.
    fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        let n = values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        values[rank - 1]
    }

    #[test]
    fn buffer_is_allocated_in_full_on_the_first_record() {
        let mut sk = QuantileSketch::new(0.01);
        assert_eq!(sk.buffer.capacity(), 0, "an empty sketch holds no heap");
        sk.record(7);
        assert!(sk.buffer.capacity() >= BUFFER_CAP);
    }

    /// True rank band of `answer` in `sorted` (1-based, ties collapse to
    /// the full run of equal values).
    fn rank_band(sorted: &[u64], answer: u64) -> (u64, u64) {
        let lo = sorted.partition_point(|&x| x < answer) as u64 + 1;
        let hi = sorted.partition_point(|&x| x <= answer) as u64;
        (lo, hi.max(lo))
    }

    /// Asserts the sketch's answer at `q` is within its own certificate of
    /// the target rank, against the exact sorted data.
    fn assert_within_certificate(sk: &QuantileSketch, sorted: &[u64], q: f64) {
        let n = sorted.len() as u64;
        let r = ((q * n as f64).ceil() as u64).clamp(1, n);
        let answer = sk.quantile(q).expect("non-empty");
        let (lo, hi) = rank_band(sorted, answer);
        let dist = lo.saturating_sub(r).max(r.saturating_sub(hi));
        assert!(
            dist <= sk.rank_error_bound(),
            "q={q}: answer {answer} has rank band [{lo},{hi}], target {r}, \
             dist {dist} > certificate {}",
            sk.rank_error_bound()
        );
    }

    #[test]
    fn empty_sketch() {
        let sk = QuantileSketch::new(0.01);
        assert!(sk.is_empty());
        assert_eq!(sk.quantile(0.5), None);
        assert_eq!(sk.min(), None);
        assert_eq!(sk.max(), None);
        assert_eq!(sk.rank_error_bound(), 0);
        assert_eq!(sk.tuple_count(), 0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = QuantileSketch::new(0.5);
    }

    #[test]
    fn small_runs_are_exact() {
        // Below 1/(2ε) recorded values no compression happens: every
        // quantile is the exact nearest-rank answer.
        let mut sk = QuantileSketch::new(0.01);
        let mut values: Vec<u64> = (0..40u64).map(|i| (i * 7919) % 1000).collect();
        for &v in &values {
            sk.record(v);
        }
        assert_eq!(sk.rank_error_bound(), 0);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(sk.quantile(q), Some(exact_quantile(&mut values, q)));
        }
    }

    #[test]
    fn extremes_stay_exact_under_compression() {
        let mut sk = QuantileSketch::new(0.05);
        for v in (0..50_000u64).rev() {
            sk.record(v * 3 + 1);
        }
        assert_eq!(sk.min(), Some(1));
        assert_eq!(sk.max(), Some(49_999 * 3 + 1));
        assert_eq!(sk.quantile(0.0), Some(1));
        assert_eq!(sk.quantile(1.0), Some(49_999 * 3 + 1));
    }

    #[test]
    fn compression_bounds_memory() {
        // 10x the data must not mean 10x the tuples: the sketch is
        // O((1/ε)·log(εn)), so the ratio stays near 1.
        let fill = |n: u64| {
            let mut sk = QuantileSketch::new(0.01);
            for i in 0..n {
                sk.record((i * 2_654_435_761) % 1_000_000);
            }
            sk
        };
        let small = fill(50_000);
        let large = fill(500_000);
        assert!(
            large.tuple_count() <= 2 * small.tuple_count(),
            "10x data grew tuples {} -> {}",
            small.tuple_count(),
            large.tuple_count()
        );
        assert!(
            large.tuple_count() < 50_000 / 10,
            "sketch is not sublinear: {} tuples",
            large.tuple_count()
        );
    }

    #[test]
    fn certificate_tracks_epsilon() {
        let mut sk = QuantileSketch::new(0.01);
        let n = 100_000u64;
        for i in 0..n {
            sk.record(i);
        }
        let bound = sk.rank_error_bound();
        assert!(bound > 0, "compression must have happened");
        assert!(
            bound <= (2.0 * 0.01 * n as f64) as u64,
            "certificate {bound} exceeds 2εn"
        );
    }

    #[test]
    fn adversarial_shapes_stay_within_certificate() {
        let n = 30_000u64;
        type Shape = Box<dyn Fn(u64) -> u64>;
        let shapes: [(&str, Shape); 4] = [
            ("sorted", Box::new(|i| i)),
            ("reversed", Box::new(move |i| n - i)),
            ("constant", Box::new(|_| 42)),
            (
                "bimodal",
                Box::new(|i| if i % 2 == 0 { 10 } else { 1_000_000 }),
            ),
        ];
        for (name, f) in shapes {
            let mut sk = QuantileSketch::new(0.005);
            let mut values: Vec<u64> = (0..n).map(&f).collect();
            for &v in &values {
                sk.record(v);
            }
            values.sort_unstable();
            assert!(
                sk.rank_error_bound() <= (2.0 * 0.005 * n as f64) as u64,
                "{name}: certificate blew past 2εn"
            );
            for q in [0.001, 0.01, 0.5, 0.9, 0.99, 0.999] {
                assert_within_certificate(&sk, &values, q);
            }
        }
    }

    #[test]
    fn merge_matches_single_stream_certificate() {
        // Merged halves answer within the merged certificate of the
        // combined exact data.
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
        let mut all: Vec<u64> = Vec::new();
        for i in 0..20_000u64 {
            let v = (i * 48_271) % 65_536;
            all.push(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 20_000);
        all.sort_unstable();
        for q in [0.01, 0.5, 0.99, 0.999] {
            assert_within_certificate(&a, &all, q);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = QuantileSketch::new(0.01);
        for v in 0..1_000u64 {
            a.record(v);
        }
        let before = a.digest();
        a.merge_from(&QuantileSketch::new(0.01));
        assert_eq!(a.digest(), before);

        let mut empty = QuantileSketch::new(0.01);
        empty.merge_from(&a);
        assert_eq!(empty.digest(), a.digest());
        assert_eq!(empty, a);
    }

    #[test]
    fn property_sketch_vs_exact_random_streams() {
        check::run("sketch within certificate of exact quantiles", 48, |g| {
            let eps = g.f64_in(0.002, 0.1);
            let n = g.usize_in(1, 4_000);
            let hi = g.u64_in(2, 1_000_000);
            let mut sk = QuantileSketch::new(eps);
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                let v = g.u64_in(0, hi);
                sk.record(v);
                values.push(v);
            }
            values.sort_unstable();
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_within_certificate(&sk, &values, q);
            }
            assert_eq!(sk.min(), Some(values[0]));
            assert_eq!(sk.max(), Some(values[n - 1]));
        });
    }

    #[test]
    fn property_merge_is_commutative() {
        check::run("merge(a,b) and merge(b,a) digests agree", 48, |g| {
            let eps_a = g.f64_in(0.005, 0.1);
            let eps_b = g.f64_in(0.005, 0.1);
            let mut a = QuantileSketch::new(eps_a);
            let mut b = QuantileSketch::new(eps_b);
            // Overlapping ranges with duplicates to stress value ties.
            for v in g.vec_u64(0, 64, 0, 3_000) {
                a.record(v);
            }
            for v in g.vec_u64(0, 64, 0, 3_000) {
                b.record(v);
            }
            let mut ab = a.clone();
            ab.merge_from(&b);
            let mut ba = b.clone();
            ba.merge_from(&a);
            assert_eq!(ab.digest(), ba.digest(), "merge is not commutative");
            assert_eq!(ab, ba);
        });
    }

    #[test]
    fn property_compact_is_observably_a_noop() {
        check::run("flush preserves digest/eq/quantiles", 48, |g| {
            let eps = g.f64_in(0.005, 0.1);
            let mut sk = QuantileSketch::new(eps);
            for v in g.vec_u64(0, 10_000, 0, 2_000) {
                sk.record(v);
            }
            let reference = sk.clone();
            sk.flush();
            assert_eq!(sk.digest(), reference.digest());
            assert_eq!(sk, reference);
            assert_eq!(sk.count(), reference.count());
            assert_eq!(sk.min(), reference.min());
            assert_eq!(sk.max(), reference.max());
            assert_eq!(sk.rank_error_bound(), reference.rank_error_bound());
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(sk.quantile(q), reference.quantile(q));
            }
            // Idempotent. (Note: a flush is a no-op for *reads* only —
            // it moves the flush-batch boundary, so a flushed and an
            // unflushed sketch can diverge on values recorded *after*
            // the flush.)
            sk.flush();
            assert_eq!(sk.digest(), reference.digest());
        });
    }

    #[test]
    fn property_quantile_via_matches_quantile() {
        // The fused pending-mirror query must equal the clone-and-flush
        // query bit for bit, at every buffer fill level (including mid-
        // batch states straddling flush boundaries) and every epsilon.
        check::run("quantile_via == quantile", 64, |g| {
            let eps = g.f64_in(0.002, 0.2);
            let n = g.usize_in(1, 3_000);
            let hi = g.u64_in(2, 1_000_000);
            let mut sk = QuantileSketch::new(eps);
            let mut mirror: Vec<u64> = Vec::new();
            for _ in 0..n {
                let v = g.u64_in(0, hi);
                sk.record(v);
                if sk.pending_len() == 0 {
                    mirror.clear();
                } else {
                    let i = mirror.partition_point(|&x| x <= v);
                    mirror.insert(i, v);
                }
            }
            for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    sk.quantile_via(q, &mirror),
                    sk.quantile(q),
                    "q={q} n={n} eps={eps} pending={}",
                    mirror.len()
                );
            }
        });
    }

    #[test]
    fn property_merge_stays_within_certificate() {
        check::run("merged sketch within certificate of pooled data", 32, |g| {
            let eps = g.f64_in(0.005, 0.05);
            let parts = g.usize_in(2, 6);
            let mut merged = QuantileSketch::new(eps);
            let mut all: Vec<u64> = Vec::new();
            for _ in 0..parts {
                let mut part = QuantileSketch::new(eps);
                for v in g.vec_u64(0, 100_000, 1, 2_000) {
                    part.record(v);
                    all.push(v);
                }
                merged.merge_from(&part);
            }
            all.sort_unstable();
            assert_eq!(merged.count(), all.len() as u64);
            for q in [0.01, 0.5, 0.9, 0.999] {
                assert_within_certificate(&merged, &all, q);
            }
        });
    }
}
