//! Mergeable quantile sketch for streaming cluster runs.
//!
//! The streaming cluster path (`faas-cluster`'s `run_streaming`) retires
//! task records as soon as they finish, so no component may hold
//! O(invocations) state. Quantiles are the one statistic that resists
//! constant-space accumulation; this module provides the deterministic
//! Greenwald–Khanna (GK) ε-approximate quantile summary the streaming
//! reports and the router's hedge trigger use instead of sorted record
//! vectors.
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
//! Recorded values wait in a buffer until a batch of them is flushed into
//! the tuple list. The GK insertion and compression rules are written
//! once, as one indexed pass (`gk_pass`) that merges the sorted pending
//! values into the tuples and folds each tuple into the next while their
//! band fits, handing each tuple it leaves to a sink. A flush's sink
//! collects them; a query's sink scores them against the target rank
//! (`Nearest`, the rank rule), so every read answers exactly as a flush
//! would, without building the flushed list and without moving the
//! flush-batch boundary (which later inserts would see). The sketch
//! remembers how much of its buffer is already sorted, so
//! [`quantile_mut`](QuantileSketch::quantile_mut) sorts only the values
//! recorded since the last query and allocates nothing: the hedge
//! trigger refreshes its tail through it after each completion report.
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

use std::borrow::Cow;

use faas_simcore::nearest_rank;

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

/// One GK pass: `tuples` with the sorted values `pending` merged in, then
/// compressed at `threshold`, each resulting tuple handed to `emit` in
/// order. Both rules run in the same loop, so no list of the inserted
/// tuples is built.
///
/// * Insertion: each value goes after every tuple of equal or smaller
///   value. A value placed before successor tuple `s` gets
///   `delta = g_s + delta_s - 1`; a new global minimum or maximum gets
///   `delta = 0`, so the extremes stay exact.
/// * Compression: greedily, left to right, a tuple is absorbed into the
///   next one while their combined rank band `g + g' + delta'` stays
///   within `threshold`; the result keeps the later tuple's value and
///   `delta`. The first tuple is never absorbed (the minimum stays exact)
///   and the last keeps its value (so does the maximum).
///
/// A zero threshold merges nothing, as every `g` is at least 1, so it
/// inserts only; with nothing pending the pass compresses only.
fn gk_pass(tuples: &[Tuple], pending: &[u64], threshold: u64, mut emit: impl FnMut(Tuple)) {
    let (mut ti, mut pi) = (0, 0);
    let mut next = || {
        let successor = tuples.get(ti);
        match pending.get(pi) {
            Some(&v) if successor.is_none_or(|s| s.v > v) => {
                pi += 1;
                let delta = match successor {
                    Some(s) if ti > 0 => s.g + s.delta - 1,
                    _ => 0,
                };
                Some(Tuple { v, g: 1, delta })
            }
            _ => {
                ti += 1;
                successor.copied()
            }
        }
    };
    let Some(first) = next() else {
        return;
    };
    emit(first);
    let Some(mut cur) = next() else {
        return;
    };
    while let Some(t) = next() {
        if cur.g + t.g + t.delta <= threshold {
            cur = Tuple {
                v: t.v,
                g: cur.g + t.g,
                delta: t.delta,
            };
        } else {
            emit(cur);
            cur = t;
        }
    }
    emit(cur);
}

/// The GK rank rule, fed one tuple at a time: keeps the value of the
/// first tuple minimizing `max(rmax - r, r - rmin)` for target rank `r`,
/// so on an uncompressed list (every tuple `g = 1, delta = 0`) the exact
/// rank-`r` value. `None` for no tuples.
struct Nearest {
    r: u64,
    rmin: u64,
    best: Option<u64>,
    best_err: u64,
}

impl Nearest {
    fn new(r: u64) -> Self {
        Nearest {
            r,
            rmin: 0,
            best: None,
            best_err: u64::MAX,
        }
    }

    #[inline]
    fn score(&mut self, t: Tuple) {
        self.rmin += t.g;
        let rmax = self.rmin + t.delta;
        let err = rmax
            .saturating_sub(self.r)
            .max(self.r.saturating_sub(self.rmin));
        if err < self.best_err {
            self.best_err = err;
            self.best = Some(t.v);
        }
    }
}

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
    /// carry the exact minimum and maximum (see `compress`).
    tuples: Vec<Tuple>,
    /// Values recorded but not yet flushed into `tuples`. Allocated at
    /// its full `BUFFER_CAP` on the first `record`, so a sketch that
    /// never sees a value (a fleet machine that never gets work) holds no
    /// heap at all.
    buffer: Vec<u64>,
    /// Length of the buffer's sorted prefix; values recorded since the
    /// last [`quantile_mut`](Self::quantile_mut) follow it. A flush sorts
    /// the whole buffer anyway, so sorting part of it early changes no
    /// flushed tuple.
    sorted: usize,
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
            sorted: self.sorted,
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
            sorted: 0,
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

    /// The compression threshold `⌊2·ε·n⌋` for the current count.
    fn threshold(&self) -> u64 {
        (2.0 * self.epsilon * self.count as f64).floor() as u64
    }

    /// Hands `emit` the tuples a flush would leave, in order, given the
    /// buffer's values in sorted order as `pending`. With nothing pending
    /// a flush changes nothing, so the stored tuples pass as they are
    /// (zero threshold).
    fn for_each_flushed(&self, pending: &[u64], emit: impl FnMut(Tuple)) {
        let threshold = if pending.is_empty() {
            0
        } else {
            self.threshold()
        };
        gk_pass(&self.tuples, pending, threshold, emit);
    }

    /// The tuples a flush would leave, as a new list.
    fn flushed_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.for_each_flushed(&self.sorted_pending(), |t| out.push(t));
        out
    }

    /// The buffer's values in sorted order: borrowed when the buffer is
    /// already sorted, else a sorted copy.
    fn sorted_pending(&self) -> Cow<'_, [u64]> {
        if self.sorted == self.buffer.len() {
            Cow::Borrowed(&self.buffer)
        } else {
            let mut pending = self.buffer.clone();
            pending.sort_unstable();
            Cow::Owned(pending)
        }
    }

    /// Sorts the buffer in place by binary-inserting each value recorded
    /// since the last sort into the sorted prefix; a query between two
    /// completion reports finds one or two such values.
    fn sort_pending(&mut self) {
        for i in self.sorted..self.buffer.len() {
            let v = self.buffer[i];
            let at = self.buffer[..i].partition_point(|&x| x <= v);
            self.buffer[at..=i].rotate_right(1);
        }
        self.sorted = self.buffer.len();
    }

    /// Sorts the buffer and merge-inserts it into the tuple list,
    /// compressing as it goes. Kept out of line: `record` calls it once
    /// per `BUFFER_CAP` values, and inlined there it slows every record.
    #[inline(never)]
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable();
        // Build into the retained scratch vector, then swap it with
        // `tuples`: once both have grown to the sketch's bounded tuple
        // count, a flush performs no heap allocation.
        let mut next = std::mem::take(&mut self.scratch);
        next.clear();
        self.for_each_flushed(&self.buffer, |t| next.push(t));
        self.scratch = std::mem::replace(&mut self.tuples, next);
        self.buffer.clear();
        self.sorted = 0;
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
        // Flush each operand under its *own* epsilon, so the pre-merge
        // state is independent of argument order; only then adopt the
        // joint epsilon for the final compression.
        self.flush();
        let theirs = other.flushed_tuples();
        self.epsilon = self.epsilon.max(other.epsilon);
        if self.count == 0 {
            self.tuples = theirs;
            self.count = other.count;
            return;
        }
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
        self.count += other.count;
        let threshold = self.threshold();
        self.tuples.clear();
        gk_pass(&merged, &[], threshold, |t| self.tuples.push(t));
    }

    /// The ε-approximate `q`-quantile, or `None` if the sketch is empty.
    ///
    /// The target rank is [`nearest_rank`]`(q, n)`, matching
    /// [`crate::MetricSummary`]'s convention; the answer is the first
    /// tuple minimizing `max(rmax - r, r - rmin)` among the tuples a
    /// flush would leave, so on an uncompressed sketch (every tuple
    /// `g = 1, delta = 0`) the answer is *exactly* the nearest-rank
    /// value. In general the answer's true rank is within
    /// [`rank_error_bound`](Self::rank_error_bound) of `r`. Reads a
    /// sorted copy of the buffer when values were recorded since the
    /// last [`quantile_mut`](Self::quantile_mut).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.query(q, &self.sorted_pending())
    }

    /// [`quantile`](Self::quantile)'s answer, with no allocation: sorts
    /// the values recorded since the last query into the buffer first.
    /// Sorting early changes no later answer and no flushed tuple, as a
    /// flush sorts the buffer anyway.
    pub fn quantile_mut(&mut self, q: f64) -> Option<u64> {
        self.sort_pending();
        self.query(q, &self.buffer)
    }

    /// Scores the tuples a flush would leave (`pending` sorted) against
    /// the nearest rank of `q`, in the flush's own pass.
    fn query(&self, q: f64, pending: &[u64]) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut nearest = Nearest::new(nearest_rank(q, self.count));
        self.for_each_flushed(pending, |t| nearest.score(t));
        nearest.best
    }

    /// The exact minimum recorded value (`None` if empty): the stored
    /// first tuple is exact, and so is every buffered value.
    pub fn min(&self) -> Option<u64> {
        let stored = self.tuples.first().map(|t| t.v);
        stored.into_iter().chain(self.buffer.iter().copied()).min()
    }

    /// The exact maximum recorded value (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        let stored = self.tuples.last().map(|t| t.v);
        stored.into_iter().chain(self.buffer.iter().copied()).max()
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
        let mut band = 0;
        self.for_each_flushed(&self.sorted_pending(), |t| band = band.max(t.g + t.delta));
        band / 2
    }

    /// Number of summary tuples a flush would leave — the sketch's memory
    /// footprint in 24-byte units. Grows like O((1/ε)·log(εn)), not O(n);
    /// the streaming memory tests assert this directly.
    pub fn tuple_count(&self) -> usize {
        let mut n = 0;
        self.for_each_flushed(&self.sorted_pending(), |_| n += 1);
        n
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
        self.for_each_flushed(&self.sorted_pending(), |t| {
            eat(t.v);
            eat(t.g);
            eat(t.delta);
        });
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
    fn property_queries_answer_as_a_flushed_clone() {
        // Both queries must answer exactly as a flushed clone does, at
        // random points between records (mid-batch, across flush
        // boundaries) and at every epsilon; the sorting `quantile_mut`
        // does must leave no trace in the summary a twin that was never
        // queried ends with.
        check::run("quantile == quantile_mut == flushed clone", 64, |g| {
            let eps = g.f64_in(0.002, 0.5);
            let n = g.usize_in(1, 3_000);
            let hi = g.u64_in(2, 1_000_000);
            let every = g.usize_in(1, 40);
            let mut sk = QuantileSketch::new(eps);
            let mut twin = QuantileSketch::new(eps);
            for _ in 0..n {
                let v = g.u64_in(0, hi);
                sk.record(v);
                twin.record(v);
                if g.usize_in(0, every) == 0 {
                    let q = g.f64_in(0.0, 1.0);
                    let mut flushed = sk.clone();
                    flushed.flush();
                    let want = flushed.quantile(q);
                    let pending = sk.buffer.len();
                    assert_eq!(sk.quantile(q), want, "quantile q={q} pending={pending}");
                    assert_eq!(
                        sk.quantile_mut(q),
                        want,
                        "quantile_mut q={q} pending={pending}"
                    );
                    assert_eq!(sk.quantile(q), want, "quantile after sorting, q={q}");
                }
            }
            assert_eq!(sk.digest(), twin.digest());
            sk.flush();
            twin.flush();
            assert_eq!(sk.tuples, twin.tuples);
        });
    }

    /// `gk_pass`'s tuples, collected.
    fn pass(tuples: &[Tuple], pending: &[u64], threshold: u64) -> Vec<Tuple> {
        let mut out = Vec::new();
        gk_pass(tuples, pending, threshold, |t| out.push(t));
        out
    }

    /// The first pass of the two-pass flush the fused pass replaced, kept
    /// as its reference: merge-insert the sorted `pending` values into a
    /// new list.
    fn two_pass_insert(tuples: &[Tuple], pending: &[u64]) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(tuples.len() + pending.len());
        let mut oi = 0;
        for &v in pending {
            while oi < tuples.len() && tuples[oi].v <= v {
                out.push(tuples[oi]);
                oi += 1;
            }
            let delta = if oi == 0 || oi == tuples.len() {
                0
            } else {
                tuples[oi].g + tuples[oi].delta - 1
            };
            out.push(Tuple { v, g: 1, delta });
        }
        out.extend_from_slice(&tuples[oi..]);
        out
    }

    /// The second pass: compress the inserted list in place, left to
    /// right, never merging into the first tuple.
    fn two_pass_compress(tuples: &mut Vec<Tuple>, threshold: u64) {
        if threshold == 0 || tuples.len() <= 2 {
            return;
        }
        let mut w = 0usize;
        for r in 0..tuples.len() {
            let t = tuples[r];
            if w > 1 && tuples[w - 1].g + t.g + t.delta <= threshold {
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

    #[test]
    fn property_streaming_flush_matches_two_pass_reference() {
        // The fused pass must equal the two passes tuple for tuple: the
        // flush at the sketch's own threshold after every batch of a
        // random stream, insertion alone (zero threshold), and
        // compression alone (nothing pending) at random thresholds over
        // the same inserted lists.
        check::run("streamed flush == two-pass flush", 64, |g| {
            let eps = g.f64_in(0.002, 0.5);
            let hi = g.u64_in(2, 100_000);
            let mut sk = QuantileSketch::new(eps);
            for _ in 0..g.usize_in(1, 6) {
                for v in g.vec_u64(0, hi, 1, 2 * BUFFER_CAP) {
                    sk.record(v);
                }
                let mut pending = sk.buffer.clone();
                pending.sort_unstable();
                let inserted = two_pass_insert(&sk.tuples, &pending);
                assert_eq!(pass(&sk.tuples, &pending, 0), inserted, "insertion");
                // A flush with nothing pending changes nothing.
                let mut flushed = inserted.clone();
                if !pending.is_empty() {
                    two_pass_compress(&mut flushed, sk.threshold());
                }
                let mut streamed = Vec::new();
                sk.for_each_flushed(&pending, |t| streamed.push(t));
                assert_eq!(streamed, flushed, "flush at the sketch's threshold");
                let threshold = g.u64_in(0, 4 * sk.count + 1);
                let mut compressed = inserted.clone();
                two_pass_compress(&mut compressed, threshold);
                assert_eq!(
                    pass(&inserted, &[], threshold),
                    compressed,
                    "compression at threshold {threshold}"
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
