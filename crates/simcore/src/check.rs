//! A miniature property-testing harness with input shrinking.
//!
//! The build environment for this workspace is fully offline, so
//! `proptest` is not available; this module provides the small subset the
//! test suites need: a seeded input generator ([`Gen`]), a case runner
//! ([`run`]) that reports the failing case's seed, and a greedy
//! **shrinker** that minimizes a failing case before reporting it.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::check;
//!
//! check::run("addition commutes", 64, |g| {
//!     let a = g.u64_in(0, 1_000);
//!     let b = g.u64_in(0, 1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! # Replaying and shrinking failures
//!
//! Internally every generated value reduces to a sequence of bounded
//! integer **choices** (the *tape*). When a property fails, the runner
//! shrinks the recorded tape — truncating it and lowering individual
//! choices toward zero — re-running the property on each candidate and
//! keeping it whenever the failure persists, until no candidate fails or
//! the attempt budget runs out. The panic message then names:
//!
//! * the failing case index and **seed** — replay the original, unshrunk
//!   inputs with [`Gen::from_seed`];
//! * the minimized **tape** — replay the shrunk inputs with
//!   [`Gen::from_tape`].
//!
//! ```
//! use faas_simcore::check::Gen;
//!
//! // Suppose `run` reported: "... replay with Gen::from_tape(&[10])".
//! // Feed that tape back through the property's generator calls to get
//! // the minimal failing inputs deterministically:
//! let mut g = Gen::from_tape(&[10]);
//! let v = g.u64_in(0, 1_000);
//! assert_eq!(v, 10); // the smallest value that still fails
//! ```
//!
//! A tape entry is the drawn value's offset within its range; entries
//! beyond the tape's end replay as `0` (the range minimum), which is what
//! makes truncation a valid shrink.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::SimRng;

/// Maximum property re-executions the shrinker may spend per failure.
const SHRINK_BUDGET: usize = 2_000;

/// Where a [`Gen`] takes its choices from.
#[derive(Debug)]
enum Source {
    /// Fresh draws from a seeded RNG (the normal path).
    Random(SimRng),
    /// Replay of a recorded tape (shrink candidates and failure replays).
    /// Entries are clamped into the requested range; the tape's end
    /// replays as zero offsets.
    Tape { values: Vec<u64>, pos: usize },
}

/// A source of random test inputs, seeded per case by [`run`].
#[derive(Debug)]
pub struct Gen {
    source: Source,
    log: Vec<u64>,
}

impl Gen {
    /// Creates a generator from an explicit seed (for replaying a case's
    /// original, unshrunk inputs).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            source: Source::Random(SimRng::seed_from(seed)),
            log: Vec::new(),
        }
    }

    /// Creates a generator that replays a recorded choice tape — the way
    /// to reproduce a **shrunk** failure reported by [`run`].
    ///
    /// Tape entries are offsets within each draw's range, clamped if a
    /// range shrank; draws past the end of the tape return the range
    /// minimum.
    pub fn from_tape(tape: &[u64]) -> Self {
        Gen {
            source: Source::Tape {
                values: tape.to_vec(),
                pos: 0,
            },
            log: Vec::new(),
        }
    }

    /// The recorded choice tape so far (one entry per bounded draw).
    pub fn choices(&self) -> &[u64] {
        &self.log
    }

    /// One bounded choice in `[0, n)` — every public generator reduces to
    /// this, which is what makes recording and shrinking universal.
    fn choice(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let v = match &mut self.source {
            Source::Random(rng) => rng.uniform_u64(n),
            Source::Tape { values, pos } => {
                let raw = values.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                raw.min(n - 1)
            }
        };
        self.log.push(v);
        v
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.choice(hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.choice((hi - lo) as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range");
        // The standard 53-bit [0,1) construction, expressed as a bounded
        // choice so it lands on the tape (and shrinks toward `lo`).
        let u = self.choice(1 << 53) as f64 * (1.0 / (1u64 << 53) as f64);
        (lo + (hi - lo) * u).min(hi.next_down())
    }

    /// A fair coin flip (shrinks toward `false`).
    pub fn boolean(&mut self) -> bool {
        self.choice(2) == 1
    }

    /// A vector of `u64_in(lo, hi)` samples whose length is uniform in
    /// `[min_len, max_len)`.
    ///
    /// # Panics
    ///
    /// Panics if either range is empty.
    pub fn vec_u64(&mut self, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.u64_in(lo, hi)).collect()
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_string()
}

/// Runs `property` once against `tape`, returning the choices it actually
/// consumed and the failure message, if any.
fn run_on_tape<F>(property: &F, tape: &[u64]) -> (Vec<u64>, Option<String>)
where
    F: Fn(&mut Gen),
{
    let mut g = Gen::from_tape(tape);
    let failure = catch_unwind(AssertUnwindSafe(|| property(&mut g)))
        .err()
        .map(|p| panic_message(&*p));
    (g.log, failure)
}

/// `true` if tape `a` is strictly simpler than `b`: shorter, or equal
/// length and lexicographically smaller. Shrinking only ever moves down
/// this well-founded order, which guarantees termination even when a
/// truncated candidate's *consumed* tape re-expands to full length.
fn simpler(a: &[u64], b: &[u64]) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// Greedily minimizes a failing tape: try truncations and per-choice
/// reductions, keep any candidate that still fails **and consumed a
/// strictly simpler tape**, repeat to fixpoint or budget exhaustion.
/// Returns `(tape, message, successful_steps)`.
fn shrink<F>(property: &F, mut tape: Vec<u64>, mut message: String) -> (Vec<u64>, String, usize)
where
    F: Fn(&mut Gen),
{
    let mut steps = 0usize;
    let mut attempts = 0usize;
    'outer: loop {
        let mut candidates: Vec<Vec<u64>> = Vec::new();
        // Structural shrinks first: drop the tail (later draws replay as
        // range minimums), halve the tape.
        if !tape.is_empty() {
            candidates.push(Vec::new());
            candidates.push(tape[..tape.len() / 2].to_vec());
            candidates.push(tape[..tape.len() - 1].to_vec());
        }
        // Value shrinks: push each choice toward zero.
        for i in 0..tape.len() {
            let v = tape[i];
            for smaller in [0, v / 2, v.saturating_sub(1)] {
                if smaller < v {
                    let mut cand = tape.clone();
                    cand[i] = smaller;
                    candidates.push(cand);
                }
            }
        }
        for cand in candidates {
            if cand == tape {
                continue;
            }
            if attempts >= SHRINK_BUDGET {
                break 'outer;
            }
            attempts += 1;
            let (consumed, failure) = run_on_tape(property, &cand);
            if let Some(msg) = failure {
                // Normalize to what the property actually consumed (trims
                // unused trailing entries, applies clamps) — but only
                // adopt it if that is real progress, else a truncation
                // whose consumed tape re-expands to the current one would
                // loop forever.
                if !simpler(&consumed, &tape) {
                    continue;
                }
                tape = consumed;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (tape, message, steps)
}

/// Renders a tape as Rust array syntax for copy-paste replay.
fn render_tape(tape: &[u64]) -> String {
    let inner: Vec<String> = tape.iter().map(u64::to_string).collect();
    format!("&[{}]", inner.join(", "))
}

/// Runs `property` against `cases` independently-seeded generators,
/// shrinking any failure before reporting it.
///
/// Each case's seed is derived deterministically from the case index, so a
/// reported failure replays exactly with [`Gen::from_seed`]; the shrunk
/// minimal inputs replay with [`Gen::from_tape`] (see the module docs for
/// the workflow).
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first case whose property
/// panics, naming the property, case index, seed, minimized failure
/// message and replay tape.
pub fn run<F>(name: &str, cases: u32, property: F)
where
    F: Fn(&mut Gen),
{
    for case in 0..cases {
        let seed = 0x5eed_0000_0000_0000 ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut g = Gen::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            let original = panic_message(&*payload);
            let (tape, message, steps) = shrink(&property, std::mem::take(&mut g.log), original);
            panic!(
                "property '{name}' failed on case {case} (seed {seed:#x}): {message}\n\
                 shrunk by {steps} steps to {} choices; replay the minimal case with \
                 check::Gen::from_tape({})",
                tape.len(),
                render_tape(&tape),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_respected() {
        run("ranges", 128, |g| {
            let x = g.u64_in(5, 10);
            assert!((5..10).contains(&x));
            let y = g.usize_in(0, 3);
            assert!(y < 3);
            let f = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        });
    }

    #[test]
    fn failure_reports_seed() {
        let err = catch_unwind(|| run("always-fails", 4, |_| panic!("boom")))
            .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("always-fails"), "got: {msg}");
        assert!(msg.contains("seed"), "got: {msg}");
        assert!(msg.contains("boom"), "got: {msg}");
    }

    #[test]
    fn same_case_same_inputs() {
        let mut a = Gen::from_seed(99);
        let mut b = Gen::from_seed(99);
        for _ in 0..64 {
            assert_eq!(a.u64_in(0, 1 << 40), b.u64_in(0, 1 << 40));
        }
    }

    #[test]
    fn tape_replays_recorded_choices() {
        // A seeded run's tape, fed back, reproduces the same values.
        let mut a = Gen::from_seed(7);
        let drawn: Vec<u64> = (0..8).map(|_| a.u64_in(10, 1_000)).collect();
        let mut b = Gen::from_tape(a.choices());
        let replayed: Vec<u64> = (0..8).map(|_| b.u64_in(10, 1_000)).collect();
        assert_eq!(drawn, replayed);
    }

    #[test]
    fn tape_edges_clamp_and_zero_fill() {
        // Beyond the tape: the range minimum.
        let mut g = Gen::from_tape(&[]);
        assert_eq!(g.u64_in(3, 10), 3);
        assert!(!g.boolean());
        // Oversized entries clamp to the range maximum.
        let mut g = Gen::from_tape(&[999]);
        assert_eq!(g.u64_in(0, 10), 9);
    }

    #[test]
    fn shrink_finds_the_boundary() {
        // Fails for any v >= 10: the minimal counterexample is exactly 10,
        // and the report must carry the replayable tape.
        let err = catch_unwind(|| {
            run("shrinks-to-ten", 16, |g| {
                let v = g.u64_in(0, 1_000);
                assert!(v < 10, "too big: {v}");
            })
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("too big: 10"), "not minimal: {msg}");
        assert!(msg.contains("from_tape(&[10])"), "no replay tape: {msg}");
    }

    #[test]
    fn shrink_drops_irrelevant_draws() {
        // Only the flag matters; the 100 preceding draws must shrink away
        // (truncation turns them into zeros, then the tape itself shrinks
        // to just the flag's position).
        let err = catch_unwind(|| {
            run("drops-noise", 8, |g| {
                for _ in 0..100 {
                    let _ = g.u64_in(0, 1 << 40);
                }
                assert!(!g.boolean(), "flag set");
            })
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string payload");
        // 100 zeroed draws + the flag at position 100.
        let tape_part = msg.split("from_tape(").nth(1).expect("tape in message");
        let zeros = tape_part.matches("0,").count();
        assert!(zeros >= 100, "noise not zeroed: {msg}");
        assert!(tape_part.contains("1]"), "flag not minimal: {msg}");
    }

    #[test]
    fn minimal_failures_do_not_grow() {
        // A property that fails on every input shrinks to the empty tape.
        let err = catch_unwind(|| run("always", 2, |_| panic!("x"))).expect_err("fails");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("from_tape(&[])"), "got: {msg}");
    }

    #[test]
    fn shrinking_terminates_on_unconditional_failures() {
        // Fails on *every* input after two draws: the all-zero tape still
        // fails, so a naive shrinker would re-adopt the same consumed tape
        // forever and burn the whole budget. The progress check must stop
        // at the zero tape after a handful of steps.
        let err = catch_unwind(|| {
            run("always-after-draws", 2, |g| {
                let _ = g.u64_in(0, 100);
                let _ = g.u64_in(0, 100);
                panic!("unconditional");
            })
        })
        .expect_err("fails");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("from_tape(&[0, 0])"), "got: {msg}");
        let steps: usize = msg
            .split("shrunk by ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("step count in message");
        assert!(steps < 10, "shrinker spun without progress: {msg}");
    }
}
