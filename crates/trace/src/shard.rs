//! Sharded execution of trace synthesis.
//!
//! Workload generation decomposes into fixed **logical units** — one
//! trace minute for invocation synthesis, one [`SPEC_BLOCK`]-sized block
//! of invocations for task-spec jitter — and every unit draws its
//! randomness from an independent stream seeded with
//! [`faas_simcore::SimRng::stream_seed`]`(root, unit_index)`. Because a
//! unit's output depends only on `(root, unit_index)`, the concatenation
//! of per-unit outputs is the same no matter how units are grouped onto
//! worker threads: **byte-identical at any shard count**, with shard
//! count 1 being the plain serial path.
//!
//! This module holds the grouping half of that contract: splitting `n`
//! units into contiguous shard ranges and fanning the ranges across
//! [`faas_simcore::par`] workers, concatenating results in unit order.
//!
//! [`SPEC_BLOCK`]: crate::SPEC_BLOCK
//!
//! # Examples
//!
//! ```
//! use azure_trace::shard;
//!
//! // 10 units over 4 shards: contiguous, near-even, covering ranges.
//! let ranges = shard::shard_ranges(10, 4);
//! assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
//!
//! // Fanning a per-unit computation preserves unit order at any count.
//! let serial = shard::run_sharded(10, 1, |r| r.map(|u| u * u).collect());
//! let fanned = shard::run_sharded(10, 4, |r| r.map(|u| u * u).collect());
//! assert_eq!(serial, fanned);
//! ```

use std::ops::Range;

use faas_simcore::par::par_map_with;

/// Splits `units` logical units into at most `shards` contiguous,
/// near-even, non-empty ranges covering `0..units` in order.
///
/// With `shards == 0`, one shard is assumed. Fewer than `shards` ranges
/// are returned when there are fewer units than shards.
pub fn shard_ranges(units: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(units.max(1));
    if units == 0 {
        return Vec::new();
    }
    let base = units / shards;
    let extra = units % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Applies `f` to every shard range of `0..units` and concatenates the
/// per-range outputs **in unit order**.
///
/// `f` must produce its range's items in ascending unit order; because
/// each unit's result is independent of the grouping (see the module
/// docs), the concatenation is identical at any `shards` value. With one
/// shard (or one unit) everything runs on the calling thread, and that
/// shard's output is returned as it is; several are concatenated into
/// one vector of exactly their total length.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index shard that panicked, with its
/// own payload (see [`par_map_with`]).
pub fn run_sharded<R, F>(units: usize, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let ranges = shard_ranges(units, shards);
    let mut parts = par_map_with(ranges.len(), ranges, |_, range| f(range));
    if parts.len() == 1 {
        return parts.pop().expect("one shard");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_everything_once() {
        for units in [0usize, 1, 2, 7, 10, 64, 1_000] {
            for shards in [1usize, 2, 3, 8, 17, 2_000] {
                let ranges = shard_ranges(units, shards);
                let mut seen = 0;
                for r in &ranges {
                    assert_eq!(r.start, seen, "ranges must be contiguous");
                    assert!(!r.is_empty(), "no empty shards");
                    seen = r.end;
                }
                assert_eq!(seen, units);
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn near_even_split() {
        let ranges = shard_ranges(11, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 4, 3]);
    }

    #[test]
    fn run_sharded_is_shard_count_invariant() {
        let per_unit = |r: Range<usize>| r.map(|u| (u, u * 3)).collect::<Vec<_>>();
        let reference = run_sharded(57, 1, per_unit);
        for shards in [2usize, 3, 5, 57, 100] {
            assert_eq!(run_sharded(57, shards, per_unit), reference);
        }
    }

    #[test]
    fn run_sharded_handles_empty() {
        let out: Vec<u32> = run_sharded(0, 4, |_| Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _: Vec<u32> = run_sharded(8, 4, |r| {
            if r.contains(&5) {
                panic!("boom");
            }
            Vec::new()
        });
    }
}
