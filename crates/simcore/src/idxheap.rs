//! A slot-addressed 4-ary min-heap: `MinHeap4` plus O(log n) update and
//! removal by *slot*.
//!
//! [`IndexedMinHeap`] keys a dense implicit heap by small integer slots
//! (machine indices, in practice): next to the flat `(key, slot)` vector
//! it maintains a slot → heap-position index, so a slot's key can be
//! re-aimed or withdrawn in O(log₄ n) without scanning — the operation the
//! dispatch tier needs when one machine's free instant changes while
//! every other machine stays put. Keys that are only ever pushed and
//! popped belong in the plain heap instead, and small counts that move by
//! one in [`CountBuckets`](crate::CountBuckets).
//!
//! Determinism: comparisons use the key alone and every operation is a
//! pure function of the call history. Callers that need a deterministic
//! [`peek_min`](IndexedMinHeap::peek_min) under key ties bake the
//! tie-break into the key itself (e.g. `(count, machine)`), which also
//! keeps keys unique.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::IndexedMinHeap;
//!
//! let mut h = IndexedMinHeap::new();
//! h.set(7, (2u32, 7u32)); // slot 7: count 2
//! h.set(3, (1, 3));
//! h.set(5, (1, 5));
//! assert_eq!(h.peek_min(), Some((3, &(1, 3)))); // lowest index on ties
//! h.set(3, (9, 3)); // slot 3's count changed in place
//! assert_eq!(h.peek_min(), Some((5, &(1, 5))));
//! assert_eq!(h.remove(5), Some((1, 5)));
//! assert_eq!(h.peek_min(), Some((7, &(2, 7))));
//! ```

/// Children per node — same arity (and the same cache argument) as
/// [`MinHeap4`](crate::MinHeap4).
const ARITY: usize = 4;

/// Sentinel for "slot not present" in the position index.
const ABSENT: u32 = u32::MAX;

/// A flat 4-ary min-heap of `(key, slot)` pairs with O(log n)
/// update/removal addressed by slot.
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<K> {
    /// Heap-ordered `(key, slot)` pairs; ordering compares keys only.
    heap: Vec<(K, u32)>,
    /// `pos[slot]` is the slot's position in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl<K> Default for IndexedMinHeap<K> {
    fn default() -> Self {
        IndexedMinHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }
}

impl<K: Ord + Copy> IndexedMinHeap<K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no slot is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every entry, keeping both allocations.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pos.fill(ABSENT);
    }

    /// `true` if `slot` is queued.
    pub fn contains(&self, slot: usize) -> bool {
        self.pos.get(slot).is_some_and(|&p| p != ABSENT)
    }

    /// The key queued for `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&K> {
        let p = *self.pos.get(slot)?;
        (p != ABSENT).then(|| &self.heap[p as usize].0)
    }

    /// The minimum entry as `(slot, key)`, if any. Ties between equal
    /// keys are broken by heap layout — bake a tie-break into `K` when
    /// the caller needs a deterministic winner.
    pub fn peek_min(&self) -> Option<(usize, &K)> {
        self.heap.first().map(|(k, s)| (*s as usize, k))
    }

    /// Removes and returns the minimum entry. O(log₄ n).
    pub fn pop_min(&mut self) -> Option<(usize, K)> {
        let (key, slot) = *self.heap.first()?;
        self.remove_at(0);
        Some((slot as usize, key))
    }

    /// Inserts or re-keys `slot`. O(log₄ n) either way.
    pub fn set(&mut self, slot: usize, key: K) {
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, ABSENT);
        }
        let p = self.pos[slot];
        if p == ABSENT {
            let p = self.heap.len();
            self.heap.push((key, slot as u32));
            self.pos[slot] = p as u32;
            self.sift_up(p);
        } else {
            let p = p as usize;
            self.heap[p].0 = key;
            self.sift_up(p);
            self.sift_down(p);
        }
    }

    /// Withdraws `slot`, returning its key if it was queued. O(log₄ n).
    pub fn remove(&mut self, slot: usize) -> Option<K> {
        let p = *self.pos.get(slot)?;
        if p == ABSENT {
            return None;
        }
        let key = self.heap[p as usize].0;
        self.remove_at(p as usize);
        Some(key)
    }

    /// Removes the entry at heap position `p`, restoring heap order.
    fn remove_at(&mut self, p: usize) {
        let (_, slot) = self.heap.swap_remove(p);
        self.pos[slot as usize] = ABSENT;
        if p < self.heap.len() {
            self.pos[self.heap[p].1 as usize] = p as u32;
            // The swapped-in tail entry may belong above or below `p`.
            self.sift_up(p);
            self.sift_down(p);
        }
    }

    fn sift_up(&mut self, mut p: usize) {
        while p > 0 {
            let parent = (p - 1) / ARITY;
            if self.heap[parent].0 <= self.heap[p].0 {
                break;
            }
            self.swap(parent, p);
            p = parent;
        }
    }

    fn sift_down(&mut self, mut p: usize) {
        let len = self.heap.len();
        loop {
            let first = p * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut best = first;
            for c in first + 1..last {
                if self.heap[c].0 < self.heap[best].0 {
                    best = c;
                }
            }
            if self.heap[p].0 <= self.heap[best].0 {
                break;
            }
            self.swap(p, best);
            p = best;
        }
    }

    /// Swaps two heap positions, keeping the slot index coherent.
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    #[test]
    fn set_remove_peek_roundtrip() {
        let mut h = IndexedMinHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.peek_min(), None);
        assert_eq!(h.pop_min(), None);
        h.set(4, 40);
        h.set(2, 20);
        h.set(9, 90);
        assert_eq!(h.len(), 3);
        assert_eq!(h.peek_min(), Some((2, &20)));
        assert_eq!(h.get(9), Some(&90));
        assert!(!h.contains(3));
        // Re-key in both directions.
        h.set(9, 5);
        assert_eq!(h.peek_min(), Some((9, &5)));
        h.set(9, 95);
        assert_eq!(h.peek_min(), Some((2, &20)));
        assert_eq!(h.remove(2), Some(20));
        assert_eq!(h.remove(2), None);
        assert_eq!(h.pop_min(), Some((4, 40)));
        assert_eq!(h.pop_min(), Some((9, 95)));
        assert!(h.is_empty());
    }

    #[test]
    fn clear_keeps_working() {
        let mut h = IndexedMinHeap::new();
        h.set(1, 10);
        h.set(2, 5);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(2));
        h.set(2, 7);
        assert_eq!(h.pop_min(), Some((2, 7)));
    }

    #[test]
    fn pops_ascending_after_churn() {
        let mut h = IndexedMinHeap::new();
        for slot in 0..64usize {
            h.set(slot, ((slot * 37) % 101, slot));
        }
        for slot in (0..64).step_by(3) {
            h.set(slot, ((slot * 53) % 97, slot));
        }
        for slot in (0..64).step_by(7) {
            h.remove(slot);
        }
        let mut got = Vec::new();
        while let Some((_, k)) = h.pop_min() {
            got.push(k);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    /// The heap against a linear-scan model: same membership, same keys,
    /// and `peek_min` equals the scan's first-seen minimum (keys carry the
    /// slot as tie-break, mirroring how the dispatch tier uses it).
    #[test]
    fn property_matches_linear_scan_model() {
        check::run("indexed heap == linear scan model", 64, |g| {
            let slots = g.usize_in(1, 25);
            let ops = g.usize_in(1, 121);
            let mut h: IndexedMinHeap<(u64, usize)> = IndexedMinHeap::new();
            let mut model: Vec<Option<u64>> = vec![None; slots];
            for _ in 0..ops {
                let slot = g.usize_in(0, slots);
                match g.u64_in(0, 4) {
                    0 | 1 => {
                        let key = g.u64_in(0, 50);
                        h.set(slot, (key, slot));
                        model[slot] = Some(key);
                    }
                    2 => {
                        assert_eq!(h.remove(slot), model[slot].take().map(|k| (k, slot)));
                    }
                    _ => {
                        let scan = model
                            .iter()
                            .enumerate()
                            .filter_map(|(s, k)| k.map(|k| ((k, s), s)))
                            .min();
                        match scan {
                            Some((key, s)) => {
                                assert_eq!(h.peek_min(), Some((s, &key)));
                                if g.boolean() {
                                    assert_eq!(h.pop_min(), Some((s, key)));
                                    model[s] = None;
                                }
                            }
                            None => assert_eq!(h.peek_min(), None),
                        }
                    }
                }
                assert_eq!(h.len(), model.iter().flatten().count());
                for (s, k) in model.iter().enumerate() {
                    assert_eq!(h.get(s), k.map(|k| (k, s)).as_ref());
                }
            }
        });
    }
}
