//! A dense 4-ary min-heap.
//!
//! [`MinHeap4`] backs the scheduler runqueues and the future-event list
//! ([`EventQueue`](crate::EventQueue)): a flat `Vec<K>` ordered as
//! an implicit 4-ary heap — no per-node allocation (unlike `BTreeSet`),
//! no pointer chasing, and each node's children sit adjacent in memory.
//! `push`/[`MinHeap4::pop_min`] are O(log₄ n); [`MinHeap4::take_max`] is a
//! deliberate O(n) scan for the *rare* path (work stealing picks the
//! largest key), which on a dense vector of scheduler-queue size is faster
//! than maintaining a second ordering.
//!
//! Determinism: all operations are pure functions of the insertion
//! history. With **unique** keys (the runqueues key by `(vruntime, task)`,
//! which is unique per task), `pop_min` returns exactly the minimum and
//! `take_max` exactly the maximum — byte-for-byte the picks a sorted
//! `BTreeSet` would make via `iter().next()` / `iter().next_back()`.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::MinHeap4;
//!
//! let mut h = MinHeap4::new();
//! h.push((30, 'c'));
//! h.push((10, 'a'));
//! h.push((20, 'b'));
//! assert_eq!(h.peek_min(), Some(&(10, 'a')));
//! assert_eq!(h.take_max(), Some((30, 'c')));
//! assert_eq!(h.pop_min(), Some((10, 'a')));
//! assert_eq!(h.len(), 1);
//! ```

/// Children per node; four adjacent children halve the depth of a binary
/// heap and land in at most two cache lines for 16-byte keys.
const ARITY: usize = 4;

/// A flat, allocation-light 4-ary min-heap.
#[derive(Debug, Clone)]
pub struct MinHeap4<K> {
    items: Vec<K>,
}

impl<K> Default for MinHeap4<K> {
    fn default() -> Self {
        MinHeap4 { items: Vec::new() }
    }
}

impl<K: Ord> MinHeap4<K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        MinHeap4 { items: Vec::new() }
    }

    /// Number of queued keys.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the heap holds no keys.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Inserts a key. O(log₄ n).
    pub fn push(&mut self, key: K) {
        self.items.push(key);
        self.sift_up(self.items.len() - 1);
    }

    /// The smallest key, if any.
    pub fn peek_min(&self) -> Option<&K> {
        self.items.first()
    }

    /// Removes and returns the smallest key. O(log₄ n).
    pub fn pop_min(&mut self) -> Option<K> {
        if self.items.is_empty() {
            return None;
        }
        let min = self.items.swap_remove(0);
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some(min)
    }

    /// Removes and returns the **largest** key — the steal/balance victim
    /// pick. O(n) scan over the dense vector (the maximum of a min-heap
    /// lives in a leaf, but scanning everything is branch-light and the
    /// operation is off the per-event hot path).
    pub fn take_max(&mut self) -> Option<K> {
        if self.items.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.items.len() {
            if self.items[i] > self.items[best] {
                best = i;
            }
        }
        let max = self.items.swap_remove(best);
        if best < self.items.len() {
            // The swapped-in tail key can only be smaller than the removed
            // maximum, so it may need to move toward the leaves or the
            // root depending on its new neighborhood.
            self.sift_up(best);
            self.sift_down(best);
        }
        Some(max)
    }

    /// Iterates the keys in unspecified (but deterministic) order.
    pub fn iter(&self) -> std::slice::Iter<'_, K> {
        self.items.iter()
    }

    /// Consumes the heap, returning all keys in ascending order.
    pub fn into_sorted_vec(self) -> Vec<K> {
        let mut v = self.items;
        v.sort_unstable();
        v
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.items[parent] <= self.items[pos] {
                break;
            }
            self.items.swap(parent, pos);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.items.len();
        loop {
            let first = pos * ARITY + 1;
            if first >= len {
                break;
            }
            // Scanning the children as one slice drops the per-child
            // bounds checks; indexing each child cost the event queue
            // about a fifth of its pop-and-reschedule time.
            let children = &self.items[first..(first + ARITY).min(len)];
            let mut best = 0;
            for (i, c) in children.iter().enumerate().skip(1) {
                if *c < children[best] {
                    best = i;
                }
            }
            let best = first + best;
            if self.items[pos] <= self.items[best] {
                break;
            }
            self.items.swap(pos, best);
            pos = best;
        }
    }
}

impl<'a, K> IntoIterator for &'a MinHeap4<K> {
    type Item = &'a K;
    type IntoIter = std::slice::Iter<'a, K>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_ascending() {
        let mut h = MinHeap4::new();
        for x in [5, 1, 4, 1 + 1, 3, 9, 0, 7, 6, 8] {
            h.push(x);
        }
        let mut got = Vec::new();
        while let Some(x) = h.pop_min() {
            got.push(x);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn take_max_mirrors_btreeset_next_back() {
        use std::collections::BTreeSet;
        let keys = [42, 7, 99, 3, 56, 21, 88, 14];
        let mut h = MinHeap4::new();
        let mut model: BTreeSet<i32> = BTreeSet::new();
        for k in keys {
            h.push(k);
            model.insert(k);
        }
        while let Some(&top) = model.iter().next_back() {
            model.remove(&top);
            assert_eq!(h.take_max(), Some(top));
        }
        assert!(h.is_empty());
        assert_eq!(h.take_max(), None);
    }

    #[test]
    fn mixed_min_max_removals_stay_ordered() {
        let mut h = MinHeap4::new();
        for i in 0..64 {
            h.push((i * 37) % 101);
        }
        let mut remaining = 64;
        while remaining > 0 {
            let min = *h.peek_min().unwrap();
            if remaining % 3 == 0 {
                let max = h.take_max().unwrap();
                assert!(h.iter().all(|&k| k <= max));
            } else {
                assert_eq!(h.pop_min(), Some(min));
                assert!(h.iter().all(|&k| k >= min));
            }
            remaining -= 1;
        }
    }

    #[test]
    fn into_sorted_vec_is_ascending() {
        let mut h = MinHeap4::new();
        for x in [3, 1, 2] {
            h.push(x);
        }
        assert_eq!(h.into_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn clear_keeps_working() {
        let mut h = MinHeap4::new();
        h.push(1);
        h.clear();
        assert!(h.is_empty());
        h.push(2);
        assert_eq!(h.pop_min(), Some(2));
    }
}
