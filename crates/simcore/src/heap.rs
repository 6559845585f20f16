//! A dense 4-ary min-heap.
//!
//! [`MinHeap4`] backs the future-event list ([`EventQueue`](crate::EventQueue)),
//! the front end's booked-completion queue and its per-machine heaps: a
//! flat `Vec<K>` ordered as an
//! implicit 4-ary heap — no per-node allocation (unlike `BTreeSet`), no
//! pointer chasing, and each node's children sit adjacent in memory.
//! `push`/[`MinHeap4::pop_min`] are O(log₄ n). The CFS run queues, which
//! also take the largest key, use [`SortedDeque`](crate::SortedDeque)
//! instead.
//!
//! Determinism: all operations are pure functions of the insertion
//! history. With **unique** keys (the event queue keys by instant, then
//! insertion order), `pop_min` returns exactly the minimum — the pick a
//! sorted `BTreeSet` would make via `iter().next()`.
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
//! assert_eq!(h.pop_min(), Some((10, 'a')));
//! assert_eq!(h.len(), 2);
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

    /// Iterates the keys in unspecified (but deterministic) order.
    pub fn iter(&self) -> std::slice::Iter<'_, K> {
        self.items.iter()
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
            let best = if first + ARITY <= len {
                // A full family: a two-round tournament, `c[1] < c[0]` and
                // `c[3] < c[2]`, then the two winners. Each comparison
                // selects an index instead of steering a scan, and a tie
                // keeps the lower index, as a left-to-right scan would.
                let c = &self.items[first..first + ARITY];
                let left = usize::from(c[1] < c[0]);
                let right = 2 + usize::from(c[3] < c[2]);
                first + if c[right] < c[left] { right } else { left }
            } else {
                // The last family is partial: scan it as one slice, which
                // drops the per-child bounds checks.
                let children = &self.items[first..];
                let mut best = 0;
                for (i, c) in children.iter().enumerate().skip(1) {
                    if *c < children[best] {
                        best = i;
                    }
                }
                first + best
            };
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
    fn clear_keeps_working() {
        let mut h = MinHeap4::new();
        h.push(1);
        h.clear();
        assert!(h.is_empty());
        h.push(2);
        assert_eq!(h.pop_min(), Some(2));
    }
}
