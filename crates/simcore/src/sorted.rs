//! A double-ended queue kept in ascending order.
//!
//! [`SortedDeque`] backs the CFS run queues: a `VecDeque<K>` whose front
//! is the smallest key and whose back is the largest. A saturated CFS core
//! requeues its expired task behind every queued key and runs its queue
//! head, so nearly every insert is an append and every pick pops an end:
//!
//! * [`SortedDeque::pop_min`] and [`SortedDeque::take_max`] (the steal and
//!   balance victim pick) are O(1);
//! * [`SortedDeque::push`] is O(1) when the key is not below the back.
//!   Otherwise it binary-searches (O(log n)) and inserts, moving the
//!   shorter side (O(min(i, n − i)) for position `i`).
//!
//! Determinism: equal keys keep insertion order, so every operation is a
//! pure function of the insertion history. With **unique** keys (the run
//! queues key by `(vruntime, task)`), `pop_min` and `take_max` return
//! exactly the picks a sorted `BTreeSet` would make via `iter().next()` /
//! `iter().next_back()`.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::SortedDeque;
//!
//! let mut q = SortedDeque::new();
//! q.push((30, 'c'));
//! q.push((10, 'a'));
//! q.push((20, 'b'));
//! assert_eq!(q.peek_min(), Some(&(10, 'a')));
//! assert_eq!(q.take_max(), Some((30, 'c')));
//! assert_eq!(q.pop_min(), Some((10, 'a')));
//! assert_eq!(q.into_sorted_vec(), vec![(20, 'b')]);
//! ```

use std::collections::VecDeque;

/// A `VecDeque` kept in ascending order, with insertion order among equal
/// keys.
#[derive(Debug, Clone)]
pub struct SortedDeque<K> {
    items: VecDeque<K>,
}

impl<K> Default for SortedDeque<K> {
    fn default() -> Self {
        SortedDeque {
            items: VecDeque::new(),
        }
    }
}

impl<K: Ord> SortedDeque<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued keys.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the queue holds no keys.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Inserts a key after every queued key not above it. O(1) when the
    /// key is not below the back; otherwise a binary search plus a move of
    /// the shorter side.
    pub fn push(&mut self, key: K) {
        match self.items.back() {
            Some(back) if key < *back => {
                let at = self.items.partition_point(|k| *k <= key);
                self.items.insert(at, key);
            }
            _ => self.items.push_back(key),
        }
    }

    /// The smallest key, if any.
    pub fn peek_min(&self) -> Option<&K> {
        self.items.front()
    }

    /// Removes and returns the smallest key. O(1).
    pub fn pop_min(&mut self) -> Option<K> {
        self.items.pop_front()
    }

    /// Removes and returns the largest key: the steal and balance victim
    /// pick. O(1).
    pub fn take_max(&mut self) -> Option<K> {
        self.items.pop_back()
    }

    /// Iterates the keys in ascending order.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, K> {
        self.items.iter()
    }

    /// Consumes the queue, returning all keys in ascending order.
    pub fn into_sorted_vec(self) -> Vec<K> {
        self.items.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_max_mirrors_btreeset_next_back() {
        use std::collections::BTreeSet;
        let keys = [42, 7, 99, 3, 56, 21, 88, 14];
        let mut q = SortedDeque::new();
        let mut model: BTreeSet<i32> = BTreeSet::new();
        for k in keys {
            q.push(k);
            model.insert(k);
        }
        while let Some(&top) = model.iter().next_back() {
            model.remove(&top);
            assert_eq!(q.take_max(), Some(top));
        }
        assert!(q.is_empty());
        assert_eq!(q.take_max(), None);
    }

    #[test]
    fn mixed_min_max_removals_stay_ordered() {
        let mut q = SortedDeque::new();
        for i in 0..64 {
            q.push((i * 37) % 101);
        }
        let mut remaining = 64;
        while remaining > 0 {
            let min = *q.peek_min().unwrap();
            if remaining % 3 == 0 {
                let max = q.take_max().unwrap();
                assert!(q.iter().all(|&k| k <= max));
            } else {
                assert_eq!(q.pop_min(), Some(min));
                assert!(q.iter().all(|&k| k >= min));
            }
            remaining -= 1;
        }
    }

    #[test]
    fn into_sorted_vec_is_ascending() {
        let mut q = SortedDeque::new();
        for x in [3, 1, 2] {
            q.push(x);
        }
        assert_eq!(q.into_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn equal_keys_keep_insertion_order() {
        // Keys compare by their first field only; the second records the
        // insertion order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct K(u32, u32);
        impl PartialOrd for K {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for K {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }
        let mut q = SortedDeque::new();
        for (i, k) in [5, 1, 5, 3, 1, 5].into_iter().enumerate() {
            q.push(K(k, i as u32));
        }
        let order: Vec<u32> = q.iter().map(|k| k.1).collect();
        assert_eq!(order, [1, 4, 3, 0, 2, 5]);
    }
}
