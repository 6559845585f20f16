//! The idle set, and every other set of cores, as bitsets in one word
//! layout.
//!
//! The kernel consults "which cores are idle?" after *every* event, and
//! the driver offers only the idle cores the policy has work for. Both
//! sets are [`CoreSet`]s: the machine's idle set, updated on every core
//! state transition (dispatch, preempt, finish, interference), and the
//! offer mask a policy narrows through [`Machine::offer_mask_mut`].
//! Policies keep their core groups in the same type, so composing a mask
//! is one operation per 64-core word. Membership updates are O(1) and
//! iteration is O(members) in ascending id order.
//!
//! The first 64 cores live in an inline word — machines up to 64 cores
//! (the paper's is 50) never touch the heap on the hot path; larger
//! machines spill into a vector of overflow words.
//!
//! [`Machine::offer_mask_mut`]: crate::Machine::offer_mask_mut

use crate::core::CoreId;

/// A set of the cores of a machine, one bit per core.
///
/// Two sets combined with [`copy_from`](Self::copy_from),
/// [`union_with`](Self::union_with) or
/// [`difference_with`](Self::difference_with) must be built for the same
/// number of words (the same core count does it).
#[derive(Debug, Clone)]
pub struct CoreSet {
    /// Cores 0..64.
    word0: u64,
    /// Cores 64.., one word per 64 (empty for machines up to 64 cores).
    rest: Vec<u64>,
}

impl CoreSet {
    /// The empty set over a machine of `cores` cores.
    #[inline]
    pub fn empty(cores: usize) -> Self {
        let overflow = cores.saturating_sub(1) / 64;
        CoreSet {
            word0: 0,
            rest: if overflow == 0 {
                Vec::new()
            } else {
                vec![0; overflow]
            },
        }
    }

    /// Every core of a machine of `cores` cores.
    #[inline]
    pub fn full(cores: usize) -> Self {
        let mut set = CoreSet::empty(cores);
        for w in 0..set.num_words() {
            let used = (cores - w * 64).min(64);
            *set.word_mut(w) = if used == 64 {
                u64::MAX
            } else {
                (1u64 << used) - 1
            };
        }
        set
    }

    /// Number of 64-core words.
    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        1 + self.rest.len()
    }

    /// The bits of cores `64 * w .. 64 * w + 64`.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.word0
        } else {
            self.rest[w - 1]
        }
    }

    #[inline]
    pub(crate) fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            &mut self.word0
        } else {
            &mut self.rest[w - 1]
        }
    }

    /// Whether `core` is in the set.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        let i = core.index();
        self.word(i / 64) & (1u64 << (i % 64)) != 0
    }

    /// Adds `core`.
    #[inline]
    pub fn insert(&mut self, core: CoreId) {
        let i = core.index();
        *self.word_mut(i / 64) |= 1u64 << (i % 64);
    }

    /// Removes `core`.
    #[inline]
    pub fn remove(&mut self, core: CoreId) {
        let i = core.index();
        *self.word_mut(i / 64) &= !(1u64 << (i % 64));
    }

    /// Removes every core.
    #[inline]
    pub fn clear(&mut self) {
        self.word0 = 0;
        // The driver clears and copies sets once per offer pass: on a
        // machine of at most 64 cores, skipping the empty overflow vector
        // saves a `memset`/`memcpy` call that doubled a 4-core FIFO run.
        if !self.rest.is_empty() {
            self.rest.fill(0);
        }
    }

    /// Makes this set equal to `other`, word by word.
    #[inline]
    pub fn copy_from(&mut self, other: &CoreSet) {
        self.word0 = other.word0;
        if !self.rest.is_empty() {
            self.rest.copy_from_slice(&other.rest);
        }
    }

    /// Adds every core of `other`, word by word.
    #[inline]
    pub fn union_with(&mut self, other: &CoreSet) {
        self.word0 |= other.word0;
        for (a, b) in self.rest.iter_mut().zip(&other.rest) {
            *a |= b;
        }
    }

    /// Removes every core of `other`, word by word.
    #[inline]
    pub fn difference_with(&mut self, other: &CoreSet) {
        self.word0 &= !other.word0;
        for (a, b) in self.rest.iter_mut().zip(&other.rest) {
            *a &= !b;
        }
    }

    /// Iterates the cores in ascending id order without allocating.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        CoreSetIter {
            rest: &self.rest,
            word_idx: 0,
            current: self.word0,
        }
    }
}

/// Ascending-order iterator over a [`CoreSet`] (one bit scan per step).
struct CoreSetIter<'a> {
    rest: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for CoreSetIter<'_> {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(CoreId::from_index(self.word_idx * 64 + bit));
            }
            if self.word_idx >= self.rest.len() {
                return None;
            }
            self.current = self.rest[self.word_idx];
            self.word_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(set: &CoreSet) -> Vec<usize> {
        set.iter().map(|c| c.index()).collect()
    }

    #[test]
    fn starts_all_idle() {
        let set = CoreSet::full(5);
        assert_eq!(ids(&set), vec![0, 1, 2, 3, 4]);
        assert_eq!(CoreSet::empty(5).iter().count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut set = CoreSet::full(3);
        set.remove(CoreId::from_index(1));
        assert_eq!(ids(&set), vec![0, 2]);
        assert!(!set.contains(CoreId::from_index(1)));
        set.insert(CoreId::from_index(1));
        assert_eq!(ids(&set), vec![0, 1, 2]);
    }

    #[test]
    fn spans_word_boundaries() {
        let mut set = CoreSet::full(130);
        assert_eq!(set.iter().count(), 130);
        for i in 0..130 {
            if i % 3 != 0 {
                set.remove(CoreId::from_index(i));
            }
        }
        let expect: Vec<usize> = (0..130).filter(|i| i % 3 == 0).collect();
        assert_eq!(ids(&set), expect);
    }

    #[test]
    fn exact_multiple_of_word_size() {
        let set = CoreSet::full(128);
        assert_eq!(set.iter().count(), 128);
        assert!(set.contains(CoreId::from_index(127)));
        assert!(set.contains(CoreId::from_index(64)));
        assert!(set.contains(CoreId::from_index(63)));
    }

    #[test]
    fn copy_and_union_work_across_words() {
        let core = CoreId::from_index;
        let mut a = CoreSet::empty(130);
        let mut b = CoreSet::empty(130);
        a.insert(core(3));
        a.insert(core(70));
        b.insert(core(64));
        b.insert(core(129));
        let mut c = CoreSet::full(130);
        c.copy_from(&a);
        assert_eq!(ids(&c), vec![3, 70]);
        c.union_with(&b);
        assert_eq!(ids(&c), vec![3, 64, 70, 129]);
        c.difference_with(&a);
        assert_eq!(ids(&c), vec![64, 129]);
        c.clear();
        assert_eq!(ids(&c), Vec::<usize>::new());
    }
}
