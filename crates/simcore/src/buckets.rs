//! Slots keyed by a small count, one bitset per count.
//!
//! [`CountBuckets`] answers the same question as an
//! [`IndexedMinHeap`](crate::IndexedMinHeap) keyed `(count, slot)` —
//! which slot has the lowest count, lowest slot on ties — for keys that
//! move mostly by ±1: the dispatch tier's outstanding counts, which rise
//! by one per booking and fall by one per drained completion. Level `c`
//! is a bitset of the slots whose count is `c`. A move is two bit flips
//! and a population update, where a heap re-key sifts; the minimum is the
//! lowest set bit of the lowest non-empty level.
//!
//! Memory is one bitset of `⌈slots / 64⌉` words per count level up to the
//! largest count ever set, so counts must stay small: a count of `c`
//! costs `c + 1` levels.
//!
//! Determinism: every answer is a pure function of the current contents;
//! the call history does not break ties.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::CountBuckets;
//!
//! let mut b = CountBuckets::new();
//! b.set(7, 2); // slot 7: count 2
//! b.set(3, 1);
//! b.set(5, 1);
//! assert_eq!(b.peek_min(), Some((3, 1))); // lowest slot on ties
//! b.set(3, 9); // slot 3's count changed in place
//! assert_eq!(b.peek_min(), Some((5, 1)));
//! assert_eq!(b.remove(5), Some(1));
//! assert_eq!(b.peek_min(), Some((7, 2)));
//! ```

/// Sentinel for "slot not present" in the count index.
const ABSENT: u32 = u32::MAX;

/// Slots keyed by a small count: O(1) set and removal for a count that
/// moves by one, and the `(count, slot)` minimum in O(⌈slots / 64⌉).
#[derive(Debug, Clone, Default)]
pub struct CountBuckets {
    /// `counts[slot]` is the slot's count, or [`ABSENT`].
    counts: Vec<u32>,
    /// Level `c` occupies `bits[c * words..(c + 1) * words]`: bit `s` is
    /// set exactly when slot `s` has count `c`.
    bits: Vec<u64>,
    /// Words per level, enough for every slot in `counts`.
    words: usize,
    /// Slots at each level.
    sizes: Vec<u32>,
    /// The lowest non-empty level while any slot is present.
    min: u32,
    /// Slots present.
    len: usize,
}

impl CountBuckets {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no slot is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The count of `slot`, if present.
    pub fn get(&self, slot: usize) -> Option<u32> {
        self.counts.get(slot).copied().filter(|&c| c != ABSENT)
    }

    /// The present slot with the lowest count (lowest slot on ties), as
    /// `(slot, count)`.
    pub fn peek_min(&self) -> Option<(usize, u32)> {
        if self.len == 0 {
            return None;
        }
        let level = self.level(self.min);
        let (w, word) = level
            .iter()
            .enumerate()
            .find(|&(_, &word)| word != 0)
            .expect("the lowest level is non-empty");
        Some((w * 64 + word.trailing_zeros() as usize, self.min))
    }

    /// Inserts `slot` or moves it to `count`. O(1), plus growth when a
    /// slot or count is new to the index, plus a walk up the levels when
    /// this empties the lowest one.
    ///
    /// # Panics
    ///
    /// Panics if `count` is `u32::MAX`.
    pub fn set(&mut self, slot: usize, count: u32) {
        assert!(count != ABSENT, "count {count} out of range");
        if slot >= self.counts.len() {
            self.grow_slots(slot + 1);
        }
        let old = self.counts[slot];
        if old == count {
            return;
        }
        if count as usize >= self.sizes.len() {
            self.sizes.resize(count as usize + 1, 0);
            self.bits.resize(self.sizes.len() * self.words, 0);
        }
        self.flip(count, slot);
        self.sizes[count as usize] += 1;
        self.counts[slot] = count;
        if old == ABSENT {
            self.len += 1;
            if self.len == 1 || count < self.min {
                self.min = count;
            }
        } else {
            self.min = self.min.min(count);
            self.take(old, slot);
        }
    }

    /// Withdraws `slot`, returning its count if it was present.
    pub fn remove(&mut self, slot: usize) -> Option<u32> {
        let old = self.get(slot)?;
        self.counts[slot] = ABSENT;
        self.len -= 1;
        self.take(old, slot);
        Some(old)
    }

    /// Clears `slot`'s bit at level `level` and, if that empties the
    /// lowest level while slots remain, moves the minimum up to the next
    /// non-empty one.
    fn take(&mut self, level: u32, slot: usize) {
        self.flip(level, slot);
        self.sizes[level as usize] -= 1;
        if self.len > 0 && level == self.min && self.sizes[level as usize] == 0 {
            self.min = (level + 1..)
                .find(|&c| self.sizes[c as usize] > 0)
                .expect("a present slot sits above the emptied level");
        }
    }

    /// Toggles `slot`'s bit at level `level`.
    #[inline]
    fn flip(&mut self, level: u32, slot: usize) {
        self.bits[level as usize * self.words + slot / 64] ^= 1 << (slot % 64);
    }

    fn level(&self, level: u32) -> &[u64] {
        let start = level as usize * self.words;
        &self.bits[start..start + self.words]
    }

    /// Widens every level to hold `slots` slots.
    fn grow_slots(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        if words > self.words {
            let mut bits = vec![0; self.sizes.len() * words];
            for (c, level) in bits.chunks_exact_mut(words).enumerate() {
                level[..self.words].copy_from_slice(self.level(c as u32));
            }
            self.bits = bits;
            self.words = words;
        }
        self.counts.resize(slots, ABSENT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::IndexedMinHeap;

    #[test]
    fn set_remove_peek_roundtrip() {
        let mut b = CountBuckets::new();
        assert!(b.is_empty());
        assert_eq!(b.peek_min(), None);
        b.set(4, 40);
        b.set(2, 20);
        b.set(9, 90);
        assert_eq!(b.len(), 3);
        assert_eq!(b.peek_min(), Some((2, 20)));
        assert_eq!(b.get(9), Some(90));
        assert_eq!(b.get(3), None);
        // Moves in both directions, and onto an occupied level.
        b.set(9, 5);
        assert_eq!(b.peek_min(), Some((9, 5)));
        b.set(9, 40);
        assert_eq!(b.peek_min(), Some((2, 20)));
        assert_eq!(b.remove(2), Some(20));
        assert_eq!(b.remove(2), None);
        assert_eq!(b.peek_min(), Some((4, 40)), "lowest slot on ties");
        assert_eq!(b.remove(4), Some(40));
        assert_eq!(b.remove(9), Some(40));
        assert!(b.is_empty());
        b.set(200, 3);
        assert_eq!(b.peek_min(), Some((200, 3)), "a fresh minimum");
    }

    /// The index against `IndexedMinHeap<(u32, u32)>`, the structure it
    /// replaces in the dispatch tier: the same membership, counts and
    /// `(count, slot)` minimum after every operation, over 1 to 1,024
    /// slots, with counts that step by one and counts that jump.
    #[test]
    fn property_matches_indexed_heap() {
        check::run("count buckets == indexed heap", 48, |g| {
            let slots = g.usize_in(1, 1_025);
            let ops = g.usize_in(1, 600);
            let mut b = CountBuckets::new();
            let mut h: IndexedMinHeap<(u32, u32)> = IndexedMinHeap::new();
            for _ in 0..ops {
                let slot = g.usize_in(0, slots);
                match g.u64_in(0, 8) {
                    // A booking or a drained completion: ±1.
                    0..=3 => {
                        let count = match b.get(slot) {
                            Some(c) if c > 0 && g.boolean() => c - 1,
                            Some(c) => c + 1,
                            None => g.u64_in(0, 4) as u32,
                        };
                        b.set(slot, count);
                        h.set(slot, (count, slot as u32));
                    }
                    // A reset or a re-filed machine: any count.
                    4 | 5 => {
                        let count = g.u64_in(0, 300) as u32;
                        b.set(slot, count);
                        h.set(slot, (count, slot as u32));
                    }
                    6 => {
                        assert_eq!(b.remove(slot), h.remove(slot).map(|(c, _)| c));
                    }
                    _ => {
                        // Drain the whole index in order, then refill it.
                        let mut drained = Vec::new();
                        while let Some((s, c)) = b.peek_min() {
                            assert_eq!(h.pop_min(), Some((s, (c, s as u32))));
                            b.remove(s);
                            drained.push((s, c));
                        }
                        assert!(h.is_empty());
                        for (s, c) in drained {
                            b.set(s, c);
                            h.set(s, (c, s as u32));
                        }
                    }
                }
                assert_eq!(b.len(), h.len());
                assert_eq!(b.peek_min(), h.peek_min().map(|(s, &(c, _))| (s, c)));
                assert_eq!(b.get(slot), h.get(slot).map(|&(c, _)| c));
            }
        });
    }
}
