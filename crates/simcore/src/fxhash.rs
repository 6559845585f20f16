//! A fast, non-cryptographic hasher for small integer keys.
//!
//! [`FxHasher`] is the rotate–xor–multiply scheme of rustc's `FxHasher`:
//! each word folds in as `hash = (hash.rotl(5) ^ word) * K`. On the
//! dispatch tier's keys (machine indices, function ids and their pairs)
//! one lookup costs a couple of multiplies instead of SipHash-1-3's
//! rounds. It is not keyed, so it offers no protection against inputs
//! crafted to collide; use it only for keys the simulation derives
//! itself.
//!
//! Determinism: hashing is a pure function of the key, so a map's layout
//! repeats from run to run — but callers must still not let a map's
//! iteration order reach output.
//!
//! # Examples
//!
//! ```
//! use faas_simcore::FxHashMap;
//!
//! let mut pools: FxHashMap<(u32, u64), Vec<u64>> = FxHashMap::default();
//! pools.entry((3, 7)).or_default().push(42);
//! assert_eq!(pools.get(&(3, 7)).map(Vec::len), Some(1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The rotate–xor–multiply hasher (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunk of 8")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn words_fold_by_rotate_xor_multiply() {
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), K);
        // A pair folds its fields in order: (1, 2) → ((K rotl 5) ^ 2) · K.
        assert_eq!(
            hash_of((1u32, 2u64)),
            (K.rotate_left(5) ^ 2).wrapping_mul(K)
        );
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
    }

    #[test]
    fn byte_slices_fold_whole_words_then_the_tail() {
        let mut h = FxHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 9]);
        let mut want = FxHasher::default();
        want.write_u64(1);
        want.write_u8(9);
        assert_eq!(h.finish(), want.finish());
    }
}
