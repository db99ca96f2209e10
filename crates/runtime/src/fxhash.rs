//! A small deterministic hasher for hot, point-queried maps.
//!
//! The std `RandomState` (SipHash-1-3) is built to resist hash flooding,
//! which makes each lookup of a few-word key cost several rounds of
//! mixing per word. PDG
//! construction looks up its node and operand-definition maps several
//! times per instruction, on keys the program itself derives (ids and
//! locations), so it uses this multiply-rotate hash instead — the word
//! hash rustc uses internally ("Fx").
//!
//! The hash is seed-free, so it is stable across runs, but a map using it
//! still iterates in an order that depends on its history, and an input
//! crafted to collide defeats it. Use it only for maps that are
//! point-queried, never iterated into output, and keyed on values the
//! program derives rather than on names from its input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The word-at-a-time multiply-rotate hasher behind [`FxHashMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Whole words, then a 4-, 2- and 1-byte tail, each its own word so
        // trailing zero bytes still change the hash.
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            rest = tail;
        }
        if let Some((word, tail)) = rest.split_first_chunk::<4>() {
            self.add(u32::from_le_bytes(*word) as u64);
            rest = tail;
        }
        if let Some((word, tail)) = rest.split_first_chunk::<2>() {
            self.add(u16::from_le_bytes(*word) as u64);
            rest = tail;
        }
        if let Some(&byte) = rest.first() {
            self.add(byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_is_seed_free_and_sees_every_word() {
        assert_eq!(hash_of(&(1u32, 2usize)), hash_of(&(1u32, 2usize)));
        assert_ne!(hash_of(&(1u32, 2usize)), hash_of(&(2u32, 1usize)));
        // A tail shorter than a word still moves the hash.
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
    }

    #[test]
    fn map_round_trips_many_keys() {
        let mut m: FxHashMap<(u32, u32, usize), u32> = FxHashMap::default();
        for f in 0..50u32 {
            for b in 0..20u32 {
                for i in 0..10usize {
                    m.insert((f, b, i), f * 1000 + b * 10 + i as u32);
                }
            }
        }
        assert_eq!(m.len(), 50 * 20 * 10);
        assert_eq!(m.get(&(49, 19, 9)), Some(&49199));
        assert_eq!(m.get(&(50, 0, 0)), None);
    }
}
