//! A small Fx-style hasher. Its users:
//!
//! - the state-id maps of the subset and product constructions;
//! - the structural conjunct digests of `strsolve`'s solve sessions and
//!   the CEGAR verdict cache;
//! - the per-query memos of `strsolve`'s word search, keyed by `Arc`
//!   pointers (the compiled-DFA memo and the character-set memo);
//! - the fuzzer's and the identity tests' digests of search results.
//!
//! The rule: an Fx-hashed map is keyed only by internal ids or
//! pointers, never by content that comes from input text. Maps keyed
//! by such content keep the std hasher.
//!
//! The state-id maps are keyed by state-id sets and pairs the
//! constructions generate themselves, hashed once per transition.
//! SipHash's per-call setup dominated those lookups; one
//! multiply-rotate round per word is enough for dense small integers.
//! Those keys never come from raw outside input, and every construction
//! that outside input can inflate is bounded by a state budget, so the
//! lost collision resistance buys an attacker nothing the budgets do
//! not already cap. Pointer keys are addresses the allocator chose, not
//! the input. The session digests only *select* a cached verdict; a
//! full key comparison decides every hit, so a digest collision —
//! forced or not — costs one solve, never a wrong answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the Fx hash (Firefox / rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style word-at-a-time hasher.
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
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_neighbours_differ() {
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
        assert_ne!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 4]));
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![1u32, 2, 0]));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn map_round_trip() {
        let mut map: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        for i in 0..100u32 {
            map.insert(vec![i, i + 1], i);
        }
        for i in 0..100u32 {
            assert_eq!(map.get(&vec![i, i + 1]), Some(&i));
        }
    }
}
