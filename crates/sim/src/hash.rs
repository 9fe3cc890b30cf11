//! The workspace's one hasher for maps keyed by simulator ids.
//!
//! Actor tables (streams by `(conn, tag)`, descriptors by block, tokens
//! by request id) are keyed by small integers the simulator derives
//! itself. std's default `RandomState` runs SipHash with a per-process
//! random key: strong against crafted collisions, which these keys
//! cannot be, and slow for one- or two-word keys. [`IdHasher`] is the
//! multiply-rotate (FxHash) scheme instead: a couple of instructions per
//! word, and seedless, so the same keys hash the same way in every run.
//!
//! Determinism does not rest on the hasher: maps built on it are only
//! ever probed by key, never iterated (the `unordered-iter` lint rule
//! flags iteration over [`IdHashMap`]/[`IdHashSet`] as it does over any
//! `HashMap`/`HashSet`).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Seedless multiply-rotate hasher for simulator ids (see the module
/// docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
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
        self.0
    }
}

/// Builds [`IdHasher`]s (stateless, so every map hashes alike).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` hashed with [`IdHasher`]. Create with `default()`.
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` hashed with [`IdHasher`]. Create with `default()`.
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn seedless_and_key_sensitive() {
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        assert_ne!(hash_of(&(3u32, 7u64)), hash_of(&(7u32, 3u64)));
        assert_ne!(hash_of(&"/data/a"), hash_of(&"/data/b"));
        // Long strings hash a word at a time, and the tail still counts.
        assert_ne!(hash_of(&"/hdfs/data/blk_10"), hash_of(&"/hdfs/data/blk_11"));
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: IdHashMap<(u32, u64), u8> = IdHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, u64::from(i) * 3), 1);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.remove(&(10, 30)), Some(1));
        assert!(!m.contains_key(&(10, 30)));
        let mut s: IdHashSet<u64> = IdHashSet::default();
        assert!(s.insert(5));
        assert!(!s.insert(5));
    }
}
