//! The host block-store API: typed lookups, admissions and statistics.
//!
//! PR 7 redesigns the host-cache surface. The old interface was three
//! free-form calls (`missing_bytes` / `insert_range` / `covers`) plus
//! public counter fields; every call site re-derived what the outcome
//! *meant*. [`BlockStore`] makes the outcome a value: [`Lookup`] says how
//! many bytes hit, hit **via dedup** (resident because another co-located
//! VM admitted identical content) or missed, and [`Admission`] classifies
//! an insert. Two implementations exist:
//!
//! * [`crate::cache::PageCache`] — the byte-capacity LRU used by guests
//!   and (by default) hosts; never dedups, so `dedup_bytes` is always 0;
//! * [`crate::cas::CasStore`] — the content-addressed shared store:
//!   ranges bound to a [`ContentId`] are keyed by content, so HDFS
//!   replicas and shared files occupy physical capacity once.
//!
//! Everything is deterministic: no wall clock, no unordered iteration,
//! and the stores live per-host inside [`crate::Cluster`], i.e. inside
//! the one world that drives the scenario.

use crate::fs::ObjectId;

/// Identity of a byte sequence independent of which disk image holds it.
///
/// The simulator does not materialize data bytes, so content identity is
/// derived from what *determines* the bytes: for HDFS block files the
/// block path (replicas of block N contain identical bytes on every
/// datanode, and all datanodes store block N under the same path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentId(u64);

impl ContentId {
    /// Derives a content id from a path (FNV-1a; no ambient entropy, so
    /// ids are stable across runs and processes).
    pub fn from_path(path: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ContentId(h)
    }

    /// Constructs from a raw id (tests).
    pub const fn from_raw(raw: u64) -> Self {
        ContentId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Typed outcome of admitting a range into a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Every chunk was already resident and owned by this object.
    Hit,
    /// Every chunk was resident, at least one only via content shared
    /// with another object (dedup).
    HitDedup,
    /// At least one chunk had to be brought in.
    Miss,
}

/// Byte-granular outcome of a [`BlockStore::lookup`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lookup {
    /// Bytes resident and admitted via this object.
    pub hit_bytes: u64,
    /// Bytes resident only because identical content was admitted via a
    /// *different* object (always 0 for an LRU store).
    pub dedup_bytes: u64,
    /// Bytes not resident (whole missing chunks counted in full, which
    /// models read-ahead at chunk granularity).
    pub miss_bytes: u64,
}

/// Hit/miss counters, chunk-granular (one count per chunk consulted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunks found resident (includes `dedup_hits`).
    pub hits: u64,
    /// Chunks not resident.
    pub misses: u64,
    /// Subset of `hits` served by content another object admitted.
    pub dedup_hits: u64,
}

/// A byte-capacity block store tracking fixed-size chunks of objects.
///
/// Implementations must be deterministic: identical call sequences yield
/// identical outcomes, statistics and eviction order.
pub trait BlockStore: std::fmt::Debug {
    /// Classifies residency of `[offset, offset+len)` of `obj`, updating
    /// statistics and the recency of resident chunks.
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup;

    /// Whether the whole range is resident (no statistics, no touch).
    fn probe(&self, obj: ObjectId, offset: u64, len: u64) -> bool;

    /// Brings the range in (evicting as needed) or refreshes it.
    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) -> Admission;

    /// Evicts least-recently-used chunks until `bytes` more fit.
    fn evict_to_fit(&mut self, bytes: u64);

    /// Declares that `[image_offset, image_offset+len)` of `obj` holds
    /// the bytes at `[content_offset, content_offset+len)` of `content`.
    /// Stores without content addressing ignore this (default no-op).
    fn bind(
        &mut self,
        _obj: ObjectId,
        _image_offset: u64,
        _len: u64,
        _content: ContentId,
        _content_offset: u64,
    ) {
    }

    /// Drops every cached chunk attributable to `obj`.
    fn evict_object(&mut self, obj: ObjectId);

    /// Empties the store (the paper's `drop_caches`); bindings and
    /// statistics survive.
    fn clear(&mut self);

    /// Physical bytes currently resident.
    fn used_bytes(&self) -> u64;

    /// Logical bytes served: object-visible resident bytes, counting a
    /// physical chunk once per object that can see it. Equal to
    /// [`BlockStore::used_bytes`] without dedup; larger with it — the
    /// ratio is the effective-capacity multiplier.
    fn logical_bytes(&self) -> u64;

    /// Configured capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Hit/miss/dedup counters.
    fn stats(&self) -> CacheStats;

    /// Whether the store dedups by content (drives the hash-cost charge
    /// on admission and the map-serve fast path in the daemon).
    fn content_addressed(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_id_is_stable_and_path_sensitive() {
        let a = ContentId::from_path("/hdfs/data/blk_1");
        let b = ContentId::from_path("/hdfs/data/blk_1");
        let c = ContentId::from_path("/hdfs/data/blk_2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // FNV-1a of an empty string is the offset basis.
        assert_eq!(ContentId::from_path("").raw(), 0xcbf2_9ce4_8422_2325);
    }
}
