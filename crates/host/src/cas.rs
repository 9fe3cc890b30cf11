//! Content-addressed shared host block store.
//!
//! The host page cache of [`crate::cache::PageCache`] stores each VM's
//! disk blocks byte-for-byte, so N co-located HDFS replicas of the same
//! block occupy the cache N times. [`CasStore`] keys chunks by *content*
//! instead: ranges of an image declared identical via
//! [`BlockStore::bind`] (block files registered by `vread_hdfs`'s
//! populate layer) resolve to chunks of a shared content space, so
//! identical blocks are resident once no matter how many images expose
//! them. Unbound ranges fall back to per-object keys and behave exactly
//! like the LRU store.
//!
//! Chunking happens in **content space** (from offset 0 of each bound
//! byte sequence), so replicas laid out at different — even differently
//! aligned — image offsets still share chunks. Eviction is one global
//! LRU over physical chunks, kept in an [`Lru`] list. Statistics and
//! eviction order are deterministic: bindings live in a `BTreeMap`,
//! recency order is the list, and the list's hash index is only ever
//! probed by key, never iterated.

use std::collections::BTreeMap;

use crate::fs::ObjectId;
use crate::lru::Lru;
use crate::store::{Admission, BlockStore, CacheStats, ContentId, Lookup};

/// Key of one physical chunk: content space for bound ranges, object
/// space for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum ChunkKey {
    /// Chunk `idx` of content `cid` (shared across objects).
    Content { cid: u64, idx: u64 },
    /// Chunk `idx` of unbound object `obj` (private, LRU-equivalent).
    Object { obj: u64, idx: u64 },
}

/// One binding: `[image_offset, image_offset+len)` of an object holds
/// `[content_offset, content_offset+len)` of a content sequence.
#[derive(Debug, Clone, Copy)]
struct BindExtent {
    len: u64,
    content: u64,
    content_offset: u64,
}

/// The content-addressed store. See the module docs.
#[derive(Debug, Clone)]
pub struct CasStore {
    capacity: u64,
    chunk: u64,
    /// `(object, image_offset)` -> binding; range-queried to segment
    /// object ranges into content/object pieces.
    bindings: BTreeMap<(u64, u64), BindExtent>,
    /// Resident chunks, least recently used first, each with the object
    /// that first admitted it (distinguishes own hits from dedup hits).
    resident: Lru<ChunkKey, u64>,
    stats: CacheStats,
}

impl CasStore {
    /// Creates a store of `capacity` bytes tracking `chunk`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or larger than `capacity`.
    pub fn new(capacity: u64, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(capacity >= chunk, "capacity smaller than one chunk");
        CasStore {
            capacity,
            chunk,
            bindings: BTreeMap::new(),
            resident: Lru::new(),
            stats: CacheStats::default(),
        }
    }

    /// The physical chunk keys backing `[offset, offset+len)` of `obj`,
    /// in key order and without duplicates (a sub-chunk binding can
    /// split one object chunk into pieces that share a key).
    fn keys_for(&self, obj: u64, offset: u64, len: u64) -> Vec<ChunkKey> {
        let mut keys: Vec<ChunkKey> = Vec::new();
        if len == 0 {
            return keys;
        }
        let end = offset + len;
        let mut pos = offset;
        while pos < end {
            // The binding at or before `pos`, if it still covers it.
            let covering = self
                .bindings
                .range((obj, 0)..=(obj, pos))
                .next_back()
                .filter(|(&(_, start), be)| start + be.len > pos);
            match covering {
                Some((&(_, start), be)) => {
                    let piece_end = end.min(start + be.len);
                    let c0 = be.content_offset + (pos - start);
                    let c1 = be.content_offset + (piece_end - start);
                    for idx in c0 / self.chunk..=(c1 - 1) / self.chunk {
                        keys.push(ChunkKey::Content {
                            cid: be.content,
                            idx,
                        });
                    }
                    pos = piece_end;
                }
                None => {
                    // Unbound until the next binding starts (or `end`).
                    let next_start = self
                        .bindings
                        .range((obj, pos)..(obj, u64::MAX))
                        .next()
                        .map(|(&(_, start), _)| start)
                        .unwrap_or(u64::MAX);
                    let piece_end = end.min(next_start.max(pos + 1));
                    for idx in pos / self.chunk..=(piece_end - 1) / self.chunk {
                        keys.push(ChunkKey::Object { obj, idx });
                    }
                    pos = piece_end;
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn insert_chunk(&mut self, key: ChunkKey, owner: u64) {
        while self.used_bytes() + self.chunk > self.capacity {
            self.resident
                .pop_oldest()
                .expect("store over-full but empty");
        }
        self.resident.insert(key, owner);
    }
}

impl BlockStore for CasStore {
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        for key in self.keys_for(obj.raw(), offset, len) {
            match self.resident.touch(&key) {
                Some(owner) => {
                    let dedup = matches!(key, ChunkKey::Content { .. }) && owner != obj.raw();
                    self.stats.hits += 1;
                    if dedup {
                        self.stats.dedup_hits += 1;
                        out.dedup_bytes += self.chunk;
                    } else {
                        out.hit_bytes += self.chunk;
                    }
                }
                None => {
                    self.stats.misses += 1;
                    out.miss_bytes += self.chunk;
                }
            }
        }
        out
    }

    fn probe(&self, obj: ObjectId, offset: u64, len: u64) -> bool {
        self.keys_for(obj.raw(), offset, len)
            .iter()
            .all(|k| self.resident.contains(k))
    }

    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) -> Admission {
        let mut any_miss = false;
        let mut any_dedup = false;
        for key in self.keys_for(obj.raw(), offset, len) {
            match self.resident.touch(&key) {
                Some(owner) => {
                    any_dedup |= matches!(key, ChunkKey::Content { .. }) && owner != obj.raw();
                }
                None => {
                    any_miss = true;
                    self.insert_chunk(key, obj.raw());
                }
            }
        }
        if any_miss {
            Admission::Miss
        } else if any_dedup {
            Admission::HitDedup
        } else {
            Admission::Hit
        }
    }

    fn evict_to_fit(&mut self, bytes: u64) {
        let budget = self.capacity.saturating_sub(bytes);
        while self.used_bytes() > budget && self.resident.pop_oldest().is_some() {}
    }

    fn bind(
        &mut self,
        obj: ObjectId,
        image_offset: u64,
        len: u64,
        content: ContentId,
        content_offset: u64,
    ) {
        if len == 0 {
            return;
        }
        self.bindings.insert(
            (obj.raw(), image_offset),
            BindExtent {
                len,
                content: content.raw(),
                content_offset,
            },
        );
    }

    /// Drops `obj`'s private chunks and the shared content chunks it
    /// admitted (co-sharers of evicted content refault deterministically).
    fn evict_object(&mut self, obj: ObjectId) {
        let victims: Vec<ChunkKey> = self
            .resident
            .iter()
            .filter(|&(k, owner)| match k {
                ChunkKey::Object { obj: o, .. } => o == obj.raw(),
                ChunkKey::Content { .. } => owner == obj.raw(),
            })
            .map(|(k, _)| k)
            .collect();
        for k in victims {
            self.resident.remove(&k);
        }
    }

    fn clear(&mut self) {
        self.resident.clear();
    }

    fn used_bytes(&self) -> u64 {
        self.resident.len() as u64 * self.chunk
    }

    fn logical_bytes(&self) -> u64 {
        // Private chunks serve exactly one object...
        let mut logical = self
            .resident
            .iter()
            .filter(|(k, _)| matches!(k, ChunkKey::Object { .. }))
            .count() as u64
            * self.chunk;
        // ...while a content chunk serves every binding that covers it.
        for be in self.bindings.values() {
            let c0 = be.content_offset / self.chunk;
            let c1 = (be.content_offset + be.len - 1) / self.chunk;
            for idx in c0..=c1 {
                if self.resident.contains(&ChunkKey::Content {
                    cid: be.content,
                    idx,
                }) {
                    logical += self.chunk;
                }
            }
        }
        logical
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn content_addressed(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    fn cid(n: u64) -> ContentId {
        ContentId::from_raw(n)
    }

    #[test]
    fn unbound_ranges_behave_like_lru() {
        let mut s = CasStore::new(1 << 20, 4096);
        assert_eq!(s.lookup(obj(1), 0, 8192).miss_bytes, 8192);
        s.admit(obj(1), 0, 8192);
        let l = s.lookup(obj(1), 0, 8192);
        assert_eq!((l.hit_bytes, l.dedup_bytes, l.miss_bytes), (8192, 0, 0));
        assert!(s.probe(obj(1), 0, 8192));
        assert_eq!(s.used_bytes(), 8192);
        assert_eq!(s.logical_bytes(), 8192);
        // other objects are disjoint
        assert_eq!(s.lookup(obj(2), 0, 4096).miss_bytes, 4096);
    }

    #[test]
    fn replicas_share_physical_chunks() {
        let mut s = CasStore::new(1 << 20, 4096);
        // Two images hold the same 8 KB block at different offsets.
        s.bind(obj(1), 0, 8192, cid(7), 0);
        s.bind(obj(2), 12288, 8192, cid(7), 0);
        assert_eq!(s.admit(obj(1), 0, 8192), Admission::Miss);
        assert_eq!(s.used_bytes(), 8192);
        // The second replica is already resident — and counted as dedup.
        let l = s.lookup(obj(2), 12288, 8192);
        assert_eq!((l.dedup_bytes, l.miss_bytes), (8192, 0));
        assert_eq!(l.admission(), Admission::HitDedup);
        assert_eq!(s.admit(obj(2), 12288, 8192), Admission::HitDedup);
        // Still one physical copy; two logical views.
        assert_eq!(s.used_bytes(), 8192);
        assert_eq!(s.logical_bytes(), 16384);
        assert_eq!(s.stats().dedup_hits, 2);
    }

    #[test]
    fn differently_aligned_replicas_still_dedup() {
        let mut s = CasStore::new(1 << 20, 4096);
        // Same content, image offsets with different chunk phase.
        s.bind(obj(1), 100, 8192, cid(9), 0);
        s.bind(obj(2), 5000, 8192, cid(9), 0);
        s.admit(obj(1), 100, 8192);
        let used = s.used_bytes();
        let l = s.lookup(obj(2), 5000, 8192);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.dedup_bytes, 8192);
        assert_eq!(s.used_bytes(), used, "no new physical chunks");
    }

    #[test]
    fn own_rereads_are_plain_hits_not_dedup() {
        let mut s = CasStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 8192, cid(3), 0);
        s.admit(obj(1), 0, 8192);
        let l = s.lookup(obj(1), 0, 8192);
        assert_eq!(l.admission(), Admission::Hit);
        assert_eq!(l.dedup_bytes, 0);
        assert_eq!(s.stats().dedup_hits, 0);
    }

    #[test]
    fn lru_eviction_is_global_and_capacity_bounded() {
        let mut s = CasStore::new(3 * 4096, 4096);
        s.admit(obj(1), 0, 4096);
        s.admit(obj(1), 4096, 4096);
        s.admit(obj(1), 8192, 4096);
        // touch chunk 0 so chunk 1 is LRU
        assert_eq!(s.lookup(obj(1), 0, 4096).hit_bytes, 4096);
        s.admit(obj(1), 12288, 4096);
        assert!(s.probe(obj(1), 0, 4096));
        assert!(!s.probe(obj(1), 4096, 4096));
        assert!(s.probe(obj(1), 8192, 4096));
        assert!(s.probe(obj(1), 12288, 4096));
        assert_eq!(s.used_bytes(), 3 * 4096);
    }

    #[test]
    fn evict_object_drops_private_and_owned_content() {
        let mut s = CasStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 4096, cid(5), 0);
        s.bind(obj(2), 0, 4096, cid(5), 0);
        s.admit(obj(1), 0, 4096); // content chunk, owner = 1
        s.admit(obj(1), 8192, 4096); // private chunk of 1
        s.admit(obj(2), 8192, 4096); // private chunk of 2
        s.evict_object(obj(1));
        assert!(!s.probe(obj(1), 8192, 4096));
        assert!(
            !s.probe(obj(2), 0, 4096),
            "shared content owned by 1 dropped"
        );
        assert!(s.probe(obj(2), 8192, 4096));
        assert_eq!(s.used_bytes(), 4096);
    }

    #[test]
    fn clear_keeps_bindings() {
        let mut s = CasStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 4096, cid(5), 0);
        s.bind(obj(2), 0, 4096, cid(5), 0);
        s.admit(obj(1), 0, 4096);
        s.clear();
        assert_eq!(s.used_bytes(), 0);
        // Rebinding not needed: dedup still works after drop_caches.
        s.admit(obj(1), 0, 4096);
        assert_eq!(s.lookup(obj(2), 0, 4096).dedup_bytes, 4096);
    }

    #[test]
    fn sub_chunk_binding_boundaries_do_not_double_count() {
        let mut s = CasStore::new(1 << 20, 4096);
        // A binding strictly inside chunk 0 of object 1.
        s.bind(obj(1), 1000, 2000, cid(4), 0);
        let keys = s.keys_for(1, 0, 4096);
        // object chunk 0 (before + after the binding, deduped) + content chunk 0
        assert_eq!(keys.len(), 2);
        s.admit(obj(1), 0, 4096);
        assert_eq!(s.used_bytes(), 2 * 4096);
        assert!(s.probe(obj(1), 0, 4096));
    }

    #[test]
    fn zero_length_range_is_resident() {
        let mut s = CasStore::new(1 << 20, 4096);
        assert_eq!(s.lookup(obj(1), 500, 0), Lookup::default());
        assert!(s.probe(obj(1), 500, 0));
    }
}
