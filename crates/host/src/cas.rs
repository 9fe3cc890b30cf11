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
//! LRU over physical chunks, kept in an [`Lru`] list. Each content
//! sequence gets a dense [`Lru`] space id when it is first bound, and
//! each object one when it first admits; a chunk lookup is one probe
//! of the space's page directory with no hashing, and a resident chunk
//! costs 8 bytes of links plus its 8-byte owner. Statistics and
//! eviction order are deterministic: bindings live in a `BTreeMap`,
//! recency order is the list, chunks of one call are visited in
//! `(content before object, id, index)` order, and the list's pages are
//! only ever probed by key, never scanned.

use std::collections::BTreeMap;

use crate::fs::ObjectId;
use crate::lru::Lru;
use crate::store::{Admission, BlockStore, CacheStats, ContentId, Lookup};

/// An [`Lru`] space id no space ever gets: probing it finds nothing.
const NO_SPACE: u32 = u32::MAX;

/// What one [`Lru`] space holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    /// Chunks of one content sequence (shared across objects).
    Content,
    /// Chunks of unbound ranges of object `obj` (private,
    /// LRU-equivalent).
    Object(u64),
}

/// One physical chunk a range touches. The derived order — content
/// chunks before object chunks, then by id, then by index — is the
/// order a call visits them in, which fixes their recency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ChunkRef {
    /// False for a content chunk, true for a private object chunk.
    private: bool,
    /// Content id or object id.
    id: u64,
    idx: u64,
    /// The [`Lru`] space of `(private, id)`.
    space: u32,
}

/// One binding: `[image_offset, image_offset+len)` of an object holds
/// `[content_offset, content_offset+len)` of a content sequence.
#[derive(Debug, Clone, Copy)]
struct BindExtent {
    len: u64,
    content: u64,
    /// The content's [`Lru`] space.
    space: u32,
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
    /// Space id -> what it holds.
    spaces: Vec<Space>,
    /// Content id -> space id (assigned at bind time).
    content_spaces: BTreeMap<u64, u32>,
    /// Object id -> space id ([`NO_SPACE`] until the object admits).
    object_spaces: Vec<u32>,
    /// Resident chunks, least recently used first, each with the object
    /// that first admitted it (distinguishes own hits from dedup hits).
    resident: Lru<u64>,
    /// The chunks of the current call, reused across calls.
    scratch: Vec<ChunkRef>,
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
            spaces: Vec::new(),
            content_spaces: BTreeMap::new(),
            object_spaces: Vec::new(),
            resident: Lru::new(),
            scratch: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn new_space(&mut self, holds: Space) -> u32 {
        let id = u32::try_from(self.spaces.len())
            .ok()
            .filter(|&id| id != NO_SPACE)
            .expect("store spaces fit u32");
        self.spaces.push(holds);
        id
    }

    /// The space of `obj`'s private chunks, or [`NO_SPACE`] if it has
    /// never admitted.
    fn object_space(&self, obj: u64) -> u32 {
        usize::try_from(obj)
            .ok()
            .and_then(|o| self.object_spaces.get(o))
            .copied()
            .unwrap_or(NO_SPACE)
    }

    /// Assigns `obj` a space for its private chunks if it has none.
    fn ensure_object_space(&mut self, obj: u64) {
        let o = usize::try_from(obj).expect("object id fits usize");
        if o >= self.object_spaces.len() {
            self.object_spaces.resize(o + 1, NO_SPACE);
        }
        if self.object_spaces[o] == NO_SPACE {
            self.object_spaces[o] = self.new_space(Space::Object(obj));
        }
    }

    /// Calls `f` on every physical chunk backing `[offset, offset+len)`
    /// of `obj`, piece by piece, so in no particular order and possibly
    /// more than once (a sub-chunk binding can split one object chunk
    /// into pieces that share it). Stops, returning false, as soon as
    /// `f` does.
    fn visit(&self, obj: u64, offset: u64, len: u64, mut f: impl FnMut(ChunkRef) -> bool) -> bool {
        let obj_space = self.object_space(obj);
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
                        let key = ChunkRef {
                            private: false,
                            id: be.content,
                            idx,
                            space: be.space,
                        };
                        if !f(key) {
                            return false;
                        }
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
                        let key = ChunkRef {
                            private: true,
                            id: obj,
                            idx,
                            space: obj_space,
                        };
                        if !f(key) {
                            return false;
                        }
                    }
                    pos = piece_end;
                }
            }
        }
        true
    }

    /// Fills `keys` with the physical chunks backing `[offset,
    /// offset+len)` of `obj`, in [`ChunkRef`] order and without
    /// duplicates.
    fn keys_for(&self, obj: u64, offset: u64, len: u64, keys: &mut Vec<ChunkRef>) {
        keys.clear();
        self.visit(obj, offset, len, |k| {
            keys.push(k);
            true
        });
        keys.sort_unstable();
        keys.dedup();
    }

    fn insert_chunk(&mut self, key: ChunkRef, owner: u64) {
        while self.used_bytes() + self.chunk > self.capacity {
            self.resident
                .pop_oldest()
                .expect("store over-full but empty");
        }
        self.resident.insert((key.space, key.idx), owner);
    }
}

impl BlockStore for CasStore {
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        let mut keys = std::mem::take(&mut self.scratch);
        self.keys_for(obj.raw(), offset, len, &mut keys);
        for &key in &keys {
            match self.resident.touch((key.space, key.idx)) {
                Some(owner) => {
                    let dedup = !key.private && owner != obj.raw();
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
        self.scratch = keys;
        out
    }

    fn probe(&self, obj: ObjectId, offset: u64, len: u64) -> bool {
        self.visit(obj.raw(), offset, len, |k| {
            self.resident.contains((k.space, k.idx))
        })
    }

    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) -> Admission {
        let mut any_miss = false;
        let mut any_dedup = false;
        // Unbound chunks this call inserts need the object's space.
        self.ensure_object_space(obj.raw());
        let mut keys = std::mem::take(&mut self.scratch);
        self.keys_for(obj.raw(), offset, len, &mut keys);
        for &key in &keys {
            match self.resident.touch((key.space, key.idx)) {
                Some(owner) => {
                    any_dedup |= !key.private && owner != obj.raw();
                }
                None => {
                    any_miss = true;
                    self.insert_chunk(key, obj.raw());
                }
            }
        }
        self.scratch = keys;
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
        let space = match self.content_spaces.get(&content.raw()) {
            Some(&space) => space,
            None => {
                let space = self.new_space(Space::Content);
                self.content_spaces.insert(content.raw(), space);
                space
            }
        };
        self.bindings.insert(
            (obj.raw(), image_offset),
            BindExtent {
                len,
                content: content.raw(),
                space,
                content_offset,
            },
        );
    }

    /// Drops `obj`'s private chunks and the shared content chunks it
    /// admitted (co-sharers of evicted content refault deterministically).
    fn evict_object(&mut self, obj: ObjectId) {
        let victims: Vec<(u32, u64)> = self
            .resident
            .iter()
            .filter(|&((space, _), owner)| match self.spaces[space as usize] {
                Space::Object(o) => o == obj.raw(),
                Space::Content => owner == obj.raw(),
            })
            .map(|(k, _)| k)
            .collect();
        for k in victims {
            self.resident.remove(k);
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
            .filter(|&((space, _), _)| matches!(self.spaces[space as usize], Space::Object(_)))
            .count() as u64
            * self.chunk;
        // ...while a content chunk serves every binding that covers it.
        for be in self.bindings.values() {
            let c0 = be.content_offset / self.chunk;
            let c1 = (be.content_offset + be.len - 1) / self.chunk;
            for idx in c0..=c1 {
                if self.resident.contains((be.space, idx)) {
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
        assert_eq!((l.hit_bytes, l.dedup_bytes, l.miss_bytes), (8192, 0, 0));
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
        let mut keys = Vec::new();
        s.keys_for(1, 0, 4096, &mut keys);
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
