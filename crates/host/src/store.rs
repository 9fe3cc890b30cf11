//! The block store: the one page-cache model every guest and every host
//! owns.
//!
//! Guest kernels and the host kernel both cache file data. A
//! [`BlockStore`] tracks fixed-size chunks of *objects* (an object is a
//! disk image; the offset space of a VM's files lives inside its image)
//! within a byte capacity, evicting the least recently used chunk when
//! full. Whether a read hits DRAM or the SSD is the entire difference
//! between the paper's *read* and *re-read* experiments, and host-cache
//! hits are why vRead's mounted-image design (§6 "Direct Read Bypassing
//! the File System in the Host") out-performs a raw-device bypass.
//!
//! A store is content-addressed where it has bindings.
//! [`BlockStore::bind`] declares that a range of an image holds a range
//! of a content sequence (an HDFS block file, identical on every
//! replica). Bound ranges resolve to chunks of a shared content space,
//! so identical blocks are resident once however many images expose
//! them, and a lookup that finds content another image admitted is a
//! *dedup* hit. Chunking happens in content space (from offset 0 of each
//! bound sequence), so replicas at differently aligned image offsets
//! still share chunks. Which stores receive bindings is
//! [`crate::Cluster`]'s choice: host stores in
//! [`crate::HostCacheMode::Cas`], and no others. A store without
//! bindings is a plain LRU page cache: `dedup_bytes` is always 0 and
//! logical bytes equal used bytes.
//!
//! Recency is one [`Lru`] list over physical chunks. Each object gets a
//! dense space id for its private (unbound) chunks when it first admits,
//! and each content sequence one when it is first bound, so a chunk
//! lookup is one probe of the space's page directory with no hashing.
//! Only content chunks carry an owner, the object that admitted them,
//! which tells own hits from dedup hits. A store with no bindings visits
//! a range's chunks directly. A store with bindings segments the range
//! by binding and visits each physical chunk once, in `(content before
//! object, id, index)` order, which fixes their recency order.
//!
//! Everything is deterministic: no wall clock, bindings live in a
//! `BTreeMap`, recency order is the list and its pages are only ever
//! probed by key, and the stores live inside [`crate::Cluster`], i.e.
//! inside the one world that drives the scenario.

use std::collections::BTreeMap;

use crate::fs::ObjectId;
use crate::lru::Lru;

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

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Byte-granular outcome of a [`BlockStore::lookup`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lookup {
    /// Bytes resident and admitted via this object.
    pub hit_bytes: u64,
    /// Bytes resident only because identical content was admitted via a
    /// *different* object (always 0 in a store without bindings).
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

/// An [`Lru`] space id no space ever gets: probing it finds nothing.
const NO_SPACE: u32 = u32::MAX;

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

/// A byte-capacity LRU store of object chunks, content-addressed where
/// it has bindings (see the module docs).
///
/// ```rust
/// use vread_host::fs::ObjectId;
/// use vread_host::store::BlockStore;
///
/// let mut cache = BlockStore::new(1 << 20, 4096);
/// let img = ObjectId::from_raw(1);
/// assert_eq!(cache.lookup(img, 0, 8192).miss_bytes, 8192); // cold
/// cache.admit(img, 0, 8192);
/// assert_eq!(cache.lookup(img, 0, 8192).hit_bytes, 8192); // re-read hits DRAM
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    capacity: u64,
    chunk: u64,
    /// `(object, image_offset)` -> binding; range-queried to segment
    /// object ranges into content/object pieces.
    bindings: BTreeMap<(u64, u64), BindExtent>,
    /// Spaces handed out so far.
    spaces: u32,
    /// Content id -> space id (assigned at bind time).
    content_spaces: BTreeMap<u64, u32>,
    /// Object id -> space id ([`NO_SPACE`] until the object admits).
    object_spaces: Vec<u32>,
    /// Resident chunks, least recently used first; content chunks with
    /// the object that first admitted them.
    lru: Lru,
    /// The chunks of the current call, reused across calls.
    scratch: Vec<ChunkRef>,
    stats: CacheStats,
}

impl BlockStore {
    /// Creates a store of `capacity` bytes tracking `chunk`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or larger than `capacity` (a store that
    /// cannot hold one chunk is a configuration error).
    pub fn new(capacity: u64, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(capacity >= chunk, "capacity smaller than one chunk");
        BlockStore {
            capacity,
            chunk,
            bindings: BTreeMap::new(),
            spaces: 0,
            content_spaces: BTreeMap::new(),
            object_spaces: Vec::new(),
            lru: Lru::new(),
            scratch: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Classifies residency of `[offset, offset+len)` of `obj` (whole
    /// missing chunks counted in full, which models read-ahead at chunk
    /// granularity), updating statistics and the recency of resident
    /// chunks. Never evicts.
    pub fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        self.for_each_chunk(obj.raw(), offset, len, |s, key| {
            let at = (key.space, key.idx);
            if !s.lru.touch(at) {
                s.stats.misses += 1;
                out.miss_bytes += s.chunk;
                return;
            }
            s.stats.hits += 1;
            if !key.private && s.lru.owner(at) != Some(obj.raw()) {
                s.stats.dedup_hits += 1;
                out.dedup_bytes += s.chunk;
            } else {
                out.hit_bytes += s.chunk;
            }
        });
        out
    }

    /// Brings the range in (evicting least recently used chunks as
    /// needed) or refreshes it.
    pub fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) {
        // Unbound chunks this call inserts need the object's space.
        self.ensure_object_space(obj.raw());
        self.for_each_chunk(obj.raw(), offset, len, |s, key| {
            let at = (key.space, key.idx);
            if !s.lru.touch(at) {
                while s.used_bytes() + s.chunk > s.capacity {
                    s.lru.pop_oldest().expect("store over-full but empty");
                }
                s.lru.insert(at, (!key.private).then_some(obj.raw()));
            }
        });
    }

    /// Declares that `[image_offset, image_offset+len)` of `obj` holds
    /// the bytes at `[content_offset, content_offset+len)` of `content`.
    pub fn bind(
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
                let space = self.new_space();
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

    /// Empties the store (the paper's `drop_caches`); bindings and
    /// statistics survive.
    pub fn clear(&mut self) {
        self.lru.clear();
    }

    /// Physical bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.lru.len() as u64 * self.chunk
    }

    /// Logical bytes served: object-visible resident bytes, counting a
    /// physical chunk once per object that can see it. Equal to
    /// [`BlockStore::used_bytes`] without dedup; larger with it — the
    /// ratio is the effective-capacity multiplier.
    pub fn logical_bytes(&self) -> u64 {
        if self.bindings.is_empty() {
            return self.used_bytes();
        }
        // Private chunks, the ones without an owner, serve exactly one
        // object...
        let mut logical = self
            .lru
            .iter()
            .filter(|&k| self.lru.owner(k).is_none())
            .count() as u64
            * self.chunk;
        // ...while a content chunk serves every binding that covers it.
        for be in self.bindings.values() {
            let c0 = be.content_offset / self.chunk;
            let c1 = (be.content_offset + be.len - 1) / self.chunk;
            for idx in c0..=c1 {
                if self.lru.contains((be.space, idx)) {
                    logical += self.chunk;
                }
            }
        }
        logical
    }

    /// Hit/miss/dedup counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn new_space(&mut self) -> u32 {
        let id = self.spaces;
        assert!(id != NO_SPACE, "store spaces fit u32");
        self.spaces += 1;
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
            self.object_spaces[o] = self.new_space();
        }
    }

    /// Calls `f` once on every physical chunk backing `[offset,
    /// offset+len)` of `obj`, in [`ChunkRef`] order. Without bindings
    /// that is the range's own chunks, visited directly.
    fn for_each_chunk(
        &mut self,
        obj: u64,
        offset: u64,
        len: u64,
        mut f: impl FnMut(&mut Self, ChunkRef),
    ) {
        if self.bindings.is_empty() {
            let space = self.object_space(obj);
            if len > 0 {
                for idx in offset / self.chunk..=(offset + len - 1) / self.chunk {
                    let key = ChunkRef {
                        private: true,
                        id: obj,
                        idx,
                        space,
                    };
                    f(self, key);
                }
            }
            return;
        }
        let mut keys = std::mem::take(&mut self.scratch);
        self.keys_for(obj, offset, len, &mut keys);
        for &key in &keys {
            f(self, key);
        }
        self.scratch = keys;
    }

    /// Fills `keys` with the physical chunks backing `[offset,
    /// offset+len)` of `obj`, in [`ChunkRef`] order and without
    /// duplicates. The range is cut into pieces at binding boundaries,
    /// and a sub-chunk binding can split one object chunk into pieces
    /// that share it, hence the sort and dedup.
    fn keys_for(&self, obj: u64, offset: u64, len: u64, keys: &mut Vec<ChunkRef>) {
        keys.clear();
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
                    keys.extend(
                        (c0 / self.chunk..=(c1 - 1) / self.chunk).map(|idx| ChunkRef {
                            private: false,
                            id: be.content,
                            idx,
                            space: be.space,
                        }),
                    );
                    pos = piece_end;
                }
                None => {
                    // Unbound until the next binding starts (or `end`).
                    let next_start = self
                        .bindings
                        .range((obj, pos)..(obj, u64::MAX))
                        .next()
                        .map_or(u64::MAX, |(&(_, start), _)| start);
                    let piece_end = end.min(next_start.max(pos + 1));
                    keys.extend(
                        (pos / self.chunk..=(piece_end - 1) / self.chunk).map(|idx| ChunkRef {
                            private: true,
                            id: obj,
                            idx,
                            space: obj_space,
                        }),
                    );
                    pos = piece_end;
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    fn cid(path: &str) -> ContentId {
        ContentId::from_path(path)
    }

    /// Whether the whole range is resident, read on a clone: a lookup
    /// never evicts, but it counts and touches.
    fn resident(s: &BlockStore, o: u64, offset: u64, len: u64) -> bool {
        s.clone().lookup(obj(o), offset, len).miss_bytes == 0
    }

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

    #[test]
    fn miss_then_hit() {
        let mut c = BlockStore::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 8192);
        c.admit(obj(1), 0, 8192);
        let l = c.lookup(obj(1), 0, 8192);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.hit_bytes, 8192);
        assert_eq!(l.dedup_bytes, 0, "an unbound store never dedups");
        assert_eq!(c.used_bytes(), 8192);
        assert_eq!(c.logical_bytes(), 8192);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                dedup_hits: 0
            }
        );
    }

    #[test]
    fn partial_coverage() {
        let mut c = BlockStore::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        // second chunk missing
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 4096);
    }

    #[test]
    fn unaligned_ranges_cover_their_chunks() {
        let mut c = BlockStore::new(1 << 20, 4096);
        c.admit(obj(1), 100, 1); // touches chunk 0
        assert!(resident(&c, 1, 0, 10));
        assert!(!resident(&c, 1, 4096, 1));
        // range straddling a boundary needs both chunks
        c.admit(obj(1), 4000, 200);
        assert!(resident(&c, 1, 4000, 200));
        assert_eq!(c.used_bytes(), 2 * 4096);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = BlockStore::new(3 * 4096, 4096);
        c.admit(obj(1), 0, 4096); // chunk 0
        c.admit(obj(1), 4096, 4096); // chunk 1
        c.admit(obj(1), 8192, 4096); // chunk 2
                                     // touch chunk 0 so chunk 1 is LRU
        assert_eq!(c.lookup(obj(1), 0, 4096).miss_bytes, 0);
        c.admit(obj(1), 12288, 4096); // chunk 3 evicts chunk 1
        assert!(resident(&c, 1, 0, 4096));
        assert!(!resident(&c, 1, 4096, 4096));
        assert!(resident(&c, 1, 8192, 4096));
        assert!(resident(&c, 1, 12288, 4096));
        assert_eq!(c.used_bytes(), 3 * 4096);
    }

    /// Regression test pinning eviction order exactly: every touch or
    /// insert moves one chunk to the newest end of the recency list, so
    /// LRU ties are impossible by construction and the eviction sequence
    /// is fully determined by the access sequence. If chunks admitted by
    /// one call ever stop entering the list in chunk order, this test
    /// fails.
    #[test]
    fn eviction_order_is_pinned_by_access_order() {
        let mut c = BlockStore::new(4 * 4096, 4096);
        // Admit chunks 0..4 in one call: internal order must be 0,1,2,3.
        c.admit(obj(1), 0, 4 * 4096);
        // Touch 1 then 0: LRU order now 2,3,1,0.
        c.admit(obj(1), 4096, 4096);
        c.admit(obj(1), 0, 4096);
        // Each new chunk evicts exactly the predicted victim.
        let expect_victims = [8192u64, 12288, 4096, 0];
        for (i, &victim) in expect_victims.iter().enumerate() {
            let fresh = (4 + i as u64) * 4096;
            c.admit(obj(1), fresh, 4096);
            assert!(
                !resident(&c, 1, victim, 4096),
                "admitting chunk {} must evict offset {victim}",
                4 + i
            );
            assert_eq!(c.used_bytes(), 4 * 4096);
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = BlockStore::new(10 * 4096, 4096);
        for i in 0..100 {
            c.admit(obj(1), i * 4096, 4096);
            assert!(c.used_bytes() <= 10 * 4096);
        }
        assert_eq!(c.used_bytes(), 10 * 4096);
    }

    #[test]
    fn objects_are_disjoint() {
        let mut c = BlockStore::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        assert_eq!(c.lookup(obj(2), 0, 4096).miss_bytes, 4096);
        c.admit(obj(2), 0, 4096);
        assert!(resident(&c, 1, 0, 4096) && resident(&c, 2, 0, 4096));
        assert_eq!(c.used_bytes(), 2 * 4096);
        assert_eq!(c.lookup(obj(3), 0, 4096).miss_bytes, 4096);
    }

    #[test]
    fn clear_resets() {
        let mut c = BlockStore::new(1 << 20, 4096);
        c.admit(obj(1), 0, 65536);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert!(!resident(&c, 1, 0, 4096));
    }

    #[test]
    fn zero_length_range_is_fully_cached() {
        let mut c = BlockStore::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 500, 0), Lookup::default());
        assert!(resident(&c, 1, 500, 0));
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn zero_length_range_is_resident() {
        let mut s = BlockStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 4096, cid("/blk"), 0);
        assert_eq!(s.lookup(obj(1), 500, 0), Lookup::default());
        assert!(resident(&s, 1, 500, 0));
        assert_eq!(s.stats(), CacheStats::default());
    }

    #[test]
    fn replicas_share_physical_chunks() {
        let mut s = BlockStore::new(1 << 20, 4096);
        // Two images hold the same 8 KB block at different offsets.
        s.bind(obj(1), 0, 8192, cid("/blk_7"), 0);
        s.bind(obj(2), 12288, 8192, cid("/blk_7"), 0);
        s.admit(obj(1), 0, 8192);
        assert_eq!(s.used_bytes(), 8192);
        // The second replica is already resident — and counted as dedup.
        let l = s.lookup(obj(2), 12288, 8192);
        assert_eq!((l.dedup_bytes, l.miss_bytes), (8192, 0));
        s.admit(obj(2), 12288, 8192);
        // Still one physical copy; two logical views.
        assert_eq!(s.used_bytes(), 8192);
        assert_eq!(s.logical_bytes(), 16384);
        assert_eq!(s.stats().dedup_hits, 2);
    }

    #[test]
    fn differently_aligned_replicas_still_dedup() {
        let mut s = BlockStore::new(1 << 20, 4096);
        // Same content, image offsets with different chunk phase.
        s.bind(obj(1), 100, 8192, cid("/blk_9"), 0);
        s.bind(obj(2), 5000, 8192, cid("/blk_9"), 0);
        s.admit(obj(1), 100, 8192);
        let used = s.used_bytes();
        let l = s.lookup(obj(2), 5000, 8192);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.dedup_bytes, 8192);
        assert_eq!(s.used_bytes(), used, "no new physical chunks");
    }

    #[test]
    fn own_rereads_are_plain_hits_not_dedup() {
        let mut s = BlockStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 8192, cid("/blk_3"), 0);
        s.admit(obj(1), 0, 8192);
        let l = s.lookup(obj(1), 0, 8192);
        assert_eq!((l.hit_bytes, l.dedup_bytes, l.miss_bytes), (8192, 0, 0));
        assert_eq!(s.stats().dedup_hits, 0);
    }

    #[test]
    fn clear_keeps_bindings() {
        let mut s = BlockStore::new(1 << 20, 4096);
        s.bind(obj(1), 0, 4096, cid("/blk_5"), 0);
        s.bind(obj(2), 0, 4096, cid("/blk_5"), 0);
        s.admit(obj(1), 0, 4096);
        s.clear();
        assert_eq!(s.used_bytes(), 0);
        // Rebinding not needed: dedup still works after drop_caches.
        s.admit(obj(1), 0, 4096);
        assert_eq!(s.lookup(obj(2), 0, 4096).dedup_bytes, 4096);
    }

    #[test]
    fn sub_chunk_binding_boundaries_do_not_double_count() {
        let mut s = BlockStore::new(1 << 20, 4096);
        // A binding strictly inside chunk 0 of object 1.
        s.bind(obj(1), 1000, 2000, cid("/blk_4"), 0);
        let mut keys = Vec::new();
        s.keys_for(1, 0, 4096, &mut keys);
        // object chunk 0 (before + after the binding, deduped) + content chunk 0
        assert_eq!(keys.len(), 2);
        s.admit(obj(1), 0, 4096);
        assert_eq!(s.used_bytes(), 2 * 4096);
        assert!(resident(&s, 1, 0, 4096));
    }
}
