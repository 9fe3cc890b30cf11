//! Byte-capacity LRU page caches.
//!
//! Both guest kernels and the host kernel cache file data. The cache
//! tracks fixed-size chunks of *objects* (an object is a disk image; the
//! offset space of a VM's files lives inside its image), evicting least
//! recently used chunks when capacity is exceeded. Recency order is an
//! [`Lru`] list whose space is the object id, so every chunk touch,
//! insert and eviction is an O(1) probe of the image's page directory
//! with no hashing. A resident chunk costs the table 8 bytes, and only
//! the 512-chunk pages that hold resident chunks take memory.
//!
//! Whether a read hits DRAM or the SSD is the entire difference between
//! the paper's *read* and *re-read* experiments, and host-cache hits are
//! why vRead's mounted-image design (§6 "Direct Read Bypassing the File
//! System in the Host") out-performs a raw-device bypass.
//!
//! [`PageCache`] is the [`BlockStore`] used by every guest and, in the
//! default `lru` host-cache mode, by hosts; the content-addressed
//! alternative is [`crate::cas::CasStore`].

use crate::fs::ObjectId;
use crate::lru::{ChunkKey, Lru};
use crate::store::{Admission, BlockStore, CacheStats, Lookup};

/// The [`Lru`] space of an object's chunks: the object id itself.
/// [`crate::Cluster`] mints object ids densely from 1, so the table of
/// spaces stays as small as the number of images.
fn space(obj: ObjectId) -> u32 {
    u32::try_from(obj.raw()).expect("object id fits u32")
}

/// An LRU page cache with byte capacity.
///
/// ```rust
/// use vread_host::cache::PageCache;
/// use vread_host::fs::ObjectId;
/// use vread_host::store::BlockStore;
///
/// let mut cache = PageCache::new(1 << 20, 4096);
/// let img = ObjectId::from_raw(1);
/// assert_eq!(cache.lookup(img, 0, 8192).miss_bytes, 8192); // cold
/// cache.admit(img, 0, 8192);
/// assert!(cache.probe(img, 0, 8192)); // re-read hits DRAM
/// ```
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: u64,
    chunk: u64,
    /// Resident chunks, least recently used first.
    lru: Lru<()>,
    stats: CacheStats,
}

impl PageCache {
    /// Creates a cache of `capacity` bytes tracking `chunk`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or larger than `capacity` (a cache that
    /// cannot hold one chunk is a configuration error).
    pub fn new(capacity: u64, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(capacity >= chunk, "capacity smaller than one chunk");
        PageCache {
            capacity,
            chunk,
            lru: Lru::new(),
            stats: CacheStats::default(),
        }
    }

    fn chunks_of(&self, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / self.chunk;
        let last = (offset + len - 1) / self.chunk;
        first..last + 1
    }

    fn insert_chunk(&mut self, key: ChunkKey) {
        while self.used_bytes() + self.chunk > self.capacity {
            self.lru.pop_oldest().expect("cache over-full but empty");
        }
        self.lru.insert(key, ());
    }
}

impl BlockStore for PageCache {
    /// Classifies residency (whole missing chunks counted in full, which
    /// models read-ahead at chunk granularity). Updates statistics and
    /// the LRU order of present chunks. An LRU cache never dedups, so
    /// `dedup_bytes` is always 0.
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        let sp = space(obj);
        for ci in self.chunks_of(offset, len) {
            if self.lru.touch((sp, ci)).is_some() {
                self.stats.hits += 1;
                out.hit_bytes += self.chunk;
            } else {
                self.stats.misses += 1;
                out.miss_bytes += self.chunk;
            }
        }
        out
    }

    fn probe(&self, obj: ObjectId, offset: u64, len: u64) -> bool {
        let sp = space(obj);
        self.chunks_of(offset, len)
            .all(|ci| self.lru.contains((sp, ci)))
    }

    /// Inserts (or refreshes) the chunks covering the range, evicting LRU
    /// chunks as needed.
    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) -> Admission {
        let mut any_miss = false;
        let sp = space(obj);
        for ci in self.chunks_of(offset, len) {
            let key = (sp, ci);
            if self.lru.touch(key).is_none() {
                any_miss = true;
                self.insert_chunk(key);
            }
        }
        if any_miss {
            Admission::Miss
        } else {
            Admission::Hit
        }
    }

    fn evict_to_fit(&mut self, bytes: u64) {
        let budget = self.capacity.saturating_sub(bytes);
        while self.used_bytes() > budget && self.lru.pop_oldest().is_some() {}
    }

    /// Drops every cached chunk of `obj` (e.g. `fadvise DONTNEED`),
    /// walking the recency list so the drop order is deterministic.
    fn evict_object(&mut self, obj: ObjectId) {
        let sp = space(obj);
        let victims: Vec<ChunkKey> = self
            .lru
            .iter()
            .map(|(k, ())| k)
            .filter(|k| k.0 == sp)
            .collect();
        for k in victims {
            self.lru.remove(k);
        }
    }

    /// Empties the cache (the paper's `drop_caches` between runs).
    fn clear(&mut self) {
        self.lru.clear();
    }

    fn used_bytes(&self) -> u64 {
        self.lru.len() as u64 * self.chunk
    }

    fn logical_bytes(&self) -> u64 {
        self.used_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 8192);
        c.admit(obj(1), 0, 8192);
        let l = c.lookup(obj(1), 0, 8192);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.hit_bytes, 8192);
        assert_eq!(l.dedup_bytes, 0, "LRU never dedups");
        assert!(c.probe(obj(1), 0, 8192));
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
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        // second chunk missing
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 4096);
        assert!(!c.probe(obj(1), 0, 8192));
    }

    #[test]
    fn unaligned_ranges_cover_their_chunks() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 100, 1); // touches chunk 0
        assert!(c.probe(obj(1), 0, 10));
        assert!(!c.probe(obj(1), 4096, 1));
        // range straddling a boundary needs both chunks
        c.admit(obj(1), 4000, 200);
        assert!(c.probe(obj(1), 4000, 200));
        assert_eq!(c.used_bytes(), 2 * 4096);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PageCache::new(3 * 4096, 4096);
        c.admit(obj(1), 0, 4096); // chunk 0
        c.admit(obj(1), 4096, 4096); // chunk 1
        c.admit(obj(1), 8192, 4096); // chunk 2
                                     // touch chunk 0 so chunk 1 is LRU
        assert_eq!(c.lookup(obj(1), 0, 4096).miss_bytes, 0);
        c.admit(obj(1), 12288, 4096); // chunk 3 evicts chunk 1
        assert!(c.probe(obj(1), 0, 4096));
        assert!(!c.probe(obj(1), 4096, 4096));
        assert!(c.probe(obj(1), 8192, 4096));
        assert!(c.probe(obj(1), 12288, 4096));
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
        let mut c = PageCache::new(4 * 4096, 4096);
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
                !c.probe(obj(1), victim, 4096),
                "admitting chunk {} must evict offset {victim}",
                4 + i
            );
            assert_eq!(c.used_bytes(), 4 * 4096);
        }
    }

    #[test]
    fn evict_to_fit_frees_exactly_enough() {
        let mut c = PageCache::new(4 * 4096, 4096);
        c.admit(obj(1), 0, 4 * 4096);
        c.evict_to_fit(2 * 4096);
        assert_eq!(c.used_bytes(), 2 * 4096);
        // Oldest two chunks went first.
        assert!(!c.probe(obj(1), 0, 4096));
        assert!(!c.probe(obj(1), 4096, 4096));
        assert!(c.probe(obj(1), 8192, 2 * 4096));
        // Asking for more than capacity empties the cache and stops.
        c.evict_to_fit(1 << 30);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = PageCache::new(10 * 4096, 4096);
        for i in 0..100 {
            c.admit(obj(1), i * 4096, 4096);
            assert!(c.used_bytes() <= c.capacity_bytes());
        }
        assert_eq!(c.used_bytes(), 10 * 4096);
    }

    #[test]
    fn objects_are_disjoint() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        assert_eq!(c.lookup(obj(2), 0, 4096).miss_bytes, 4096);
        c.admit(obj(2), 0, 4096);
        c.evict_object(obj(1));
        assert!(!c.probe(obj(1), 0, 4096));
        assert!(c.probe(obj(2), 0, 4096));
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn clear_resets() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 65536);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert!(!c.probe(obj(1), 0, 4096));
    }

    #[test]
    fn zero_length_range_is_fully_cached() {
        let mut c = PageCache::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 500, 0).miss_bytes, 0);
        assert!(c.probe(obj(1), 500, 0));
    }
}
