//! Property-based tests of the block store and guest filesystem against
//! simple reference models.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vread_host::fs::{FsError, GuestFs, ObjectId};
use vread_host::store::{BlockStore, CacheStats, ContentId, Lookup};

/// The store surface the equivalence property drives, so one function
/// runs the real store against either reference model.
trait Store: Clone {
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup;
    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64);
    fn bind(&mut self, obj: ObjectId, image_offset: u64, len: u64, content: ContentId, coff: u64);
    fn clear(&mut self);
    fn used_bytes(&self) -> u64;
    fn logical_bytes(&self) -> u64;
    fn stats(&self) -> CacheStats;
}

impl Store for BlockStore {
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        BlockStore::lookup(self, obj, offset, len)
    }

    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) {
        BlockStore::admit(self, obj, offset, len);
    }

    fn bind(&mut self, obj: ObjectId, image_offset: u64, len: u64, content: ContentId, coff: u64) {
        BlockStore::bind(self, obj, image_offset, len, content, coff);
    }

    fn clear(&mut self) {
        BlockStore::clear(self);
    }

    fn used_bytes(&self) -> u64 {
        BlockStore::used_bytes(self)
    }

    fn logical_bytes(&self) -> u64 {
        BlockStore::logical_bytes(self)
    }

    fn stats(&self) -> CacheStats {
        BlockStore::stats(self)
    }
}

/// Reference models of the block store with recency kept the simple
/// way: every touch or insert stamps the chunk with a fresh, unique tick,
/// and a `BTreeMap<tick, chunk>` orders chunks oldest first. The real
/// store keeps recency in `vread_host::lru::Lru`; the equivalence
/// property below drives both with the same calls and requires every
/// observable result to match. `PageCache` is the store without
/// bindings, `CasStore` the store with them.
mod model {
    use std::collections::BTreeMap;

    use vread_host::fs::ObjectId;
    use vread_host::store::{CacheStats, ContentId, Lookup};

    use super::Store;

    /// Keys in tick order, each with a value.
    #[derive(Debug, Clone)]
    struct TickLru<K, V> {
        tick: u64,
        /// key -> (last-use tick, value)
        map: BTreeMap<K, (u64, V)>,
        /// last-use tick -> key (ticks are unique)
        order: BTreeMap<u64, K>,
    }

    impl<K: Ord + Copy, V: Copy> TickLru<K, V> {
        fn new() -> Self {
            TickLru {
                tick: 0,
                map: BTreeMap::new(),
                order: BTreeMap::new(),
            }
        }

        fn contains(&self, key: &K) -> bool {
            self.map.contains_key(key)
        }

        fn touch(&mut self, key: &K) -> Option<V> {
            let (old, value) = *self.map.get(key)?;
            self.order.remove(&old);
            self.insert(*key, value);
            Some(value)
        }

        fn insert(&mut self, key: K, value: V) {
            self.tick += 1;
            self.map.insert(key, (self.tick, value));
            self.order.insert(self.tick, key);
        }

        fn pop_oldest(&mut self) -> Option<(K, V)> {
            let (&tick, &key) = self.order.iter().next()?;
            self.order.remove(&tick);
            let (_, value) = self.map.remove(&key).expect("order/map in sync");
            Some((key, value))
        }

        fn keys(&self) -> impl Iterator<Item = &K> {
            self.order.values()
        }

        fn clear(&mut self) {
            self.map.clear();
            self.order.clear();
        }
    }

    fn chunks_of(chunk: u64, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        offset / chunk..(offset + len - 1) / chunk + 1
    }

    /// The LRU page cache: a store that never gets a binding.
    #[derive(Debug, Clone)]
    pub struct PageCache {
        capacity: u64,
        chunk: u64,
        used: u64,
        lru: TickLru<(u64, u64), ()>,
        stats: CacheStats,
    }

    impl PageCache {
        pub fn new(capacity: u64, chunk: u64) -> Self {
            PageCache {
                capacity,
                chunk,
                used: 0,
                lru: TickLru::new(),
                stats: CacheStats::default(),
            }
        }
    }

    impl Store for PageCache {
        fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
            let mut out = Lookup::default();
            for ci in chunks_of(self.chunk, offset, len) {
                if self.lru.touch(&(obj.raw(), ci)).is_some() {
                    self.stats.hits += 1;
                    out.hit_bytes += self.chunk;
                } else {
                    self.stats.misses += 1;
                    out.miss_bytes += self.chunk;
                }
            }
            out
        }

        fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) {
            for ci in chunks_of(self.chunk, offset, len) {
                let key = (obj.raw(), ci);
                if self.lru.touch(&key).is_none() {
                    while self.used + self.chunk > self.capacity {
                        self.lru.pop_oldest();
                        self.used -= self.chunk;
                    }
                    self.lru.insert(key, ());
                    self.used += self.chunk;
                }
            }
        }

        fn bind(&mut self, _: ObjectId, _: u64, _: u64, _: ContentId, _: u64) {
            unreachable!("the LRU model takes no bindings: the property skips Bind ops");
        }

        fn clear(&mut self) {
            self.lru.clear();
            self.used = 0;
        }

        fn used_bytes(&self) -> u64 {
            self.used
        }

        fn logical_bytes(&self) -> u64 {
            self.used
        }

        fn stats(&self) -> CacheStats {
            self.stats
        }
    }

    /// Same shape (and therefore the same `Ord`) as the real store's
    /// chunk key: admission walks keys in this order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum ChunkKey {
        Content { cid: u64, idx: u64 },
        Object { obj: u64, idx: u64 },
    }

    /// The content-addressed store.
    #[derive(Debug, Clone)]
    pub struct CasStore {
        capacity: u64,
        chunk: u64,
        used: u64,
        /// `(object, image_offset)` -> `(len, content, content_offset)`.
        bindings: BTreeMap<(u64, u64), (u64, u64, u64)>,
        /// chunk -> the object that first admitted it.
        lru: TickLru<ChunkKey, u64>,
        stats: CacheStats,
    }

    impl CasStore {
        pub fn new(capacity: u64, chunk: u64) -> Self {
            CasStore {
                capacity,
                chunk,
                used: 0,
                bindings: BTreeMap::new(),
                lru: TickLru::new(),
                stats: CacheStats::default(),
            }
        }

        fn keys_for(&self, obj: u64, offset: u64, len: u64) -> Vec<ChunkKey> {
            let mut keys = Vec::new();
            let end = offset + len;
            let mut pos = offset;
            while pos < end {
                let covering = self
                    .bindings
                    .range((obj, 0)..=(obj, pos))
                    .next_back()
                    .filter(|(&(_, start), &(blen, _, _))| start + blen > pos);
                match covering {
                    Some((&(_, start), &(blen, cid, coff))) => {
                        let piece_end = end.min(start + blen);
                        let c0 = coff + (pos - start);
                        let c1 = coff + (piece_end - start);
                        for idx in c0 / self.chunk..=(c1 - 1) / self.chunk {
                            keys.push(ChunkKey::Content { cid, idx });
                        }
                        pos = piece_end;
                    }
                    None => {
                        let next_start = self
                            .bindings
                            .range((obj, pos)..(obj, u64::MAX))
                            .next()
                            .map_or(u64::MAX, |(&(_, start), _)| start);
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
    }

    impl Store for CasStore {
        fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
            let mut out = Lookup::default();
            for key in self.keys_for(obj.raw(), offset, len) {
                match self.lru.touch(&key) {
                    Some(owner) => {
                        self.stats.hits += 1;
                        if matches!(key, ChunkKey::Content { .. }) && owner != obj.raw() {
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

        fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) {
            for key in self.keys_for(obj.raw(), offset, len) {
                if self.lru.touch(&key).is_none() {
                    while self.used + self.chunk > self.capacity {
                        self.lru.pop_oldest();
                        self.used -= self.chunk;
                    }
                    self.lru.insert(key, obj.raw());
                    self.used += self.chunk;
                }
            }
        }

        fn bind(
            &mut self,
            obj: ObjectId,
            image_offset: u64,
            len: u64,
            content: ContentId,
            content_offset: u64,
        ) {
            if len > 0 {
                self.bindings.insert(
                    (obj.raw(), image_offset),
                    (len, content.raw(), content_offset),
                );
            }
        }

        fn clear(&mut self) {
            self.lru.clear();
            self.used = 0;
        }

        fn used_bytes(&self) -> u64 {
            self.used
        }

        fn logical_bytes(&self) -> u64 {
            let private = self
                .lru
                .keys()
                .filter(|k| matches!(k, ChunkKey::Object { .. }))
                .count() as u64;
            let mut logical = private * self.chunk;
            for &(len, cid, coff) in self.bindings.values() {
                for idx in coff / self.chunk..=(coff + len - 1) / self.chunk {
                    if self.lru.contains(&ChunkKey::Content { cid, idx }) {
                        logical += self.chunk;
                    }
                }
            }
            logical
        }

        fn stats(&self) -> CacheStats {
            self.stats
        }
    }
}

/// Chunk size of the store-equivalence property: small, so short
/// ranges span several chunks.
const ORACLE_CHUNK: u64 = 1024;

#[derive(Debug, Clone)]
enum StoreOp {
    Lookup {
        obj: u64,
        off: u64,
        len: u64,
    },
    Admit {
        obj: u64,
        off: u64,
        len: u64,
    },
    Bind {
        obj: u64,
        off: u64,
        len: u64,
        cid: u64,
        coff: u64,
    },
    Clear,
}

/// Objects and content ids the store ops draw from.
const ORACLE_OBJECTS: u64 = 4;
const ORACLE_CONTENTS: u64 = 4;

/// Chunk indices far from 0 and from each other (the last just under
/// 2^20), so the store's dense per-space tables must grow to reach
/// them, while ops near one anchor still overlap.
const SPARSE_ANCHORS: [u64; 3] = [1 << 10, 1 << 16, (1 << 20) - 8];

/// A byte offset: mostly within the first 12 chunks, otherwise within
/// 4 chunks of a sparse anchor.
fn store_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..12 * ORACLE_CHUNK,
        0u64..12 * ORACLE_CHUNK,
        (0usize..SPARSE_ANCHORS.len(), 0u64..4 * ORACLE_CHUNK)
            .prop_map(|(a, d)| SPARSE_ANCHORS[a] * ORACLE_CHUNK + d),
    ]
}

fn store_range() -> impl Strategy<Value = (u64, u64, u64)> {
    (0u64..ORACLE_OBJECTS, store_offset(), 0u64..4 * ORACLE_CHUNK)
}

/// Every chunk index the ops can reach: the dense prefix and the
/// neighbourhood of each anchor.
fn reachable_chunks() -> impl Iterator<Item = u64> {
    (0..16).chain(SPARSE_ANCHORS.iter().flat_map(|&a| a..a + 8))
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        store_range().prop_map(|(obj, off, len)| StoreOp::Lookup { obj, off, len }),
        store_range().prop_map(|(obj, off, len)| StoreOp::Lookup { obj, off, len }),
        store_range().prop_map(|(obj, off, len)| StoreOp::Admit { obj, off, len }),
        store_range().prop_map(|(obj, off, len)| StoreOp::Admit { obj, off, len }),
        (store_range(), (0u64..ORACLE_CONTENTS, store_offset())).prop_map(
            |((obj, off, len), (cid, coff))| StoreOp::Bind {
                obj,
                off,
                len,
                cid,
                coff
            }
        ),
        Just(StoreOp::Clear),
    ]
}

/// Applies `op` to both stores and checks that every result agrees.
fn apply_both(
    op: &StoreOp,
    real: &mut impl Store,
    reference: &mut impl Store,
) -> Result<(), String> {
    let o = ObjectId::from_raw;
    match *op {
        StoreOp::Lookup { obj, off, len } => {
            prop_assert_eq!(
                real.lookup(o(obj), off, len),
                reference.lookup(o(obj), off, len)
            );
        }
        StoreOp::Admit { obj, off, len } => {
            real.admit(o(obj), off, len);
            reference.admit(o(obj), off, len);
        }
        StoreOp::Bind {
            obj,
            off,
            len,
            cid,
            coff,
        } => {
            let c = ContentId::from_path(&format!("/content/{cid}"));
            real.bind(o(obj), off, len, c, coff);
            reference.bind(o(obj), off, len, c, coff);
        }
        StoreOp::Clear => {
            real.clear();
            reference.clear();
        }
    }
    prop_assert_eq!(real.stats(), reference.stats());
    prop_assert_eq!(real.used_bytes(), reference.used_bytes());
    prop_assert_eq!(real.logical_bytes(), reference.logical_bytes());
    // Residency of every chunk the ops can reach, read on clones: a
    // lookup never evicts, so the clones' residency stays put.
    let (mut real, mut reference) = (real.clone(), reference.clone());
    for obj in 0..ORACLE_OBJECTS {
        for ci in reachable_chunks() {
            let (off, len) = (ci * ORACLE_CHUNK, ORACLE_CHUNK);
            prop_assert_eq!(
                real.lookup(o(obj), off, len),
                reference.lookup(o(obj), off, len),
                "residency of object {obj} chunk {ci}"
            );
        }
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum CacheOp {
    Insert { obj: u64, off: u64, len: u64 },
    Query { obj: u64, off: u64, len: u64 },
    Clear,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..3, 0u64..1 << 16, 1u64..1 << 14).prop_map(|(obj, off, len)| CacheOp::Insert {
            obj,
            off,
            len
        }),
        (0u64..3, 0u64..1 << 16, 1u64..1 << 14).prop_map(|(obj, off, len)| CacheOp::Query {
            obj,
            off,
            len
        }),
        Just(CacheOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store never exceeds capacity and, while capacity is not
    /// exceeded, agrees with an exact reference set of chunks.
    #[test]
    fn cache_matches_reference(ops in proptest::collection::vec(cache_op(), 1..60)) {
        const CHUNK: u64 = 4096;
        const CAP: u64 = 64 * CHUNK;
        let mut cache = BlockStore::new(CAP, CHUNK);
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut overflowed = false;

        let chunks = |off: u64, len: u64| {
            let first = off / CHUNK;
            let last = (off + len - 1) / CHUNK;
            first..=last
        };

        for op in &ops {
            match *op {
                CacheOp::Insert { obj, off, len } => {
                    cache.admit(ObjectId::from_raw(obj), off, len);
                    for c in chunks(off, len) {
                        reference.insert((obj, c));
                    }
                    if reference.len() as u64 * CHUNK > CAP {
                        overflowed = true; // reference has no eviction
                    }
                }
                CacheOp::Query { obj, off, len } => {
                    // Read on a clone: a lookup never evicts, but it
                    // counts and touches.
                    let look = cache.clone().lookup(ObjectId::from_raw(obj), off, len);
                    let covered = look.miss_bytes == 0;
                    if !overflowed {
                        let expect = chunks(off, len).all(|c| reference.contains(&(obj, c)));
                        prop_assert_eq!(covered, expect, "query divergence before overflow");
                    } else if covered {
                        // anything cached must at least exist in the reference
                        for c in chunks(off, len) {
                            prop_assert!(reference.contains(&(obj, c)));
                        }
                    }
                }
                CacheOp::Clear => {
                    cache.clear();
                    reference.clear();
                    overflowed = false;
                }
            }
            prop_assert!(cache.used_bytes() <= CAP, "capacity exceeded");
        }
    }

    /// The store agrees with both tick-ordered reference models on
    /// every lookup, residency, statistic and byte count, with
    /// capacities of 2–8 chunks so most admissions evict: with the LRU
    /// model when no op binds (`Bind` ops skipped), with the CAS model
    /// on every op. Four objects and four content ids, with ranges and
    /// content offsets near sparse chunk indices up to 2^20, exercise
    /// the dense tables' growth and the content-id-to-space mapping.
    #[test]
    fn stores_match_tick_lru_model(
        cap_chunks in 2u64..9,
        ops in proptest::collection::vec(store_op(), 1..120),
    ) {
        let cap = cap_chunks * ORACLE_CHUNK;
        let mut real = BlockStore::new(cap, ORACLE_CHUNK);
        let mut lru = model::PageCache::new(cap, ORACLE_CHUNK);
        let unbound = ops.iter().filter(|op| !matches!(op, StoreOp::Bind { .. }));
        for (i, op) in unbound.enumerate() {
            if let Err(e) = apply_both(op, &mut real, &mut lru) {
                prop_assert!(false, "unbound store vs LRU model, op {i} {op:?}: {e}");
            }
        }
        let mut real = BlockStore::new(cap, ORACLE_CHUNK);
        let mut cas = model::CasStore::new(cap, ORACLE_CHUNK);
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = apply_both(op, &mut real, &mut cas) {
                prop_assert!(false, "store vs CAS model, op {i} {op:?}: {e}");
            }
        }
    }

    /// GuestFs resolve() agrees with a byte-level reference model for
    /// random create/append sequences, including interleaved files.
    #[test]
    fn fs_resolve_matches_reference(
        appends in proptest::collection::vec((0usize..4, 1u64..5000), 1..40),
        probe in (0usize..4, 0u64..10_000, 1u64..6_000),
    ) {
        let mut fs = GuestFs::new(ObjectId::from_raw(1));
        // reference: per file, the list of image offsets of each byte
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(fs.create(&format!("/f{i}")).unwrap());
        }
        let mut image_pos = 0u64;
        for &(fi, len) in &appends {
            fs.append(ids[fi], len);
            for b in 0..len {
                model[fi].push(image_pos + b);
            }
            image_pos += len;
        }
        let (fi, off, len) = probe;
        let size = fs.size(ids[fi]);
        prop_assert_eq!(size as usize, model[fi].len());
        match fs.resolve(ids[fi], off, len) {
            Ok(extents) => {
                prop_assert!(off + len <= size);
                // flatten extents into byte positions
                let mut got = Vec::new();
                for e in &extents {
                    for b in 0..e.len {
                        got.push(e.image_offset + b);
                    }
                }
                let want: Vec<u64> =
                    model[fi][off as usize..(off + len) as usize].to_vec();
                prop_assert_eq!(got, want, "extent bytes diverge from model");
            }
            Err(FsError::BeyondEof(..)) => {
                prop_assert!(off + len > size, "spurious EOF error");
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Snapshots are immune to later namespace changes until refreshed.
    #[test]
    fn snapshot_isolation(paths in proptest::collection::hash_set("[a-z]{1,6}", 1..8)) {
        let mut fs = GuestFs::new(ObjectId::from_raw(2));
        let paths: Vec<String> = paths.into_iter().collect();
        let (pre, post) = paths.split_at(paths.len() / 2);
        for p in pre {
            fs.create(&format!("/{p}")).unwrap();
        }
        let snap = fs.snapshot();
        for p in post {
            fs.create(&format!("/{p}")).unwrap();
        }
        for p in pre {
            let hit = snap.lookup(&format!("/{p}")).is_some();
            prop_assert!(hit);
        }
        for p in post {
            let miss = snap.lookup(&format!("/{p}")).is_none();
            prop_assert!(miss);
        }
        let snap2 = fs.snapshot();
        for p in paths.iter() {
            let hit2 = snap2.lookup(&format!("/{p}")).is_some();
            prop_assert!(hit2);
        }
    }
}
