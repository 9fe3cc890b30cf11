//! A paged, slot-linked LRU list: the recency order shared by both block
//! stores.
//!
//! A key is a chunk `(space, index)`: a *space* is a dense `u32` id the
//! store assigns (an object id, or a content sequence's slot), and the
//! index is the chunk's position inside it. A *page*, its own small
//! allocation, holds 512 page-aligned chunks of one space: their list
//! links `[prev, next]` (4 KB), their values (nothing for `V = ()`, 4 KB
//! for `u64`), a `(space, first chunk)` header and a count of resident
//! chunks. Each space has a directory, a `Vec<u32>` of page ids indexed
//! by `chunk >> 9`; chunk `i` lives at slot `page << 9 | i % 512`.
//!
//! The links are `u32` slot numbers (oldest entry at the head); a
//! sentinel `prev` marks a chunk that is not resident. So a resident
//! chunk costs 8 bytes plus its value, every operation is an O(1) probe
//! with no hashing, and [`Lru::pop_oldest`] and [`Lru::iter`] read a
//! slot's key from its page header.
//!
//! Memory follows the resident set, not the span. A page is mapped when
//! a chunk of its range is first inserted, and released when its last
//! resident chunk leaves (by remove, eviction or [`Lru::clear`]): its
//! directory entry is cleared and it goes on a free list that any space
//! reuses, last freed first. So the table costs about 4 KB (plus values)
//! per page in use at the peak, plus 4 bytes of directory per 512
//! chunks of span (directories never shrink).
//!
//! Limits: a chunk index must be below 2^32 − 2 and the table holds at
//! most 2^32 − 2 slots; an insert past either panics, while a probe
//! (touch, contains, remove) at any index just misses.
//!
//! Determinism: the list order, and the page each range gets, depend
//! only on the calls made. Pages are only ever probed by key; the one
//! iteration, [`Lru::iter`], walks the list oldest first.

/// Link value meaning "no slot": the list's two ends.
const NIL: u32 = u32::MAX;
/// `prev` link of a slot whose chunk is not resident.
const ABSENT: u32 = u32::MAX - 1;
/// Bound on slot numbers and chunk indices, below both sentinels.
const MAX_SLOTS: u32 = ABSENT;
/// Directory entry of a range with no page.
const NO_PAGE: u32 = u32::MAX;

/// A page holds `1 << PAGE_BITS` chunks.
const PAGE_BITS: u32 = 9;
const PAGE_SLOTS: usize = 1 << PAGE_BITS;
const PAGE_MASK: u32 = (1 << PAGE_BITS) - 1;
/// Pages the table can hold, all their slots below [`MAX_SLOTS`].
const MAX_PAGES: usize = (MAX_SLOTS >> PAGE_BITS) as usize;

const PREV: usize = 0;
const NEXT: usize = 1;

/// Key of one chunk: `(space, chunk index)` (see the module docs).
pub type ChunkKey = (u32, u64);

/// 512 page-aligned chunks of one space (see the module docs).
#[derive(Debug, Clone)]
struct Page<V> {
    /// Per slot: `[prev, next]` ([`ABSENT`] `prev` where not resident).
    links: Box<[[u32; 2]; PAGE_SLOTS]>,
    /// Per slot: the value (meaningful only where resident).
    values: Box<[V; PAGE_SLOTS]>,
    space: u32,
    /// Chunk index of the first slot.
    first: u32,
    /// Resident chunks; the page is released when this drops to 0.
    resident: u32,
}

fn page_of(s: u32) -> usize {
    (s >> PAGE_BITS) as usize
}

fn offset(s: u32) -> usize {
    (s & PAGE_MASK) as usize
}

/// Chunk keys in recency order, each with a value (see the module docs).
///
/// ```rust
/// use vread_host::lru::Lru;
///
/// let mut lru = Lru::new();
/// lru.insert((0, 7), 1);
/// lru.insert((2, 0), 2);
/// assert_eq!(lru.touch((0, 7)), Some(1)); // (0, 7) is now the newest
/// assert_eq!(lru.pop_oldest(), Some(((2, 0), 2)));
/// ```
#[derive(Debug, Clone)]
pub struct Lru<V> {
    /// Page id -> page, mapped or free.
    pages: Vec<Page<V>>,
    /// Space -> its directory: the page of each 512-chunk range.
    dirs: Vec<Vec<u32>>,
    /// Released pages; the last one is reused first.
    free: Vec<u32>,
    len: usize,
    /// Oldest entry.
    head: u32,
    /// Newest entry.
    tail: u32,
}

impl<V: Copy + Default> Default for Lru<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> Lru<V> {
    /// An empty list.
    pub fn new() -> Self {
        Lru {
            pages: Vec::new(),
            dirs: Vec::new(),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot of `key`, whether or not it is resident (`None` when
    /// its range has no page or its index is past the limit).
    #[inline]
    fn slot(&self, (space, idx): ChunkKey) -> Option<u32> {
        let dir = self.dirs.get(space as usize)?;
        let idx = u32::try_from(idx).ok().filter(|&i| i < MAX_SLOTS)?;
        let page = *dir.get((idx >> PAGE_BITS) as usize)?;
        (page != NO_PAGE).then_some(page << PAGE_BITS | (idx & PAGE_MASK))
    }

    /// The slot holding `key`, if resident.
    #[inline]
    fn resident(&self, key: ChunkKey) -> Option<u32> {
        self.slot(key).filter(|&s| self.links(s)[PREV] != ABSENT)
    }

    fn links(&self, s: u32) -> [u32; 2] {
        self.pages[page_of(s)].links[offset(s)]
    }

    fn links_mut(&mut self, s: u32) -> &mut [u32; 2] {
        &mut self.pages[page_of(s)].links[offset(s)]
    }

    fn value(&self, s: u32) -> V {
        self.pages[page_of(s)].values[offset(s)]
    }

    /// The key of slot `s`, which lies in a mapped page.
    fn key_of(&self, s: u32) -> ChunkKey {
        let page = &self.pages[page_of(s)];
        (page.space, u64::from(page.first | (s & PAGE_MASK)))
    }

    /// Whether `key` is present (no recency change).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.resident(key).is_some()
    }

    /// Moves `key` to the newest position and returns its value, or
    /// `None` when absent.
    pub fn touch(&mut self, key: ChunkKey) -> Option<V> {
        let s = self.resident(key)?;
        if s != self.tail {
            self.unlink(s);
            self.link_newest(s);
        }
        Some(self.value(s))
    }

    /// Inserts `key` as the newest entry.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present, if its chunk index is 2^32 − 2
    /// or more, or if the table would exceed 2^32 − 2 slots.
    pub fn insert(&mut self, key: ChunkKey, value: V) {
        let s = self.slot(key).unwrap_or_else(|| self.map_page(key));
        let page = &mut self.pages[page_of(s)];
        assert!(
            page.links[offset(s)][PREV] == ABSENT,
            "LRU insert of a present key"
        );
        page.values[offset(s)] = value;
        page.resident += 1;
        self.len += 1;
        self.link_newest(s);
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: ChunkKey) -> Option<V> {
        let s = self.resident(key)?;
        let value = self.value(s);
        self.detach(s);
        Some(value)
    }

    /// Removes and returns the oldest entry.
    pub fn pop_oldest(&mut self) -> Option<(ChunkKey, V)> {
        if self.head == NIL {
            return None;
        }
        let s = self.head;
        let entry = (self.key_of(s), self.value(s));
        self.detach(s);
        Some(entry)
    }

    /// Removes every entry and releases every page to the free list
    /// (lowest page id on top), so a refill after `drop_caches` reuses
    /// them instead of allocating.
    pub fn clear(&mut self) {
        for p in (0..self.pages.len()).rev() {
            if self.pages[p].resident > 0 {
                self.pages[p].links.fill([ABSENT, NIL]);
                self.release(p);
            }
        }
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
    }

    /// Entries from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkKey, V)> + '_ {
        let mut s = self.head;
        std::iter::from_fn(move || {
            if s == NIL {
                return None;
            }
            let entry = (self.key_of(s), self.value(s));
            s = self.links(s)[NEXT];
            Some(entry)
        })
    }

    /// Maps a page, the free list's top or a new one, for the range of
    /// `key` (which has none) and returns the key's slot.
    fn map_page(&mut self, (space, idx): ChunkKey) -> u32 {
        let idx = u32::try_from(idx)
            .ok()
            .filter(|&i| i < MAX_SLOTS)
            .unwrap_or_else(|| panic!("LRU chunk index {idx} is not below 2^32 - 2"));
        let p = self.free.pop().unwrap_or_else(|| {
            assert!(
                self.pages.len() < MAX_PAGES,
                "LRU table exceeds 2^32 - 2 slots"
            );
            self.pages.push(Page {
                links: Box::new([[ABSENT, NIL]; PAGE_SLOTS]),
                values: Box::new([V::default(); PAGE_SLOTS]),
                space: 0,
                first: 0,
                resident: 0,
            });
            u32::try_from(self.pages.len() - 1).expect("page ids fit u32")
        });
        let page = &mut self.pages[p as usize];
        page.space = space;
        page.first = idx & !PAGE_MASK;
        if space as usize >= self.dirs.len() {
            self.dirs.resize_with(space as usize + 1, Vec::new);
        }
        let dir = &mut self.dirs[space as usize];
        let d = (idx >> PAGE_BITS) as usize;
        if d >= dir.len() {
            dir.resize(d + 1, NO_PAGE);
        }
        dir[d] = p;
        p << PAGE_BITS | (idx & PAGE_MASK)
    }

    /// Unmaps page `p`, whose slots are all non-resident, and frees it.
    fn release(&mut self, p: usize) {
        let page = &mut self.pages[p];
        page.resident = 0;
        self.dirs[page.space as usize][(page.first >> PAGE_BITS) as usize] = NO_PAGE;
        self.free.push(u32::try_from(p).expect("page ids fit u32"));
    }

    /// Unlinks slot `s` and marks it non-resident, releasing its page
    /// when it was the page's last resident chunk.
    fn detach(&mut self, s: u32) {
        self.unlink(s);
        let page = &mut self.pages[page_of(s)];
        page.links[offset(s)] = [ABSENT, NIL];
        page.resident -= 1;
        if page.resident == 0 {
            self.release(page_of(s));
        }
        self.len -= 1;
    }

    fn unlink(&mut self, s: u32) {
        let [prev, next] = self.links(s);
        if prev == NIL {
            self.head = next;
        } else {
            self.links_mut(prev)[NEXT] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links_mut(next)[PREV] = prev;
        }
    }

    fn link_newest(&mut self, s: u32) {
        let tail = self.tail;
        *self.links_mut(s) = [tail, NIL];
        if tail == NIL {
            self.head = s;
        } else {
            self.links_mut(tail)[NEXT] = s;
        }
        self.tail = s;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn keys(lru: &Lru<()>) -> Vec<u64> {
        lru.iter().map(|((_, k), ())| k).collect()
    }

    fn k(i: u64) -> ChunkKey {
        (0, i)
    }

    #[test]
    fn touch_moves_to_newest() {
        let mut lru = Lru::new();
        for i in 0..4 {
            lru.insert(k(i), ());
        }
        assert_eq!(lru.touch(k(3)), Some(())); // already newest
        assert_eq!(lru.touch(k(1)), Some(()));
        assert_eq!(lru.touch(k(0)), Some(()));
        assert_eq!(lru.touch(k(9)), None);
        assert_eq!(keys(&lru), [2, 3, 1, 0]);
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn remove_and_pop_relink_and_reuse_nodes() {
        let mut lru = Lru::new();
        for i in 0..5 {
            lru.insert(k(i), ());
        }
        assert_eq!(lru.remove(k(2)), Some(()));
        assert_eq!(lru.remove(k(2)), None);
        assert_eq!(lru.remove(k(4)), Some(())); // the tail
        assert_eq!(lru.pop_oldest(), Some((k(0), ())));
        assert_eq!(keys(&lru), [1, 3]);
        assert_eq!(
            lru.links(2),
            [ABSENT, NIL],
            "a removed chunk's slot is vacant"
        );
        // A chunk re-inserted in a mapped page reuses its own slot; a
        // page is mapped only to reach a new 512-chunk range.
        lru.insert(k(4), ());
        lru.insert(k(0), ());
        lru.insert(k(2), ());
        lru.insert(k(7), ());
        assert_eq!(lru.pages.len(), 1);
        lru.insert(k(PAGE_SLOTS as u64), ());
        assert_eq!(lru.pages.len(), 2);
        assert_eq!(keys(&lru), [1, 3, 4, 0, 2, 7, 512]);
        assert!(lru.contains(k(2)) && !lru.contains(k(5)));
    }

    #[test]
    fn values_survive_touch_and_pop() {
        let mut lru: Lru<u64> = Lru::new();
        lru.insert(k(1), 10);
        lru.insert(k(2), 20);
        assert_eq!(lru.touch(k(1)), Some(10));
        assert_eq!(lru.pop_oldest(), Some((k(2), 20)));
        assert_eq!(lru.pop_oldest(), Some((k(1), 10)));
        assert_eq!(lru.pop_oldest(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn spaces_are_disjoint_and_tables_grow_on_insert() {
        let mut lru: Lru<u8> = Lru::new();
        assert_eq!(lru.touch((5, 1 << 20)), None, "probing does not grow");
        assert!(lru.dirs.is_empty() && lru.pages.is_empty());
        lru.insert((3, 1 << 20), 1);
        lru.insert((0, 0), 2);
        lru.insert((3, 0), 3);
        assert_eq!(lru.dirs.len(), 4);
        // Space 3 mapped page 0 for chunk 2^20 and page 2 for chunk 0;
        // space 0 mapped page 1.
        assert_eq!(lru.dirs[3].len(), (1 << 11) + 1);
        assert_eq!((lru.dirs[3][0], lru.dirs[3][1 << 11]), (2, 0));
        assert_eq!(lru.dirs[0], [1]);
        let headers: Vec<_> = lru
            .pages
            .iter()
            .map(|p| (p.space, p.first, p.resident))
            .collect();
        assert_eq!(headers, [(3, 1 << 20, 1), (0, 0, 1), (3, 0, 1)]);
        assert!(!lru.contains((0, 1 << 20)) && !lru.contains((1, 0)));
        // A chunk in a mapped range takes its page's slot.
        lru.insert((3, (1 << 20) + 1), 4);
        assert_eq!((lru.pages.len(), lru.pages[0].resident), (3, 2));
        let order: Vec<_> = lru.iter().collect();
        assert_eq!(
            order,
            [
                ((3, 1 << 20), 1),
                ((0, 0), 2),
                ((3, 0), 3),
                ((3, (1 << 20) + 1), 4)
            ]
        );
        assert_eq!(lru.touch((3, 1 << 20)), Some(1));
        assert_eq!(lru.remove((0, 0)), Some(2));
        assert_eq!(lru.pop_oldest(), Some(((3, 0), 3)));
        assert_eq!(lru.len(), 2);
        // Both emptied pages went on the free list.
        assert_eq!(lru.free, [1, 2]);
        assert_eq!((lru.dirs[0][0], lru.dirs[3][0]), (NO_PAGE, NO_PAGE));
        assert_eq!(lru.touch((u32::MAX - 1, u64::MAX)), None);
    }

    #[test]
    fn a_sparse_chunk_maps_one_page_and_frees_it_for_any_space() {
        let mut lru: Lru<u64> = Lru::new();
        lru.insert((0, 1 << 20), 7);
        assert_eq!(lru.pages.len(), 1, "one page, not the span");
        assert_eq!(lru.dirs[0].len(), (1 << 11) + 1);
        assert_eq!(lru.remove((0, 1 << 20)), Some(7));
        assert_eq!(lru.free, [0], "the emptied page is freed");
        assert_eq!(lru.dirs[0][1 << 11], NO_PAGE);
        // Another space reuses the freed page and allocates none.
        lru.insert((1, 3), 9);
        assert_eq!(lru.pages.len(), 1);
        assert!(lru.free.is_empty());
        assert_eq!((lru.pages[0].space, lru.pages[0].first), (1, 0));
        assert!(!lru.contains((0, 1 << 20)) && !lru.contains((0, 3)));
        assert_eq!(lru.iter().collect::<Vec<_>>(), [((1, 3), 9)]);
    }

    #[test]
    fn probes_past_u32_indices_miss_and_inserts_there_panic() {
        let mut lru: Lru<()> = Lru::new();
        lru.insert((0, 0), ());
        let far = (0, 1 << 32);
        assert!(!lru.contains(far));
        assert_eq!(lru.touch(far), None);
        assert_eq!(lru.remove(far), None);
        let msg = std::panic::catch_unwind(move || lru.insert(far, ()))
            .expect_err("insert at 2^32 panics");
        let msg = msg.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("2^32 - 2"), "{msg}");
    }

    #[test]
    fn inserts_past_the_index_limit_panic_in_a_mapped_page() {
        // 2^32 - 3 is the last valid index; its page also covers the two
        // sentinel indices above it.
        let last = u64::from(MAX_SLOTS) - 1;
        for over in [last + 1, last + 2] {
            let mut lru: Lru<()> = Lru::new();
            lru.insert((0, last), ());
            assert!(!lru.contains((0, over)));
            assert_eq!(lru.touch((0, over)), None);
            assert_eq!(lru.remove((0, over)), None);
            let msg = std::panic::catch_unwind(move || lru.insert((0, over), ()))
                .expect_err("insert past 2^32 - 3 panics");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("2^32 - 2"), "{msg}");
        }
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(k(1), ());
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.contains(k(1)));
        assert_eq!(keys(&lru), Vec::<u64>::new());
        assert_eq!(
            (lru.pages.len(), &lru.free[..]),
            (1, &[0][..]),
            "clear frees the page"
        );
        lru.insert(k(1), ());
        assert_eq!(keys(&lru), [1]);
    }

    #[test]
    fn clear_releases_every_page_and_a_refill_reuses_them() {
        let mut lru: Lru<u64> = Lru::new();
        let chunks = [(2, 0), (0, 5), (2, 1 << 12), (0, 6), (2, 1)];
        for (v, &key) in (0..).zip(&chunks) {
            lru.insert(key, v);
        }
        assert_eq!(lru.pages.len(), 3);
        lru.clear();
        assert_eq!(lru.free, [2, 1, 0], "every page freed, lowest id on top");
        assert!(lru.dirs.iter().flatten().all(|&p| p == NO_PAGE));
        assert!(lru
            .pages
            .iter()
            .all(|p| p.links.iter().all(|l| l[PREV] == ABSENT)));
        for (v, &key) in (10..).zip(chunks.iter().rev()) {
            lru.insert(key, v);
        }
        assert_eq!(lru.pages.len(), 3, "the refill allocates no page");
        assert!(lru.free.is_empty());
        let order: Vec<_> = lru.iter().collect();
        assert_eq!(
            order,
            [
                ((2, 1), 10),
                ((0, 6), 11),
                ((2, 1 << 12), 12),
                ((0, 5), 13),
                ((2, 0), 14)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "present key")]
    fn double_insert_panics() {
        let mut lru = Lru::new();
        lru.insert(k(1), ());
        lru.insert(k(1), ());
    }

    /// Reference model: every touch or insert stamps the key with a
    /// fresh tick, and a `BTreeMap<tick, key>` orders keys oldest first.
    #[derive(Default)]
    struct TickModel {
        tick: u64,
        map: BTreeMap<ChunkKey, (u64, u32)>,
        order: BTreeMap<u64, ChunkKey>,
    }

    impl TickModel {
        fn stamp(&mut self, key: ChunkKey, value: u32) {
            self.tick += 1;
            self.map.insert(key, (self.tick, value));
            self.order.insert(self.tick, key);
        }

        fn touch(&mut self, key: ChunkKey) -> Option<u32> {
            let (tick, value) = *self.map.get(&key)?;
            self.order.remove(&tick);
            self.stamp(key, value);
            Some(value)
        }

        fn remove(&mut self, key: ChunkKey) -> Option<u32> {
            let (tick, value) = self.map.remove(&key)?;
            self.order.remove(&tick);
            Some(value)
        }

        fn pop_oldest(&mut self) -> Option<(ChunkKey, u32)> {
            let (_, key) = self.order.pop_first()?;
            let (_, value) = self.map.remove(&key).expect("order/map in sync");
            Some((key, value))
        }

        fn oldest_first(&self) -> Vec<(ChunkKey, u32)> {
            self.order.values().map(|k| (*k, self.map[k].1)).collect()
        }
    }

    /// Every mapped page is non-empty and in its directory entry, every
    /// free page is empty and in none, and the counts add up.
    fn check_pages(lru: &Lru<u32>) {
        let mapped = lru.dirs.iter().flatten().filter(|&&p| p != NO_PAGE).count();
        assert_eq!(mapped + lru.free.len(), lru.pages.len());
        for (p, page) in (0..).zip(&lru.pages) {
            let dir = lru.dirs[page.space as usize][(page.first >> PAGE_BITS) as usize];
            let live = page.links.iter().filter(|l| l[PREV] != ABSENT).count();
            assert_eq!(live, page.resident as usize);
            assert_eq!(dir == p, page.resident > 0, "page {p}");
        }
        let resident: u32 = lru.pages.iter().map(|p| p.resident).sum();
        assert_eq!(resident as usize, lru.len());
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert when absent, touch when present.
        Use(ChunkKey, u32),
        Remove(ChunkKey),
        PopOldest,
        Contains(ChunkKey),
        /// Probe at an index of 2^32 or more (must miss).
        FarProbe(u32, u64),
        Clear,
    }

    /// Four spaces, indices mostly below 64 (so the spaces share the
    /// free list as their pages empty and refill), one in four of them
    /// sparse up to 2^20.
    fn key() -> impl Strategy<Value = ChunkKey> {
        (0u32..4, 0u8..4, 0u64..(1 << 20) + 1)
            .prop_map(|(space, pick, idx)| (space, if pick > 0 { idx % 64 } else { idx }))
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..22, key(), 0u32..1000, 32u64..64).prop_map(|(pick, key, value, far)| match pick {
            0..=11 => Op::Use(key, value),
            12..=14 => Op::Remove(key),
            15..=17 => Op::PopOldest,
            18..=19 => Op::Contains(key),
            20 => Op::FarProbe(key.0, (1 << far) | key.1),
            _ => Op::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_tick_model(ops in proptest::collection::vec(op(), 1..160)) {
            let mut lru: Lru<u32> = Lru::new();
            let mut model = TickModel::default();
            for op in ops {
                match op {
                    Op::Use(key, value) => {
                        let got = lru.touch(key);
                        prop_assert_eq!(got, model.touch(key));
                        if got.is_none() {
                            lru.insert(key, value);
                            model.stamp(key, value);
                        }
                    }
                    Op::Remove(key) => prop_assert_eq!(lru.remove(key), model.remove(key)),
                    Op::PopOldest => prop_assert_eq!(lru.pop_oldest(), model.pop_oldest()),
                    Op::Contains(key) => {
                        prop_assert_eq!(lru.contains(key), model.map.contains_key(&key));
                    }
                    Op::FarProbe(space, idx) => {
                        prop_assert!(!lru.contains((space, idx)));
                        prop_assert_eq!(lru.touch((space, idx)), None);
                        prop_assert_eq!(lru.remove((space, idx)), None);
                    }
                    Op::Clear => {
                        lru.clear();
                        model = TickModel { tick: model.tick, ..TickModel::default() };
                    }
                }
                prop_assert_eq!(lru.len(), model.map.len());
                prop_assert_eq!(lru.iter().collect::<Vec<_>>(), model.oldest_first());
                check_pages(&lru);
            }
        }
    }
}
