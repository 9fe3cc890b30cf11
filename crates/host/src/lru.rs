//! A paged, slot-linked LRU list: the recency order of the block store.
//!
//! A key is a chunk `(space, index)`: a *space* is a dense `u32` id the
//! store assigns (an object's private chunks, or a content sequence),
//! and the index is the chunk's position inside it. A *page*, its own
//! small allocation, holds 512 page-aligned chunks of one space: their
//! list links `[prev, next]` (4 KB), a `(space, first chunk)` header, a
//! count of resident chunks and, only once a chunk is inserted with an
//! owner, a 4 KB array of `u64` owners. So a page of private chunks,
//! which the store inserts without one, never maps it. Each space has
//! a directory, a `Vec<u32>` of page ids indexed by `chunk >> 9`; chunk
//! `i` lives at slot `page << 9 | i % 512`.
//!
//! The links are `u32` slot numbers (oldest entry at the head); a
//! sentinel `prev` marks a chunk that is not resident. So a resident
//! chunk costs 8 bytes (16 with an owner), every operation is an O(1)
//! probe with no hashing, and [`Lru::pop_oldest`] and [`Lru::iter`]
//! read a slot's key from its page header.
//!
//! Memory follows the resident set, not the span. A page is mapped when
//! a chunk of its range is first inserted, and released when its last
//! resident chunk leaves (by eviction or [`Lru::clear`]): its directory
//! entry is cleared and it goes on a free list that any space reuses,
//! last freed first, owner array and all. So the table costs about 4 KB
//! (8 KB with owners) per page in use at the peak, plus 4 bytes of
//! directory per 512 chunks of span (directories never shrink).
//!
//! Limits: a chunk index must be below 2^32 − 2 and the table holds at
//! most 2^32 − 2 slots; an insert past either panics, while a probe
//! (touch, contains, owner) at any index just misses. The owner
//! `u64::MAX` is reserved.
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
/// Owner slot of a chunk inserted without one.
const NO_OWNER: u64 = u64::MAX;

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
struct Page {
    /// Per slot: `[prev, next]` ([`ABSENT`] `prev` where not resident).
    links: Box<[[u32; 2]; PAGE_SLOTS]>,
    /// Per slot: the owner ([`NO_OWNER`] for none; meaningful only where
    /// resident), mapped on the first insert with an owner.
    owners: Option<Box<[u64; PAGE_SLOTS]>>,
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

/// Chunk keys in recency order, some with an owner (see the module
/// docs).
///
/// ```rust
/// use vread_host::lru::Lru;
///
/// let mut lru = Lru::new();
/// lru.insert((0, 7), Some(1));
/// lru.insert((2, 0), None);
/// assert!(lru.touch((0, 7))); // (0, 7) is now the newest
/// assert_eq!(lru.owner((0, 7)), Some(1));
/// assert_eq!(lru.pop_oldest(), Some((2, 0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lru {
    /// Page id -> page, mapped or free.
    pages: Vec<Page>,
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

impl Lru {
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

    /// The key of slot `s`, which lies in a mapped page.
    fn key_of(&self, s: u32) -> ChunkKey {
        let page = &self.pages[page_of(s)];
        (page.space, u64::from(page.first | (s & PAGE_MASK)))
    }

    /// Whether `key` is present (no recency change).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.resident(key).is_some()
    }

    /// The owner `key` was inserted with, if it is resident and had one
    /// (no recency change).
    pub fn owner(&self, key: ChunkKey) -> Option<u64> {
        let s = self.resident(key)?;
        let owners = self.pages[page_of(s)].owners.as_ref()?;
        Some(owners[offset(s)]).filter(|&o| o != NO_OWNER)
    }

    /// Moves `key` to the newest position; false when absent.
    pub fn touch(&mut self, key: ChunkKey) -> bool {
        let Some(s) = self.resident(key) else {
            return false;
        };
        if s != self.tail {
            self.unlink(s);
            self.link_newest(s);
        }
        true
    }

    /// Inserts `key` as the newest entry, with `owner` if given.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present, if its chunk index is 2^32 − 2
    /// or more, or if the table would exceed 2^32 − 2 slots.
    pub fn insert(&mut self, key: ChunkKey, owner: Option<u64>) {
        let s = self.slot(key).unwrap_or_else(|| self.map_page(key));
        let page = &mut self.pages[page_of(s)];
        assert!(
            page.links[offset(s)][PREV] == ABSENT,
            "LRU insert of a present key"
        );
        match (owner, &mut page.owners) {
            (None, None) => {}
            (None, Some(owners)) => owners[offset(s)] = NO_OWNER,
            (Some(o), owners) => {
                owners.get_or_insert_with(|| Box::new([NO_OWNER; PAGE_SLOTS]))[offset(s)] = o;
            }
        }
        page.resident += 1;
        self.len += 1;
        self.link_newest(s);
    }

    /// Removes and returns the oldest entry.
    pub fn pop_oldest(&mut self) -> Option<ChunkKey> {
        if self.head == NIL {
            return None;
        }
        let s = self.head;
        let key = self.key_of(s);
        self.detach(s);
        Some(key)
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

    /// Keys from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = ChunkKey> + '_ {
        let mut s = self.head;
        std::iter::from_fn(move || {
            if s == NIL {
                return None;
            }
            let key = self.key_of(s);
            s = self.links(s)[NEXT];
            Some(key)
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
                owners: None,
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

    fn keys(lru: &Lru) -> Vec<u64> {
        lru.iter().map(|(_, k)| k).collect()
    }

    fn k(i: u64) -> ChunkKey {
        (0, i)
    }

    #[test]
    fn touch_moves_to_newest() {
        let mut lru = Lru::new();
        for i in 0..4 {
            lru.insert(k(i), None);
        }
        assert!(lru.touch(k(3))); // already newest
        assert!(lru.touch(k(1)));
        assert!(lru.touch(k(0)));
        assert!(!lru.touch(k(9)));
        assert_eq!(keys(&lru), [2, 3, 1, 0]);
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn remove_and_pop_relink_and_reuse_nodes() {
        let mut lru = Lru::new();
        for i in 0..5 {
            lru.insert(k(i), None);
        }
        // Touching unlinks from the middle and from the head.
        assert!(lru.touch(k(2)));
        assert!(lru.touch(k(0)));
        assert_eq!(lru.pop_oldest(), Some(k(1)));
        assert_eq!(lru.pop_oldest(), Some(k(3)));
        assert_eq!(keys(&lru), [4, 2, 0]);
        assert_eq!(
            lru.links(1),
            [ABSENT, NIL],
            "a popped chunk's slot is vacant"
        );
        // A chunk re-inserted in a mapped page reuses its own slot; a
        // page is mapped only to reach a new 512-chunk range.
        lru.insert(k(1), None);
        lru.insert(k(3), None);
        lru.insert(k(7), None);
        assert_eq!(lru.pages.len(), 1);
        lru.insert(k(PAGE_SLOTS as u64), None);
        assert_eq!(lru.pages.len(), 2);
        assert_eq!(keys(&lru), [4, 2, 0, 1, 3, 7, 512]);
        assert!(lru.contains(k(2)) && !lru.contains(k(5)));
        assert!(
            lru.pages.iter().all(|p| p.owners.is_none()),
            "chunks without an owner map no owner array"
        );
    }

    #[test]
    fn values_survive_touch_and_pop() {
        let mut lru = Lru::new();
        lru.insert(k(1), Some(10));
        lru.insert(k(2), None);
        lru.insert(k(3), Some(30));
        assert!(lru.touch(k(1)));
        assert_eq!(
            [lru.owner(k(1)), lru.owner(k(2)), lru.owner(k(3))],
            [Some(10), None, Some(30)]
        );
        assert_eq!(lru.pop_oldest(), Some(k(2)));
        assert_eq!(lru.pop_oldest(), Some(k(3)));
        assert_eq!(lru.owner(k(3)), None, "a popped chunk has no owner");
        assert_eq!(lru.owner(k(1)), Some(10));
        assert_eq!(lru.pop_oldest(), Some(k(1)));
        assert_eq!(lru.pop_oldest(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn spaces_are_disjoint_and_tables_grow_on_insert() {
        let mut lru = Lru::new();
        assert!(!lru.touch((5, 1 << 20)), "probing does not grow");
        assert!(lru.dirs.is_empty() && lru.pages.is_empty());
        lru.insert((3, 1 << 20), Some(1));
        lru.insert((0, 0), Some(2));
        lru.insert((3, 0), Some(3));
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
        lru.insert((3, (1 << 20) + 1), Some(4));
        assert_eq!((lru.pages.len(), lru.pages[0].resident), (3, 2));
        let order: Vec<_> = lru.iter().collect();
        assert_eq!(order, [(3, 1 << 20), (0, 0), (3, 0), (3, (1 << 20) + 1)]);
        let owners: Vec<_> = order.iter().map(|&key| lru.owner(key)).collect();
        assert_eq!(owners, [Some(1), Some(2), Some(3), Some(4)]);
        assert!(lru.touch((3, 1 << 20)));
        assert_eq!(lru.pop_oldest(), Some((0, 0)));
        assert_eq!(lru.pop_oldest(), Some((3, 0)));
        assert_eq!(lru.len(), 2);
        // Both emptied pages went on the free list.
        assert_eq!(lru.free, [1, 2]);
        assert_eq!((lru.dirs[0][0], lru.dirs[3][0]), (NO_PAGE, NO_PAGE));
        assert!(!lru.touch((u32::MAX - 1, u64::MAX)));
    }

    #[test]
    fn a_sparse_chunk_maps_one_page_and_frees_it_for_any_space() {
        let mut lru = Lru::new();
        lru.insert((0, 1 << 20), Some(7));
        assert_eq!(lru.pages.len(), 1, "one page, not the span");
        assert_eq!(lru.dirs[0].len(), (1 << 11) + 1);
        assert_eq!(lru.pop_oldest(), Some((0, 1 << 20)));
        assert_eq!(lru.free, [0], "the emptied page is freed");
        assert_eq!(lru.dirs[0][1 << 11], NO_PAGE);
        // Another space reuses the freed page, owner array included,
        // and allocates none; a chunk without an owner reads none.
        lru.insert((1, 3), None);
        assert_eq!(lru.pages.len(), 1);
        assert!(lru.free.is_empty());
        assert_eq!((lru.pages[0].space, lru.pages[0].first), (1, 0));
        assert!(lru.pages[0].owners.is_some());
        assert_eq!(lru.owner((1, 3)), None);
        assert!(!lru.contains((0, 1 << 20)) && !lru.contains((0, 3)));
        assert_eq!(lru.iter().collect::<Vec<_>>(), [(1, 3)]);
    }

    #[test]
    fn probes_past_u32_indices_miss_and_inserts_there_panic() {
        let mut lru = Lru::new();
        lru.insert((0, 0), None);
        let far = (0, 1 << 32);
        assert!(!lru.contains(far));
        assert!(!lru.touch(far));
        assert_eq!(lru.owner(far), None);
        let msg = std::panic::catch_unwind(move || lru.insert(far, None))
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
            let mut lru = Lru::new();
            lru.insert((0, last), Some(1));
            assert!(!lru.contains((0, over)));
            assert!(!lru.touch((0, over)));
            assert_eq!(lru.owner((0, over)), None);
            let msg = std::panic::catch_unwind(move || lru.insert((0, over), None))
                .expect_err("insert past 2^32 - 3 panics");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("2^32 - 2"), "{msg}");
        }
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(k(1), None);
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.contains(k(1)));
        assert_eq!(keys(&lru), Vec::<u64>::new());
        assert_eq!(
            (lru.pages.len(), &lru.free[..]),
            (1, &[0][..]),
            "clear frees the page"
        );
        lru.insert(k(1), None);
        assert_eq!(keys(&lru), [1]);
    }

    #[test]
    fn clear_releases_every_page_and_a_refill_reuses_them() {
        let mut lru = Lru::new();
        let chunks = [(2, 0), (0, 5), (2, 1 << 12), (0, 6), (2, 1)];
        for (v, &key) in (0..).zip(&chunks) {
            lru.insert(key, Some(v));
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
            lru.insert(key, Some(v));
        }
        assert_eq!(lru.pages.len(), 3, "the refill allocates no page");
        assert!(lru.free.is_empty());
        let order: Vec<_> = lru.iter().map(|key| (key, lru.owner(key))).collect();
        assert_eq!(
            order,
            [
                ((2, 1), Some(10)),
                ((0, 6), Some(11)),
                ((2, 1 << 12), Some(12)),
                ((0, 5), Some(13)),
                ((2, 0), Some(14))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "present key")]
    fn double_insert_panics() {
        let mut lru = Lru::new();
        lru.insert(k(1), None);
        lru.insert(k(1), None);
    }

    /// Reference model: every touch or insert stamps the key with a
    /// fresh tick, and a `BTreeMap<tick, key>` orders keys oldest first.
    #[derive(Default)]
    struct TickModel {
        tick: u64,
        map: BTreeMap<ChunkKey, (u64, Option<u64>)>,
        order: BTreeMap<u64, ChunkKey>,
    }

    impl TickModel {
        fn stamp(&mut self, key: ChunkKey, owner: Option<u64>) {
            self.tick += 1;
            self.map.insert(key, (self.tick, owner));
            self.order.insert(self.tick, key);
        }

        fn touch(&mut self, key: ChunkKey) -> bool {
            let Some(&(tick, owner)) = self.map.get(&key) else {
                return false;
            };
            self.order.remove(&tick);
            self.stamp(key, owner);
            true
        }

        fn owner(&self, key: ChunkKey) -> Option<u64> {
            self.map.get(&key).and_then(|&(_, owner)| owner)
        }

        fn pop_oldest(&mut self) -> Option<ChunkKey> {
            let (_, key) = self.order.pop_first()?;
            self.map.remove(&key).expect("order/map in sync");
            Some(key)
        }

        fn oldest_first(&self) -> Vec<ChunkKey> {
            self.order.values().copied().collect()
        }
    }

    /// Every mapped page is non-empty and in its directory entry, every
    /// free page is empty and in none, and the counts add up.
    fn check_pages(lru: &Lru) {
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
        Use(ChunkKey, Option<u64>),
        Owner(ChunkKey),
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
        (0u8..22, key(), 0u64..1000, 32u64..64).prop_map(|(pick, key, value, far)| match pick {
            // Half of the inserts carry no owner.
            0..=11 => Op::Use(key, Some(value).filter(|v| v % 2 == 0)),
            12..=14 => Op::Owner(key),
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
            let mut lru = Lru::new();
            let mut model = TickModel::default();
            for op in ops {
                match op {
                    Op::Use(key, owner) => {
                        let got = lru.touch(key);
                        prop_assert_eq!(got, model.touch(key));
                        if !got {
                            lru.insert(key, owner);
                            model.stamp(key, owner);
                        }
                    }
                    Op::Owner(key) => prop_assert_eq!(lru.owner(key), model.owner(key)),
                    Op::PopOldest => prop_assert_eq!(lru.pop_oldest(), model.pop_oldest()),
                    Op::Contains(key) => {
                        prop_assert_eq!(lru.contains(key), model.map.contains_key(&key));
                    }
                    Op::FarProbe(space, idx) => {
                        prop_assert!(!lru.contains((space, idx)));
                        prop_assert!(!lru.touch((space, idx)));
                        prop_assert_eq!(lru.owner((space, idx)), None);
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
