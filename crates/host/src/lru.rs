//! A flat, slot-linked LRU list: the recency order shared by both block
//! stores.
//!
//! A key is a chunk `(space, index)`: a *space* is a dense `u32` id the
//! store assigns (an object id, or a content sequence's slot), and the
//! index is the chunk's position inside it. Images and content sequences
//! are laid out densely from offset 0, so every chunk a space may hold
//! gets a *slot* in one flat table: each space owns a contiguous block
//! of slots, chunk `i` of the space living at `block start + i`.
//!
//! A slot is just the list links `[prev, next]` (`u32` slot numbers,
//! oldest entry at the head, newest at the tail); a sentinel `prev`
//! marks a chunk that is not resident. Values sit in a parallel
//! `Vec<V>`, which costs nothing for `V = ()`. So a resident chunk
//! costs 8 bytes plus its value, there is no node slab or free list,
//! and [`Lru::touch`], [`Lru::insert`], [`Lru::remove`] and
//! [`Lru::pop_oldest`] are O(1) probes with no hashing. The list stores
//! slots, not keys: [`Lru::pop_oldest`] and [`Lru::iter`] recover a
//! slot's key by binary search over the block starts, which are kept
//! sorted by slot.
//!
//! A block spans chunk 0 to the highest chunk inserted so far. A space
//! grows its block when a chunk past its end is first inserted, so
//! building a deployment does no table work. The block at the end of
//! the table grows in place; any other block moves to the end with
//! (at least) doubled length, its resident slots re-linked, and its old
//! slots are left unused. [`Lru::clear`] keeps every block.
//!
//! Limits: a chunk index must be below 2^32 − 2 and the table holds at
//! most 2^32 − 2 slots in all; an insert past either panics, while a
//! probe (touch, contains, remove) at any index just misses.
//!
//! Determinism: the order of entries is the linked list, which depends
//! only on the sequence of calls. The table is only ever probed by key,
//! never scanned for entries; the one iteration, [`Lru::iter`], walks
//! the list from oldest to newest.

/// Link value meaning "no slot": the list's two ends.
const NIL: u32 = u32::MAX;
/// `prev` link of a slot whose chunk is not resident.
const ABSENT: u32 = u32::MAX - 1;
/// Slots the table can hold; every slot number stays below both
/// sentinels, and so does every chunk index.
const MAX_SLOTS: u32 = ABSENT;

const PREV: usize = 0;
const NEXT: usize = 1;

/// Key of one chunk: `(space, chunk index)` (see the module docs).
pub type ChunkKey = (u32, u64);

/// A space's run of slots: chunk `i` lives at slot `start + i` for
/// `i < len`. A space that has never inserted has `len == 0`.
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    start: u32,
    len: u32,
}

impl Block {
    fn end(self) -> u32 {
        self.start + self.len
    }
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
    /// Per slot: `[prev, next]` ([`ABSENT`] `prev` where not resident).
    links: Vec<[u32; 2]>,
    /// Per slot: the value (meaningful only where resident).
    values: Vec<V>,
    /// Space -> its block.
    blocks: Vec<Block>,
    /// `(block start, space)` of every space with a block, sorted by
    /// start (so by slot).
    starts: Vec<(u32, u32)>,
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
            links: Vec::new(),
            values: Vec::new(),
            blocks: Vec::new(),
            starts: Vec::new(),
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
    /// the space's block does not reach it).
    #[inline]
    fn slot(&self, (space, idx): ChunkKey) -> Option<u32> {
        let block = *self.blocks.get(space as usize)?;
        let idx = u32::try_from(idx).ok().filter(|&i| i < block.len)?;
        Some(block.start + idx)
    }

    /// The slot holding `key`, if resident.
    #[inline]
    fn resident(&self, key: ChunkKey) -> Option<u32> {
        self.slot(key)
            .filter(|&s| self.links[s as usize][PREV] != ABSENT)
    }

    /// The key of slot `s`, which lies in some space's block.
    fn key_of(&self, s: u32) -> ChunkKey {
        let i = self.starts.partition_point(|&(start, _)| start <= s);
        let (start, space) = self.starts[i - 1];
        (space, u64::from(s - start))
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
        Some(self.values[s as usize])
    }

    /// Inserts `key` as the newest entry.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present, if its chunk index is 2^32 − 2
    /// or more, or if the table would exceed 2^32 − 2 slots.
    pub fn insert(&mut self, key: ChunkKey, value: V) {
        let s = match self.slot(key) {
            Some(s) => s,
            None => self.grow(key),
        };
        assert!(
            self.links[s as usize][PREV] == ABSENT,
            "LRU insert of a present key"
        );
        self.values[s as usize] = value;
        self.len += 1;
        self.link_newest(s);
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: ChunkKey) -> Option<V> {
        let s = self.resident(key)?;
        self.detach(s);
        Some(self.values[s as usize])
    }

    /// Removes and returns the oldest entry.
    pub fn pop_oldest(&mut self) -> Option<(ChunkKey, V)> {
        if self.head == NIL {
            return None;
        }
        let s = self.head;
        self.detach(s);
        Some((self.key_of(s), self.values[s as usize]))
    }

    /// Removes every entry. The table keeps its memory and every space
    /// its block, so refilling after `drop_caches` does not regrow them.
    pub fn clear(&mut self) {
        self.links.fill([ABSENT, NIL]);
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
            let entry = (self.key_of(s), self.values[s as usize]);
            s = self.links[s as usize][NEXT];
            Some(entry)
        })
    }

    /// Grows `key`'s space so its block reaches `key`, returning the
    /// key's slot (see the module docs for the relocation rule).
    fn grow(&mut self, (space, idx): ChunkKey) -> u32 {
        let idx = u32::try_from(idx)
            .ok()
            .filter(|&i| i < MAX_SLOTS)
            .unwrap_or_else(|| panic!("LRU chunk index {idx} is not below 2^32 - 2"));
        let sp = space as usize;
        if sp >= self.blocks.len() {
            self.blocks.resize(sp + 1, Block::default());
        }
        let old = self.blocks[sp];
        let end = self.slot_count();
        let need = idx + 1;
        if old.len > 0 && old.end() == end {
            self.extend(need - old.len);
            self.blocks[sp].len = need;
            return old.start + idx;
        }
        let room = MAX_SLOTS.saturating_sub(end);
        let len = need.max(old.len.saturating_mul(2).min(room));
        self.extend(len);
        if old.len > 0 {
            self.relocate(old, end);
            let at = self
                .starts
                .binary_search(&(old.start, space))
                .expect("every block is in starts");
            self.starts.remove(at);
        }
        self.starts.push((end, space));
        self.blocks[sp] = Block { start: end, len };
        end + idx
    }

    /// Slots in the table, used or not.
    fn slot_count(&self) -> u32 {
        u32::try_from(self.links.len()).expect("slot count fits u32")
    }

    /// Appends `n` non-resident slots.
    fn extend(&mut self, n: u32) {
        let total = self.slot_count().checked_add(n).filter(|&t| t <= MAX_SLOTS);
        let total = total.expect("LRU table exceeds 2^32 - 2 slots") as usize;
        self.links.resize(total, [ABSENT, NIL]);
        self.values.resize(total, V::default());
    }

    /// Moves the resident slots of block `old` to the same offsets from
    /// `start`, re-pointing their links, their outside neighbours and
    /// the list ends; the old slots become non-resident.
    fn relocate(&mut self, old: Block, start: u32) {
        let inside = |s: u32| (old.start..old.end()).contains(&s);
        let moved = |s: u32| if inside(s) { s - old.start + start } else { s };
        for s in old.start..old.end() {
            let [prev, next] = self.links[s as usize];
            if prev == ABSENT {
                continue;
            }
            let t = moved(s);
            self.links[t as usize] = [moved(prev), moved(next)];
            self.values[t as usize] = self.values[s as usize];
            self.links[s as usize] = [ABSENT, NIL];
            if prev == NIL {
                self.head = t;
            } else if !inside(prev) {
                self.links[prev as usize][NEXT] = t;
            }
            if next == NIL {
                self.tail = t;
            } else if !inside(next) {
                self.links[next as usize][PREV] = t;
            }
        }
    }

    /// Unlinks slot `s` and marks it non-resident (its value stays
    /// readable until the slot is reused).
    fn detach(&mut self, s: u32) {
        self.unlink(s);
        self.links[s as usize] = [ABSENT, NIL];
        self.len -= 1;
    }

    fn unlink(&mut self, s: u32) {
        let [prev, next] = self.links[s as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize][NEXT] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize][PREV] = prev;
        }
    }

    fn link_newest(&mut self, s: u32) {
        let tail = self.tail;
        self.links[s as usize] = [tail, NIL];
        if tail == NIL {
            self.head = s;
        } else {
            self.links[tail as usize][NEXT] = s;
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
            lru.links[2],
            [ABSENT, NIL],
            "a removed chunk's slot is vacant"
        );
        // A chunk re-inserted below the block's end reuses its own slot;
        // the table grows only to reach a new highest chunk.
        lru.insert(k(4), ());
        lru.insert(k(0), ());
        lru.insert(k(2), ());
        assert_eq!(lru.links.len(), 5);
        lru.insert(k(7), ());
        assert_eq!(lru.links.len(), 8);
        assert_eq!(keys(&lru), [1, 3, 4, 0, 2, 7]);
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
        assert!(lru.blocks.is_empty() && lru.links.is_empty());
        lru.insert((3, 1 << 20), 1);
        lru.insert((0, 0), 2);
        lru.insert((3, 0), 3);
        assert_eq!(lru.blocks.len(), 4);
        // Space 3 took slots 0..=2^20, then space 0 the next one.
        assert_eq!((lru.blocks[3].start, lru.blocks[3].len), (0, (1 << 20) + 1));
        assert_eq!((lru.blocks[0].start, lru.blocks[0].len), ((1 << 20) + 1, 1));
        assert_eq!(lru.links.len(), (1 << 20) + 2);
        assert_eq!(lru.starts, [(0, 3), ((1 << 20) + 1, 0)]);
        assert!(!lru.contains((0, 1 << 20)) && !lru.contains((1, 0)));
        // Space 3 is no longer last: growing it moves it to the end with
        // doubled length, and its chunks keep their values and order.
        lru.insert((3, (1 << 20) + 1), 4);
        assert_eq!(
            (lru.blocks[3].start, lru.blocks[3].len),
            ((1 << 20) + 2, (1 << 21) + 2)
        );
        assert_eq!(lru.starts, [((1 << 20) + 1, 0), ((1 << 20) + 2, 3)]);
        assert_eq!(lru.links[0], [ABSENT, NIL], "old slots are vacated");
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
        assert_eq!(lru.touch((u32::MAX - 1, u64::MAX)), None);
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
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(k(1), ());
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.contains(k(1)));
        assert_eq!(keys(&lru), Vec::<u64>::new());
        assert_eq!(lru.links.len(), 2, "clear keeps the table");
        lru.insert(k(1), ());
        assert_eq!(keys(&lru), [1]);
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

    /// Four spaces, indices mostly below 64 (so blocks interleave their
    /// growth and relocate), one in 32 of them sparse up to 2^20.
    fn key() -> impl Strategy<Value = ChunkKey> {
        (0u32..4, 0u8..32, 0u64..(1 << 20) + 1)
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
            }
        }
    }
}
