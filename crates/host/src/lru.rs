//! An index-linked LRU list: the recency order shared by both block
//! stores.
//!
//! Entries live in a `Vec` slab of nodes doubly linked by `u32` indices,
//! oldest at the head and newest at the tail, with vacated nodes kept on
//! a free list for reuse.
//!
//! A key is a chunk `(space, index)`: a *space* is a dense `u32` id the
//! store assigns (an object id, or a content sequence's slot), and the
//! index is the chunk's position inside it. Images and content sequences
//! are laid out densely from offset 0, so the index is a table per
//! space — `space → chunk index → node` — and [`Lru::touch`],
//! [`Lru::insert`], [`Lru::remove`] and [`Lru::pop_oldest`] are O(1)
//! array probes with no hashing. A space's table grows when a chunk
//! beyond its end is first inserted, so building a deployment does no
//! index work.
//!
//! Determinism: the order of entries is the linked list, which depends
//! only on the sequence of calls. The tables are only ever probed by
//! key, never iterated; the one iteration, [`Lru::iter`], walks the list
//! from oldest to newest.

/// Link (and table) value meaning "no node".
const NIL: u32 = u32::MAX;

/// Key of one chunk: `(space, chunk index)` (see the module docs).
pub type ChunkKey = (u32, u64);

#[derive(Debug, Clone)]
struct Node<V> {
    key: ChunkKey,
    value: V,
    prev: u32,
    next: u32,
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
    nodes: Vec<Node<V>>,
    /// `space -> chunk index -> node` ([`NIL`] where absent).
    index: Vec<Vec<u32>>,
    len: usize,
    /// Oldest entry.
    head: u32,
    /// Newest entry.
    tail: u32,
    /// First vacated node, chained through `next`.
    free: u32,
}

impl<V: Copy> Default for Lru<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> Lru<V> {
    /// An empty list.
    pub fn new() -> Self {
        Lru {
            nodes: Vec::new(),
            index: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
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

    /// The node holding `key`, if present.
    #[inline]
    fn node_of(&self, (space, idx): ChunkKey) -> Option<u32> {
        let table = self.index.get(space as usize)?;
        let n = *table.get(usize::try_from(idx).ok()?)?;
        (n != NIL).then_some(n)
    }

    /// The table slot of `key`, growing the tables to reach it.
    fn slot_mut(&mut self, (space, idx): ChunkKey) -> &mut u32 {
        let space = space as usize;
        if space >= self.index.len() {
            self.index.resize_with(space + 1, Vec::new);
        }
        let table = &mut self.index[space];
        let idx = usize::try_from(idx).expect("chunk index fits usize");
        if idx >= table.len() {
            table.resize(idx + 1, NIL);
        }
        &mut table[idx]
    }

    /// Whether `key` is present (no recency change).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.node_of(key).is_some()
    }

    /// Moves `key` to the newest position and returns its value, or
    /// `None` when absent.
    pub fn touch(&mut self, key: ChunkKey) -> Option<V> {
        let n = self.node_of(key)?;
        if n != self.tail {
            self.unlink(n);
            self.link_newest(n);
        }
        Some(self.nodes[n as usize].value)
    }

    /// Inserts `key` as the newest entry.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present.
    pub fn insert(&mut self, key: ChunkKey, value: V) {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let n = if self.free == NIL {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("LRU fits u32 indices");
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let slot = self.slot_mut(key);
        assert!(*slot == NIL, "LRU insert of a present key");
        *slot = n;
        self.len += 1;
        self.link_newest(n);
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: ChunkKey) -> Option<V> {
        let n = self.node_of(key)?;
        self.detach(n);
        Some(self.nodes[n as usize].value)
    }

    /// Removes and returns the oldest entry.
    pub fn pop_oldest(&mut self) -> Option<(ChunkKey, V)> {
        if self.head == NIL {
            return None;
        }
        let n = self.head;
        self.detach(n);
        let node = &self.nodes[n as usize];
        Some((node.key, node.value))
    }

    /// Removes every entry. The tables keep their memory, so refilling
    /// after `drop_caches` does not regrow them.
    pub fn clear(&mut self) {
        self.nodes.clear();
        for table in &mut self.index {
            table.fill(NIL);
        }
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Entries from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkKey, V)> + '_ {
        let mut n = self.head;
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = &self.nodes[n as usize];
            n = node.next;
            Some((node.key, node.value))
        })
    }

    /// Unindexes, unlinks and frees node `n` (its contents stay readable
    /// until the node is reused).
    fn detach(&mut self, n: u32) {
        let (space, idx) = self.nodes[n as usize].key;
        self.index[space as usize][idx as usize] = NIL;
        self.len -= 1;
        self.unlink(n);
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }

    fn unlink(&mut self, n: u32) {
        let (prev, next) = {
            let node = &self.nodes[n as usize];
            (node.prev, node.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn link_newest(&mut self, n: u32) {
        let tail = self.tail;
        {
            let node = &mut self.nodes[n as usize];
            node.prev = tail;
            node.next = NIL;
        }
        if tail == NIL {
            self.head = n;
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.tail = n;
    }
}

#[cfg(test)]
mod tests {
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
        // Vacated nodes are reused before the slab grows.
        lru.insert(k(7), ());
        lru.insert(k(8), ());
        lru.insert(k(9), ());
        assert_eq!(lru.nodes.len(), 5);
        assert_eq!(keys(&lru), [1, 3, 7, 8, 9]);
        assert!(lru.contains(k(8)) && !lru.contains(k(0)));
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
        assert!(lru.index.is_empty());
        lru.insert((3, 1 << 20), 1);
        lru.insert((0, 0), 2);
        lru.insert((3, 0), 3);
        assert_eq!(lru.index.len(), 4);
        assert_eq!(lru.index[3].len(), (1 << 20) + 1);
        assert!(!lru.contains((0, 1 << 20)) && !lru.contains((1, 0)));
        assert_eq!(lru.touch((3, 1 << 20)), Some(1));
        assert_eq!(lru.remove((0, 0)), Some(2));
        assert_eq!(lru.pop_oldest(), Some(((3, 0), 3)));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.touch((u32::MAX - 1, u64::MAX)), None);
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(k(1), ());
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.contains(k(1)));
        assert_eq!(keys(&lru), Vec::<u64>::new());
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
}
