//! An index-linked LRU list: the recency order shared by both block
//! stores.
//!
//! Entries live in a `Vec` slab of nodes doubly linked by `u32` indices,
//! oldest at the head and newest at the tail, with vacated nodes kept on
//! a free list for reuse. A `HashMap` from key to node index makes
//! [`Lru::touch`], [`Lru::insert`], [`Lru::remove`] and
//! [`Lru::pop_oldest`] O(1).
//!
//! Determinism: the order of entries is the linked list, which depends
//! only on the sequence of calls. The hash index is only ever probed by
//! key, never iterated; the one iteration, [`Lru::iter`], walks the list
//! from oldest to newest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Link value meaning "no node".
const NIL: u32 = u32::MAX;

/// Multiply-rotate hasher for the index (the FxHash scheme). Chunk keys
/// are a few small integers, so this beats SipHash by a wide margin, and
/// it is seedless: the same keys hash the same way in every run. The
/// keys are chunk indices and ids the simulator derives itself, so
/// SipHash's protection against crafted collisions buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// Keys in recency order, each with a value (see the module docs).
///
/// ```rust
/// use vread_host::lru::Lru;
///
/// let mut lru = Lru::new();
/// lru.insert('a', 1);
/// lru.insert('b', 2);
/// assert_eq!(lru.touch(&'a'), Some(1)); // 'a' is now the newest
/// assert_eq!(lru.pop_oldest(), Some(('b', 2)));
/// ```
#[derive(Debug, Clone)]
pub struct Lru<K, V> {
    nodes: Vec<Node<K, V>>,
    index: HashMap<K, u32, BuildHasherDefault<KeyHasher>>,
    /// Oldest entry.
    head: u32,
    /// Newest entry.
    tail: u32,
    /// First vacated node, chained through `next`.
    free: u32,
}

impl<K: Copy + Eq + Hash, V: Copy> Default for Lru<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash, V: Copy> Lru<K, V> {
    /// An empty list.
    pub fn new() -> Self {
        Lru {
            nodes: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present (no recency change).
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Moves `key` to the newest position and returns its value, or
    /// `None` when absent.
    pub fn touch(&mut self, key: &K) -> Option<V> {
        let n = *self.index.get(key)?;
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
    pub fn insert(&mut self, key: K, value: V) {
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
        let old = self.index.insert(key, n);
        assert!(old.is_none(), "LRU insert of a present key");
        self.link_newest(n);
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let n = self.index.remove(key)?;
        self.unlink(n);
        self.release(n);
        Some(self.nodes[n as usize].value)
    }

    /// Removes and returns the oldest entry.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        if self.head == NIL {
            return None;
        }
        let n = self.head;
        let Node { key, value, .. } = self.nodes[n as usize];
        self.index.remove(&key);
        self.unlink(n);
        self.release(n);
        Some((key, value))
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Entries from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
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

    /// Puts an unlinked node on the free list.
    fn release(&mut self, n: u32) {
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, ()>) -> Vec<u32> {
        lru.iter().map(|(k, ())| k).collect()
    }

    #[test]
    fn touch_moves_to_newest() {
        let mut lru = Lru::new();
        for k in 0..4 {
            lru.insert(k, ());
        }
        assert_eq!(lru.touch(&3), Some(())); // already newest
        assert_eq!(lru.touch(&1), Some(()));
        assert_eq!(lru.touch(&0), Some(()));
        assert_eq!(lru.touch(&9), None);
        assert_eq!(keys(&lru), [2, 3, 1, 0]);
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn remove_and_pop_relink_and_reuse_nodes() {
        let mut lru = Lru::new();
        for k in 0..5 {
            lru.insert(k, ());
        }
        assert_eq!(lru.remove(&2), Some(()));
        assert_eq!(lru.remove(&2), None);
        assert_eq!(lru.remove(&4), Some(())); // the tail
        assert_eq!(lru.pop_oldest(), Some((0, ())));
        assert_eq!(keys(&lru), [1, 3]);
        // Vacated nodes are reused before the slab grows.
        lru.insert(7, ());
        lru.insert(8, ());
        lru.insert(9, ());
        assert_eq!(lru.nodes.len(), 5);
        assert_eq!(keys(&lru), [1, 3, 7, 8, 9]);
        assert!(lru.contains(&8) && !lru.contains(&0));
    }

    #[test]
    fn values_survive_touch_and_pop() {
        let mut lru: Lru<u32, u64> = Lru::new();
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.touch(&1), Some(10));
        assert_eq!(lru.pop_oldest(), Some((2, 20)));
        assert_eq!(lru.pop_oldest(), Some((1, 10)));
        assert_eq!(lru.pop_oldest(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut lru = Lru::new();
        lru.insert(1u32, ());
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(keys(&lru), Vec::<u32>::new());
        lru.insert(1, ());
        assert_eq!(keys(&lru), [1]);
    }

    #[test]
    #[should_panic(expected = "present key")]
    fn double_insert_panics() {
        let mut lru = Lru::new();
        lru.insert(1u32, ());
        lru.insert(1, ());
    }
}
