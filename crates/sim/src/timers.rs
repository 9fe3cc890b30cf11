//! The core-timer table: one armed-timer slot per core, with a
//! tournament tree over the slots.
//!
//! A core has at most one *valid* pending timer at any time (re-arming
//! always bumps the core's generation, invalidating the previous timer),
//! so core timers live in a flat per-core table instead of the event
//! heap: arming is a slot overwrite and stale timers vanish instead of
//! firing as no-ops.
//!
//! The engine asks for the earliest armed timer twice per event, so the
//! table keeps a tournament tree over its slots: every internal node
//! holds the slot with the smallest `(time, seq)` in its subtree, an
//! unarmed slot comparing as `(SimTime::MAX, u64::MAX)`. Arming or
//! popping a slot replays the leaf-to-root path above it, stopping at
//! the first node whose result cannot change (O(log cores)); the minimum
//! is the root (O(1)). `seq` values are unique, so the root is exactly
//! the slot a linear scan would pick.

use crate::ids::HostId;
use crate::time::SimTime;

/// Sort key of an unarmed slot or a padding leaf: `(SimTime::MAX,
/// u64::MAX)` packed, after every armed slot.
const UNARMED: u128 = u128::MAX;

/// Packs `(time, seq)` so that one integer comparison orders two timers.
fn pack(t: SimTime, seq: u64) -> u128 {
    (u128::from(t.as_nanos()) << 64) | u128::from(seq)
}

/// Splits a packed key back into `(time, seq)` (the low half is `seq`).
fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

/// Which core a slot belongs to, and the generation its timer carries.
struct Slot {
    host: HostId,
    core: u32,
    gen: u64,
}

/// The per-core timer table (see the module docs).
pub(crate) struct CoreTimers {
    /// One slot per core across all hosts, host by host.
    slots: Vec<Slot>,
    /// Packed `(time, seq)` per leaf: armed slots hold their timer,
    /// unarmed slots and the padding leaves past `slots.len()` hold
    /// [`UNARMED`].
    keys: Vec<u128>,
    /// Tournament tree in heap layout over `keys.len()` leaves (a power
    /// of two): node 1 is the root, node `n` has children `2n` and
    /// `2n + 1`, and node `keys.len() + i` is leaf `i`. Every node holds
    /// the winning leaf index of its subtree.
    tree: Vec<u32>,
    /// Number of armed slots.
    armed: usize,
}

impl Default for CoreTimers {
    fn default() -> Self {
        // One padding leaf, which is also the root.
        CoreTimers {
            slots: Vec::new(),
            keys: vec![UNARMED],
            tree: vec![0, 0],
            armed: 0,
        }
    }
}

impl CoreTimers {
    /// Number of slots (cores across all hosts).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of armed slots.
    pub(crate) fn armed(&self) -> usize {
        self.armed
    }

    /// Appends one unarmed slot per core of `host`. New slots land on
    /// padding leaves, which already compare as unarmed, so the tree is
    /// only rebuilt when the leaf capacity has to double: building a
    /// world of `h` hosts costs O(total cores), not O(h × cores).
    pub(crate) fn add_host(&mut self, host: HostId, cores: usize) {
        for c in 0..cores {
            self.slots.push(Slot {
                host,
                core: c.try_into().expect("core count fits u32"),
                gen: 0,
            });
        }
        if self.slots.len() > self.keys.len() {
            self.grow(self.slots.len().next_power_of_two());
        }
    }

    /// Rebuilds the tree over `cap` leaves, keeping every armed timer.
    fn grow(&mut self, cap: usize) {
        self.keys.resize(cap, UNARMED);
        self.tree = vec![0; 2 * cap];
        for i in 0..cap {
            self.tree[cap + i] = i.try_into().expect("core-timer table fits u32");
        }
        for n in (1..cap).rev() {
            self.tree[n] = self.play(n);
        }
    }

    /// The winner of node `n`'s two children.
    #[inline]
    fn play(&self, n: usize) -> u32 {
        let (l, r) = (self.tree[2 * n], self.tree[2 * n + 1]);
        if self.keys[r as usize] < self.keys[l as usize] {
            r
        } else {
            l
        }
    }

    /// Replays the leaf-to-root path above slot `i` after its key
    /// changed. Once a node keeps a winner other than `i`, every node
    /// above it keeps its winner too, so the replay stops there.
    #[inline]
    fn replay(&mut self, i: usize) {
        let leaf = self.tree[self.keys.len() + i];
        let mut n = (self.keys.len() + i) / 2;
        while n > 0 {
            let won = self.play(n);
            if won == self.tree[n] && won != leaf {
                break;
            }
            self.tree[n] = won;
            n /= 2;
        }
    }

    /// Arms slot `i` to fire at `t`, replacing any pending timer there.
    #[inline]
    pub(crate) fn arm(&mut self, i: usize, t: SimTime, seq: u64, gen: u64) {
        if self.keys[i] == UNARMED {
            self.armed += 1;
        }
        self.keys[i] = pack(t, seq);
        self.slots[i].gen = gen;
        self.replay(i);
    }

    /// Disarms slot `i`, returning `(fire_time, host, core, gen)`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not armed.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> (SimTime, HostId, usize, u64) {
        let key = std::mem::replace(&mut self.keys[i], UNARMED);
        assert!(key != UNARMED, "popping an unarmed core timer");
        self.armed -= 1;
        self.replay(i);
        let s = &self.slots[i];
        (unpack(key).0, s.host, s.core as usize, s.gen)
    }

    /// Earliest armed timer as `(time, seq, slot)`, if any: the root.
    #[inline]
    pub(crate) fn min(&self) -> Option<(SimTime, u64, usize)> {
        let w = self.tree[1] as usize;
        let key = self.keys[w];
        let min = (key != UNARMED).then(|| {
            let (t, seq) = unpack(key);
            (t, seq, w)
        });
        #[cfg(debug_assertions)]
        assert_eq!(min, self.scan_min(), "core-timer tree diverged from a scan");
        min
    }

    /// Earliest armed timer by linear scan: the reference the tree is
    /// checked against in debug builds.
    #[cfg(debug_assertions)]
    pub(crate) fn scan_min(&self) -> Option<(SimTime, u64, usize)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, &key) in self.keys.iter().enumerate() {
            if key != UNARMED {
                let (t, seq) = unpack(key);
                if best.is_none_or(|(bt, bs, _)| (t, seq) < (bt, bs)) {
                    best = Some((t, seq, i));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(n: u16) -> HostId {
        HostId::from_raw(n)
    }

    #[test]
    fn keys_pack_in_time_then_seq_order() {
        let at = SimTime::from_nanos;
        assert!(pack(at(1), u64::MAX - 1) < pack(at(2), 0));
        assert!(pack(at(2), 3) < pack(at(2), 4));
        assert!(pack(at(u64::MAX), u64::MAX - 1) < UNARMED);
        assert_eq!(unpack(pack(at(7), 9)), (at(7), 9));
    }

    #[test]
    fn empty_table_has_no_minimum() {
        let mut t = CoreTimers::default();
        assert_eq!(t.min(), None);
        t.add_host(host(0), 3);
        assert_eq!((t.len(), t.armed(), t.min()), (3, 0, None));
    }

    #[test]
    fn root_tracks_arms_pops_and_rearms() {
        let mut t = CoreTimers::default();
        t.add_host(host(0), 2);
        t.add_host(host(1), 3); // 5 slots: capacity 8, 3 padding leaves
        let at = SimTime::from_nanos;
        t.arm(4, at(50), 1, 7);
        t.arm(1, at(30), 2, 1);
        t.arm(2, at(30), 3, 1);
        assert_eq!(t.min(), Some((at(30), 2, 1)), "equal times break by seq");
        t.arm(1, at(60), 4, 2); // re-arm moves slot 1 behind the others
        assert_eq!(t.armed(), 3);
        assert_eq!(t.min(), Some((at(30), 3, 2)));
        assert_eq!(t.pop(2), (at(30), host(1), 0, 1));
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        t.arm(3, at(55), 5, 4); // loses at its first node: replay stops early
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        assert_eq!(t.pop(4), (at(50), host(1), 2, 7));
        assert_eq!(t.pop(3), (at(55), host(1), 1, 4));
        assert_eq!(t.pop(1), (at(60), host(0), 1, 2));
        assert_eq!((t.armed(), t.min()), (0, None));
    }

    #[test]
    fn growth_keeps_armed_timers() {
        let mut t = CoreTimers::default();
        t.add_host(host(0), 1);
        t.arm(0, SimTime::from_nanos(9), 1, 1);
        for h in 1..20 {
            t.add_host(host(h), 4);
            assert_eq!(t.min(), Some((SimTime::from_nanos(9), 1, 0)));
        }
        assert_eq!(t.len(), 77);
        t.arm(76, SimTime::from_nanos(3), 2, 1);
        assert_eq!(t.min(), Some((SimTime::from_nanos(3), 2, 76)));
    }
}
