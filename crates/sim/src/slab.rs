//! Free-list slab for in-flight chains.
//!
//! Chains are created and retired at very high rates (one per I/O request
//! hop in the data-path models), so the engine stores them in a slab
//! indexed directly by [`ChainId`] instead of a hash map: insert pops a
//! free slot (or grows the backing `Vec`), lookup is a bounds-checked
//! array access, and remove pushes the slot back on the free list.
//!
//! A [`ChainId`] packs `generation << 32 | slot`. The generation is bumped
//! every time a slot is vacated, so a stale id — e.g. a `ChainResume`
//! event racing a chain that already completed — misses cleanly instead of
//! resuming whatever chain happens to occupy the recycled slot.

use crate::chain::Chain;
use crate::ids::ChainId;

struct Slot {
    /// Incremented on each vacate; occupied ids must match.
    gen: u32,
    chain: Option<Chain>,
}

/// Slab of in-flight chains with generation-tagged ids.
#[derive(Default)]
pub(crate) struct ChainSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

fn pack(gen: u32, slot: u32) -> ChainId {
    ChainId::from_raw((u64::from(gen) << 32) | u64::from(slot))
}

// vread-lint: allow(checked-cast, "intentional bit-slice of the packed generation|slot id")
fn unpack(id: ChainId) -> (u32, u32) {
    let raw = id.raw();
    ((raw >> 32) as u32, raw as u32)
}

impl ChainSlab {
    pub(crate) fn new() -> Self {
        ChainSlab::default()
    }

    /// Stores `chain`, returning its id.
    pub(crate) fn insert(&mut self, chain: Chain) -> ChainId {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.chain.is_none());
            s.chain = Some(chain);
            pack(s.gen, slot)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("chain slab overflow");
            self.slots.push(Slot {
                gen: 0,
                chain: Some(chain),
            });
            pack(0, slot)
        }
    }

    /// The chain for `id`, unless it already completed (stale generation).
    pub(crate) fn get_mut(&mut self, id: ChainId) -> Option<&mut Chain> {
        let (gen, slot) = unpack(id);
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != gen {
            return None;
        }
        s.chain.as_mut()
    }

    /// Removes and returns the chain for `id`, bumping the slot generation.
    pub(crate) fn remove(&mut self, id: ChainId) -> Option<Chain> {
        let (gen, slot) = unpack(id);
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != gen {
            return None;
        }
        let chain = s.chain.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::StageList;
    use crate::ids::ActorId;

    fn chain() -> Chain {
        Chain::new(StageList::new(), ActorId::from_raw(0), Box::new(()))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = ChainSlab::new();
        let a = s.insert(chain());
        let b = s.insert(chain());
        assert_ne!(a, b);
        assert!(s.get_mut(a).is_some());
        assert!(s.remove(a).is_some());
        assert!(s.get_mut(a).is_none(), "removed id must miss");
        assert!(s.remove(a).is_none(), "double remove must miss");
        assert!(s.get_mut(b).is_some());
    }

    #[test]
    fn recycled_slot_gets_new_generation() {
        let mut s = ChainSlab::new();
        let a = s.insert(chain());
        s.remove(a).unwrap();
        let b = s.insert(chain());
        // Same slot, different generation: the stale id must not alias.
        assert_ne!(a, b);
        assert!(s.get_mut(a).is_none());
        assert!(s.get_mut(b).is_some());
    }
}
