// Fixture: ordered collections, point lookups, and rule text inside
// strings/comments must not fire.
use std::collections::{BTreeMap, HashMap};
use vread_sim::hash::IdHashMap;

struct State {
    ordered: BTreeMap<u64, u32>,
    lookup: HashMap<u64, u32>,
    streams: IdHashMap<(u32, u64), u64>,
}

impl State {
    fn sum_ordered(&self) -> u32 {
        // Iterating a BTreeMap is fine: .values() order is the key order.
        self.ordered.values().sum()
    }

    fn get(&self, k: u64) -> Option<u32> {
        // Point lookups never observe RandomState order.
        self.lookup.get(&k).copied()
    }

    fn advance(&mut self, key: (u32, u64)) {
        // Keyed access to a seedless-hasher map is just as safe.
        if let Some(off) = self.streams.get_mut(&key) {
            *off += 1;
        }
        self.streams.remove(&key);
    }
}

fn strings_and_comments() {
    // A mention of lookup.values() in a comment must not fire.
    let _s = "for x in lookup.iter() { lookup.values() }";
}
