// Fixture: iteration over seedless-hasher maps must fire however the map
// type is spelled: the workspace aliases, a path to them, or a std map
// with the hasher as its third parameter.
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vread_sim::hash::{IdBuildHasher, IdHashMap, IdHashSet, IdHasher};

struct Datanode {
    reads: IdHashMap<(u32, u64), u64>,
    conns: vread_sim::hash::IdHashMap<usize, u32>,
    tags: HashMap<u64, u64, IdBuildHasher>,
    spelled_out: HashMap<u64, u64, BuildHasherDefault<IdHasher>>,
}

impl Datanode {
    fn offsets(&self) -> Vec<u64> {
        self.reads.values().copied().collect() //~ unordered-iter
    }

    fn conns_in_hash_order(&self) {
        for (k, v) in &self.conns { //~ unordered-iter
            let _ = (k, v);
        }
    }

    fn prune(&mut self) -> usize {
        self.tags.retain(|_, v| *v > 0); //~ unordered-iter
        self.spelled_out.keys().count() //~ unordered-iter
    }
}

fn locals() {
    let mut seen: IdHashSet<u64> = IdHashSet::default();
    seen.insert(1);
    for s in seen.iter() { //~ unordered-iter
        let _ = s;
    }
    let blocks = IdHashMap::<u64, u32>::default();
    let _ = blocks.into_iter().count(); //~ unordered-iter
}
