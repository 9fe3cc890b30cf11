//! Direct data layout for experiments: create HDFS files on datanodes
//! without simulating the ingest.
//!
//! The paper's read experiments pre-load 1–5 GB of data and control
//! exactly which datanode holds it (co-located, remote, or a hybrid mix).
//! [`populate_file`] writes block files straight into the datanode VMs'
//! filesystems and registers the metadata. Caches start cold: re-read
//! experiments perform a first read pass, which warms caches the same
//! way the paper does.

use vread_host::cluster::Cluster;
use vread_host::store::ContentId;
use vread_sim::prelude::*;

use crate::meta::{DatanodeIx, HdfsMeta, LocatedBlock};

/// Which datanode gets each block of a populated file.
#[derive(Debug, Clone)]
pub enum Placement {
    /// All blocks on one datanode.
    One(DatanodeIx),
    /// Blocks alternate round-robin over the listed datanodes (the
    /// paper's *hybrid* scenario with a co-located and a remote datanode).
    RoundRobin(Vec<DatanodeIx>),
    /// Every block is replicated on all listed datanodes; the primary
    /// rotates (for replica-choice / HVE experiments).
    Replicated(Vec<DatanodeIx>),
}

impl Placement {
    fn replicas(&self, block_index: usize) -> Vec<DatanodeIx> {
        match self {
            Placement::One(d) => vec![*d],
            Placement::RoundRobin(ds) => vec![ds[block_index % ds.len()]],
            Placement::Replicated(ds) => {
                let mut v = ds.clone();
                v.rotate_left(block_index % ds.len());
                v
            }
        }
    }
}

/// Creates `path` with `bytes` of data placed per `placement`, directly
/// materializing block files on the datanode VMs and the metadata in
/// [`HdfsMeta`]. Caches are *not* warmed.
///
/// # Panics
///
/// Panics if the cluster/metadata extensions are missing or a datanode
/// index is unknown.
pub fn populate_file(w: &mut World, path: &str, bytes: u64, placement: &Placement) {
    let mut cl = w.ext.remove::<Cluster>().expect("Cluster not installed");
    let mut meta = w.ext.remove::<HdfsMeta>().expect("HdfsMeta not installed");

    let block_size = meta.block_bytes;
    let mut off = 0u64;
    let mut index = 0usize;
    while off < bytes {
        let len = block_size.min(bytes - off);
        let replicas = placement.replicas(index);
        let block = meta.alloc_block();
        // Replicas of one block are byte-identical on every datanode, so
        // the block path names their shared content; binding each
        // replica's extents lets a content-addressed host store dedup
        // them (an LRU store ignores the bindings).
        let content = ContentId::from_path(&block.path());
        for &dn in &replicas {
            let vm = meta.datanodes[dn.0].vm;
            let fs = &mut cl.vm_mut(vm).fs;
            let file = fs.create(&block.path()).expect("fresh block path collided");
            fs.append(file, len);
            let extents = fs.resolve(file, 0, len).expect("fresh block resolves");
            let mut coff = 0u64;
            for e in extents {
                cl.bind_content(vm, e.image_offset, e.len, content, coff);
                coff += e.len;
            }
        }
        meta.add_block(
            path,
            LocatedBlock {
                block,
                offset: off,
                len,
                replicas,
            },
        );
        off += len;
        index += 1;
    }

    w.ext.insert(cl);
    w.ext.insert(meta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datanode::add_datanode;
    use crate::namenode::add_namenode;
    use vread_host::costs::Costs;

    #[test]
    fn populate_creates_blocks_and_metadata() {
        let mut w = World::new(5);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let client_vm = cl.add_vm(&mut w, h, "client");
        let dn_vm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        let mut meta = HdfsMeta::new();
        meta.namenode_vm = Some(client_vm);
        meta.block_bytes = 1 << 20; // 1 MB blocks for the test
        w.ext.insert(meta);
        add_namenode(&mut w);
        let (_, dn) = add_datanode(&mut w, dn_vm);

        populate_file(&mut w, "/data/f1", (3 << 20) + 100, &Placement::One(dn));

        let meta = w.ext.get::<HdfsMeta>().unwrap();
        let f = meta.file("/data/f1").unwrap();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.size(), (3 << 20) + 100);
        assert_eq!(f.blocks[3].len, 100);
        // block files exist on the datanode VM
        let cl = w.ext.get::<Cluster>().unwrap();
        for lb in &f.blocks {
            let fs = &cl.vm(dn_vm).fs;
            let file = fs.lookup(&lb.block.path()).expect("block file");
            assert_eq!(fs.size(file), lb.len);
        }
    }

    #[test]
    fn round_robin_alternates_datanodes() {
        let mut w = World::new(5);
        let mut cl = Cluster::new(Costs::default());
        let h1 = cl.add_host(&mut w, "h1", 4, 2.0);
        let h2 = cl.add_host(&mut w, "h2", 4, 2.0);
        let client_vm = cl.add_vm(&mut w, h1, "client");
        let dn1_vm = cl.add_vm(&mut w, h1, "dn1");
        let dn2_vm = cl.add_vm(&mut w, h2, "dn2");
        w.ext.insert(cl);
        let mut meta = HdfsMeta::new();
        meta.namenode_vm = Some(client_vm);
        meta.block_bytes = 1 << 20;
        w.ext.insert(meta);
        add_namenode(&mut w);
        let (_, d1) = add_datanode(&mut w, dn1_vm);
        let (_, d2) = add_datanode(&mut w, dn2_vm);

        populate_file(&mut w, "/f", 4 << 20, &Placement::RoundRobin(vec![d1, d2]));
        let meta = w.ext.get::<HdfsMeta>().unwrap();
        let f = meta.file("/f").unwrap();
        let dns: Vec<usize> = f.blocks.iter().map(|b| b.replicas[0].0).collect();
        assert_eq!(dns, vec![0, 1, 0, 1]);
    }
}
