//! HDFS metadata: blocks, file→block maps, the datanode registry.
//!
//! The metadata lives in [`HdfsMeta`] on the world's extension blackboard,
//! owned logically by the namenode actor (which mediates all mutations at
//! runtime) but directly writable by scenario builders via
//! [`crate::populate`], so experiments can lay out data without simulating
//! hours of ingest.

use std::collections::BTreeMap;

use vread_host::cluster::VmId;
use vread_sim::prelude::*;

/// A globally unique HDFS block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The on-datanode file path of this block (all datanodes store blocks
    /// under the same path, as the paper notes in §3.1).
    pub fn path(self) -> String {
        format!("/hdfs/data/blk_{}", self.0)
    }
}

/// Index of a datanode in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatanodeIx(pub usize);

/// A datanode's registration record.
#[derive(Debug, Clone, Copy)]
pub struct DnInfo {
    /// The datanode server actor.
    pub actor: ActorId,
    /// The VM the datanode runs in.
    pub vm: VmId,
}

/// One block of a file, with its locations.
#[derive(Debug, Clone)]
pub struct LocatedBlock {
    /// Block id.
    pub block: BlockId,
    /// Offset of this block within the file.
    pub offset: u64,
    /// Bytes in this block.
    pub len: u64,
    /// Datanodes holding replicas, primary first.
    pub replicas: Vec<DatanodeIx>,
}

/// File metadata.
#[derive(Debug, Clone, Default)]
pub struct FileMeta {
    /// Blocks in file order.
    pub blocks: Vec<LocatedBlock>,
}

impl FileMeta {
    /// Total file size.
    pub fn size(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).sum()
    }
}

/// Cluster-wide HDFS metadata and configuration.
#[derive(Debug, Default)]
pub struct HdfsMeta {
    /// File namespace.
    pub files: BTreeMap<String, FileMeta>,
    /// Registered datanodes.
    pub datanodes: Vec<DnInfo>,
    /// The namenode actor (RPC endpoint).
    pub namenode: Option<ActorId>,
    /// The VM hosting the namenode (the paper co-locates it with the
    /// client VM).
    pub namenode_vm: Option<VmId>,
    /// Actors notified when a block is finalized (vRead daemons register
    /// here; this is the paper's namenode-triggered mount refresh).
    pub observers: Vec<ActorId>,
    /// HVE-style topology awareness: prefer a co-located replica.
    pub topology_aware: bool,
    /// Replication factor for new blocks.
    pub replication: usize,
    /// When set, new blocks are always placed on this datanode first
    /// (experiment control for the paper's remote-write scenarios).
    pub forced_primary: Option<DatanodeIx>,
    /// Block size for new blocks.
    pub block_bytes: u64,
    next_block: u64,
}

impl HdfsMeta {
    /// Creates metadata with Hadoop-1.2.1-like defaults.
    pub fn new() -> Self {
        HdfsMeta {
            topology_aware: true,
            replication: 1,
            block_bytes: 64 * 1024 * 1024,
            ..Default::default()
        }
    }

    /// Registers a datanode, returning its index.
    pub fn register_datanode(&mut self, actor: ActorId, vm: VmId) -> DatanodeIx {
        self.datanodes.push(DnInfo { actor, vm });
        DatanodeIx(self.datanodes.len() - 1)
    }

    /// Mints a fresh block id.
    pub fn alloc_block(&mut self) -> BlockId {
        self.next_block += 1;
        BlockId(self.next_block)
    }

    /// Appends a located block to a file's metadata (creating the file).
    pub fn add_block(&mut self, path: &str, block: LocatedBlock) {
        self.files
            .entry(path.to_owned())
            .or_default()
            .blocks
            .push(block);
    }

    /// File metadata, if the file exists.
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_path_format() {
        assert_eq!(BlockId(17).path(), "/hdfs/data/blk_17");
    }

    #[test]
    fn alloc_blocks_unique() {
        let mut m = HdfsMeta::new();
        let a = m.alloc_block();
        let b = m.alloc_block();
        assert_ne!(a, b);
    }
}
