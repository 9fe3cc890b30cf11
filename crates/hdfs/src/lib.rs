//! # vread-hdfs — the HDFS substrate
//!
//! A re-implementation of the Hadoop-1.2.1 HDFS data path the paper
//! evaluates against, running on the simulated virtualization stack:
//!
//! * [`namenode`] — metadata service: block lookup
//!   (`getBlockLocations`), allocation with HVE-style topology-aware
//!   placement, finalization, and the new-block notifications that drive
//!   the vRead daemon's mount refresh;
//! * [`datanode`] — block server: streams block files from its VM's
//!   virtual disk through virtio-blk and ships them over the virtio-net
//!   TCP connection (the Figure 1 vanilla flow), and accepts the write
//!   pipeline;
//! * [`client`] — `DFSClient` with the paper's `read1`/`read2`
//!   semantics and a pluggable [`client::BlockReadPath`], so the vanilla
//!   path and the vRead path differ only by configuration;
//! * [`populate`] — experiment helpers that lay out files block-by-block
//!   on chosen datanodes without simulating ingest;
//! * [`meta`] — shared metadata types ([`meta::HdfsMeta`] lives in the
//!   world's extension blackboard).
//!
//! # Example (assembled cluster)
//!
//! See `examples/hadoop_cluster.rs` at the workspace root, or the
//! end-to-end tests in `tests/`.

#![forbid(unsafe_code)]

pub mod client;
pub mod datanode;
pub mod meta;
pub mod namenode;
pub mod populate;

pub use client::{
    add_client, BlockReadPath, BlockReq, ClientShared, DfsClient, DfsRead, DfsReadDone, DfsWrite,
    DfsWriteDone, PathEvent, VanillaPath,
};
pub use datanode::{add_datanode, Datanode};
pub use meta::{BlockId, DatanodeIx, DnInfo, FileMeta, HdfsMeta, LocatedBlock};
pub use namenode::{add_namenode, BlockAdded, Namenode};
pub use populate::{populate_file, Placement};

/// Installs a complete HDFS deployment: metadata, namenode (on
/// `namenode_vm`), and one datanode per entry of `datanode_vms`.
/// [`vread_host::Cluster`] must already be installed in `w.ext`.
///
/// Returns `(namenode actor, datanode indices)`.
pub fn deploy_hdfs(
    w: &mut vread_sim::World,
    namenode_vm: vread_host::VmId,
    datanode_vms: &[vread_host::VmId],
) -> (vread_sim::ActorId, Vec<DatanodeIx>) {
    let mut meta = HdfsMeta::new();
    meta.namenode_vm = Some(namenode_vm);
    w.ext.insert(meta);
    let nn = add_namenode(w);
    let dns = datanode_vms
        .iter()
        .map(|&vm| add_datanode(w, vm).1)
        .collect();
    (nn, dns)
}
