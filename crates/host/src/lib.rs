//! # vread-host — the virtualization substrate
//!
//! Models the hardware/hypervisor layer the paper's evaluation runs on:
//!
//! * [`cluster::Cluster`] — simulated physical hosts (quad-core Xeons with
//!   an SSD and a 10 GbE/RoCE NIC) and the VMs placed on them, each VM
//!   with one vCPU thread, one vhost-net I/O thread, a guest page cache
//!   and a guest filesystem on a virtual-disk image;
//! * [`costs::Costs`] — the single source of truth for every per-operation
//!   CPU cost (memcpy cycles/byte, VM exits, virtio kicks, interrupt
//!   injection, TCP segment processing, RDMA verbs, …);
//! * [`store::BlockStore`] — the typed block-store API (lookup/admit with
//!   [`store::Admission`] outcomes, [`store::CacheStats`] counters);
//! * [`cache::PageCache`] — byte-capacity LRU page caches (guest and host),
//!   which is what makes *read* and *re-read* behave differently;
//! * [`cas::CasStore`] — the content-addressed shared host store: ranges
//!   bound to a [`store::ContentId`] (HDFS replicas, shared files) occupy
//!   physical capacity once and dedup hits are served by mapping;
//! * [`lru::Lru`] — the recency list both stores evict by, linked
//!   through one flat per-chunk slot table, with O(1) touch, insert and
//!   eviction;
//! * [`fs::GuestFs`] — a small extent-based filesystem inside each VM's
//!   disk image, plus [`fs::FsSnapshot`], the hypervisor-side mounted view
//!   whose staleness/refresh implements the paper's `vRead_update`
//!   consistency protocol;
//! * [`virtio`] — stage builders for the virtio-blk read/write paths
//!   (guest I/O through the hypervisor), including all data copies the
//!   paper enumerates.
//!
//! Everything is expressed in CPU cycles and device service times, so the
//! paper's `cpufreq-set` experiments fall out of changing a host's clock.

#![forbid(unsafe_code)]

pub mod cache;
pub mod cas;
pub mod cluster;
pub mod costs;
pub mod fault;
pub mod fs;
pub mod lru;
pub mod store;
pub mod virtio;

pub use cache::PageCache;
pub use cas::CasStore;
pub use cluster::{with_cluster, Cluster, HostCacheMode, HostIx, Vm, VmId};
pub use costs::Costs;
pub use fault::DropHostCache;
pub use fs::{FileId, FsError, FsSnapshot, GuestFs, ObjectId};
pub use store::{Admission, BlockStore, CacheStats, ContentId, Lookup};
