//! The physical/virtual topology: hosts, VMs and their shared state.
//!
//! [`Cluster`] lives on the world's extension blackboard
//! ([`vread_sim::ext::Extensions`]) so that actors (datanodes, clients,
//! the vRead daemon) can consult caches and filesystems synchronously
//! while building stage chains. Use [`with_cluster`] to borrow it and the
//! world at the same time.
//!
//! Every guest and every host owns one [`BlockStore`]; a host's store is
//! shared by all of its VMs' images. [`HostCacheMode`] decides which
//! stores are content-addressed: in [`HostCacheMode::Cas`] the cluster
//! records each image's content bindings and forwards them to the host
//! store (identical blocks resident once, served by mapping); in the
//! default [`HostCacheMode::Lru`] no store gets a binding, so each is a
//! plain LRU page cache. Guest stores never get bindings — the guest
//! kernel has no cross-VM visibility.

use std::collections::BTreeMap;

use vread_sim::prelude::*;
use vread_sim::resources::{BlockDev, Link};

use crate::costs::Costs;
use crate::fs::{GuestFs, ObjectId};
use crate::store::{BlockStore, ContentId};

/// Index of a host within a [`Cluster`] (distinct from the scheduler-level
/// [`HostId`], which it wraps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostIx(pub usize);

/// Index of a VM within a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub usize);

/// Whether host stores are content-addressed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HostCacheMode {
    /// Per-image byte-for-byte LRU (the kernel page cache; default):
    /// no store gets a content binding.
    #[default]
    Lru,
    /// Content-addressed shared host stores: host stores get every
    /// image's content bindings, so identical blocks are stored once.
    Cas,
}

/// One content binding of an image range, kept cluster-side so it can be
/// replayed into another host's store on VM migration.
#[derive(Debug, Clone, Copy)]
struct ContentBinding {
    image_offset: u64,
    len: u64,
    content: ContentId,
    content_offset: u64,
}

/// Hardware state of one physical host.
#[derive(Debug)]
pub struct HostHw {
    /// Scheduler-level host id.
    pub host: HostId,
    /// The host's SSD.
    pub dev: BlockDevId,
    /// Host block store (caches VM disk-image files; shared by the
    /// host's VMs).
    pub cache: BlockStore,
    /// Egress NIC link towards the LAN (10 GbE, also carries RoCE).
    pub nic: LinkId,
    /// VMs placed on this host.
    pub vms: Vec<VmId>,
}

/// One virtual machine.
#[derive(Debug)]
pub struct Vm {
    /// Human-readable name ("client", "datanode1", …).
    pub name: String,
    /// The host this VM runs on.
    pub host: HostIx,
    /// The VM's single vCPU thread.
    pub vcpu: ThreadId,
    /// The VM's vhost-net I/O thread.
    pub vhost: ThreadId,
    /// Guest kernel page cache.
    pub cache: BlockStore,
    /// Guest filesystem on the VM's virtual disk.
    pub fs: GuestFs,
}

/// The whole deployment: hosts, VMs, cost model.
#[derive(Debug, Default)]
pub struct Cluster {
    /// The cost model shared by every component.
    pub costs: Costs,
    /// Physical hosts.
    pub hosts: Vec<HostHw>,
    /// Virtual machines.
    pub vms: Vec<Vm>,
    next_object: u64,
    host_cache_mode: HostCacheMode,
    /// image object -> content bindings, for migration replay
    /// ([`HostCacheMode::Cas`] only).
    bindings: BTreeMap<u64, Vec<ContentBinding>>,
}

impl Cluster {
    /// Creates an empty cluster with the given cost model (host caches
    /// default to [`HostCacheMode::Lru`]).
    pub fn new(costs: Costs) -> Self {
        Cluster {
            costs,
            hosts: Vec::new(),
            vms: Vec::new(),
            next_object: 0,
            host_cache_mode: HostCacheMode::default(),
            bindings: BTreeMap::new(),
        }
    }

    /// Selects whether host stores are content-addressed. Call before
    /// the first [`Cluster::bind_content`].
    pub fn set_host_cache_mode(&mut self, mode: HostCacheMode) {
        self.host_cache_mode = mode;
    }

    /// Whether host stores are content-addressed (drives the hash-cost
    /// charge on admission in the daemon).
    pub fn content_addressed(&self) -> bool {
        self.host_cache_mode == HostCacheMode::Cas
    }

    /// Adds a physical host: registers cores/scheduler, SSD and NIC with
    /// the world and the hardware row here.
    pub fn add_host(&mut self, w: &mut World, name: &str, cores: usize, ghz: f64) -> HostIx {
        let host = w.add_host(name, cores, ghz);
        let dev = w.add_blockdev(BlockDev::new(
            SimDuration::from_nanos(self.costs.ssd_latency_ns),
            self.costs.ssd_bw_bps,
        ));
        let nic = w.add_link(Link::new(
            self.costs.nic_bw_bps,
            SimDuration::from_nanos(self.costs.lan_latency_ns),
        ));
        let ix = HostIx(self.hosts.len());
        self.hosts.push(HostHw {
            host,
            dev,
            cache: BlockStore::new(self.costs.host_cache_bytes, self.costs.cache_chunk_bytes),
            nic,
            vms: Vec::new(),
        });
        ix
    }

    /// Adds a VM on `host`: one vCPU thread, one vhost-net thread, a guest
    /// page cache and a fresh filesystem on a new disk image.
    pub fn add_vm(&mut self, w: &mut World, host: HostIx, name: &str) -> VmId {
        let hw = &self.hosts[host.0];
        let vcpu = w.add_thread(hw.host, &format!("{name}/vcpu"));
        let vhost = w.add_thread(hw.host, &format!("{name}/vhost"));
        self.next_object += 1;
        let image = ObjectId::from_raw(self.next_object);
        let id = VmId(self.vms.len());
        self.vms.push(Vm {
            name: name.to_owned(),
            host,
            vcpu,
            vhost,
            cache: BlockStore::new(self.costs.guest_cache_bytes, self.costs.cache_chunk_bytes),
            fs: GuestFs::new(image),
        });
        self.hosts[host.0].vms.push(id);
        id
    }

    /// The VM's row.
    pub fn vm(&self, vm: VmId) -> &Vm {
        &self.vms[vm.0]
    }

    /// Mutable access to a VM's row.
    pub fn vm_mut(&mut self, vm: VmId) -> &mut Vm {
        &mut self.vms[vm.0]
    }

    /// Declares that `[image_offset, image_offset+len)` of `vm`'s image
    /// holds `[content_offset, content_offset+len)` of `content`
    /// (typically an HDFS block file, identical across replicas). In
    /// [`HostCacheMode::Cas`] the binding is recorded cluster-wide (so
    /// migration can replay it) and forwarded to the VM's current host
    /// store; in [`HostCacheMode::Lru`] it is dropped.
    pub fn bind_content(
        &mut self,
        vm: VmId,
        image_offset: u64,
        len: u64,
        content: ContentId,
        content_offset: u64,
    ) {
        if !self.content_addressed() {
            return;
        }
        let obj = self.vms[vm.0].fs.image();
        let host = self.vms[vm.0].host;
        self.bindings
            .entry(obj.raw())
            .or_default()
            .push(ContentBinding {
                image_offset,
                len,
                content,
                content_offset,
            });
        self.hosts[host.0]
            .cache
            .bind(obj, image_offset, len, content, content_offset);
    }

    /// Live-migrates a VM to another host (paper §6: disk images live on
    /// centralized storage — NFS/iSCSI — so any host can serve them).
    /// The VM gets fresh vCPU/vhost threads on the target host; its guest
    /// page cache travels with it (memory is copied by live migration),
    /// while the target host's page cache starts cold for its image. The
    /// image's recorded content bindings (if any, [`HostCacheMode::Cas`])
    /// are replayed into the target host's store, so dedup keeps working
    /// after migration.
    pub fn migrate_vm(&mut self, w: &mut World, vm: VmId, to: HostIx) {
        let from = self.vms[vm.0].host;
        if from == to {
            return;
        }
        let name = self.vms[vm.0].name.clone();
        let host_id = self.hosts[to.0].host;
        let vcpu = w.add_thread(host_id, &format!("{name}/vcpu@{}", to.0));
        let vhost = w.add_thread(host_id, &format!("{name}/vhost@{}", to.0));
        let v = &mut self.vms[vm.0];
        v.host = to;
        v.vcpu = vcpu;
        v.vhost = vhost;
        self.hosts[from.0].vms.retain(|&x| x != vm);
        self.hosts[to.0].vms.push(vm);
        let obj = self.vms[vm.0].fs.image();
        if let Some(binds) = self.bindings.get(&obj.raw()) {
            for b in binds.clone() {
                self.hosts[to.0].cache.bind(
                    obj,
                    b.image_offset,
                    b.len,
                    b.content,
                    b.content_offset,
                );
            }
        }
    }

    /// Clears the guest page cache of a VM (guest `drop_caches`).
    pub fn clear_guest_cache(&mut self, vm: VmId) {
        self.vms[vm.0].cache.clear();
    }

    /// Clears a host's page cache (host `drop_caches`).
    pub fn clear_host_cache(&mut self, host: HostIx) {
        self.hosts[host.0].cache.clear();
    }
}

/// Borrows the cluster out of the world's extension blackboard and runs
/// `f` with simultaneous access to both.
///
/// The cluster stays in its box while out, and the same box goes back,
/// so the round trip moves one pointer and allocates nothing.
///
/// # Panics
///
/// Panics if no [`Cluster`] was installed (scenario builders insert one).
pub fn with_cluster<R>(w: &mut World, f: impl FnOnce(&mut Cluster, &mut World) -> R) -> R {
    let mut cl = w
        .ext
        .take_box::<Cluster>()
        .expect("Cluster not installed in world extensions");
    let r = f(&mut cl, w);
    w.ext.put_box(cl);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_host_topology() {
        let mut w = World::new(1);
        let mut cl = Cluster::new(Costs::default());
        let h1 = cl.add_host(&mut w, "host1", 4, 3.2);
        let h2 = cl.add_host(&mut w, "host2", 4, 3.2);
        let client = cl.add_vm(&mut w, h1, "client");
        let dn1 = cl.add_vm(&mut w, h1, "datanode1");
        let dn2 = cl.add_vm(&mut w, h2, "datanode2");
        assert_eq!(cl.vm(client).host, cl.vm(dn1).host);
        assert_ne!(cl.vm(client).host, cl.vm(dn2).host);
        assert_eq!(cl.hosts[h1.0].vms.len(), 2);
        assert_ne!(cl.vm(client).fs.image(), cl.vm(dn1).fs.image());
        assert_ne!(cl.vm(client).vcpu, cl.vm(client).vhost);
    }

    #[test]
    fn with_cluster_roundtrips() {
        let mut w = World::new(1);
        w.ext.insert(Cluster::new(Costs::default()));
        with_cluster(&mut w, |cl, w| {
            let h = cl.add_host(w, "h", 2, 2.0);
            cl.add_vm(w, h, "vm");
        });
        assert_eq!(w.ext.get::<Cluster>().unwrap().vms.len(), 1);
    }

    #[test]
    fn cas_mode_hosts_dedup_across_images() {
        let mut w = World::new(1);
        let mut cl = Cluster::new(Costs::default());
        cl.set_host_cache_mode(HostCacheMode::Cas);
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let dn1 = cl.add_vm(&mut w, h, "dn1");
        let dn2 = cl.add_vm(&mut w, h, "dn2");
        assert!(cl.content_addressed());
        let cid = ContentId::from_path("/hdfs/data/blk_1");
        cl.bind_content(dn1, 0, 1 << 20, cid, 0);
        cl.bind_content(dn2, 0, 1 << 20, cid, 0);
        let o1 = cl.vm(dn1).fs.image();
        let o2 = cl.vm(dn2).fs.image();
        cl.hosts[h.0].cache.admit(o1, 0, 1 << 20);
        let l = cl.hosts[h.0].cache.lookup(o2, 0, 1 << 20);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.dedup_bytes, 1 << 20);
        assert_eq!(cl.hosts[h.0].cache.used_bytes(), 1 << 20);
        assert_eq!(cl.hosts[h.0].cache.logical_bytes(), 2 << 20);
    }

    #[test]
    fn migration_replays_content_bindings() {
        let mut w = World::new(1);
        let mut cl = Cluster::new(Costs::default());
        cl.set_host_cache_mode(HostCacheMode::Cas);
        let h1 = cl.add_host(&mut w, "h1", 4, 2.0);
        let h2 = cl.add_host(&mut w, "h2", 4, 2.0);
        let dn1 = cl.add_vm(&mut w, h1, "dn1");
        let dn2 = cl.add_vm(&mut w, h2, "dn2");
        let cid = ContentId::from_path("/hdfs/data/blk_9");
        cl.bind_content(dn1, 0, 65536, cid, 0);
        cl.bind_content(dn2, 4096, 65536, cid, 0);
        // dn2's host already holds the content (via dn2's own reads).
        let o2 = cl.vm(dn2).fs.image();
        cl.hosts[h2.0].cache.admit(o2, 4096, 65536);
        // Migrate dn1 to h2; its binding must follow so its reads dedup.
        cl.migrate_vm(&mut w, dn1, h2);
        let o1 = cl.vm(dn1).fs.image();
        let l = cl.hosts[h2.0].cache.lookup(o1, 0, 65536);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.dedup_bytes, 65536);
    }

    /// In [`HostCacheMode::Lru`] no binding reaches a host store, before
    /// or after a migration: co-located replicas of one content id stay
    /// separate copies.
    #[test]
    fn lru_mode_forwards_no_bindings() {
        let mut w = World::new(1);
        let mut cl = Cluster::new(Costs::default());
        assert!(!cl.content_addressed());
        let h1 = cl.add_host(&mut w, "h1", 4, 2.0);
        let h2 = cl.add_host(&mut w, "h2", 4, 2.0);
        let dn1 = cl.add_vm(&mut w, h1, "dn1");
        let dn2 = cl.add_vm(&mut w, h1, "dn2");
        let cid = ContentId::from_path("/hdfs/data/blk_1");
        cl.bind_content(dn1, 0, 1 << 20, cid, 0);
        cl.bind_content(dn2, 0, 1 << 20, cid, 0);
        let o1 = cl.vm(dn1).fs.image();
        let o2 = cl.vm(dn2).fs.image();
        for h in [h1, h2] {
            if h == h2 {
                cl.migrate_vm(&mut w, dn1, h2);
                cl.migrate_vm(&mut w, dn2, h2);
            }
            let store = &mut cl.hosts[h.0].cache;
            store.admit(o1, 0, 1 << 20);
            let l = store.lookup(o2, 0, 1 << 20);
            assert_eq!((l.miss_bytes, l.dedup_bytes), (1 << 20, 0), "host {}", h.0);
            assert_eq!(store.stats().dedup_hits, 0);
            assert_eq!(store.logical_bytes(), store.used_bytes());
        }
    }
}
