//! The HDFS namenode: block lookups, allocation, finalization,
//! new-block notifications.
//!
//! The namenode is an actor whose state is the shared [`HdfsMeta`]. Every
//! RPC costs [`vread_host::Costs::namenode_rpc_cycles`] on the vCPU of the
//! VM hosting the namenode (the paper co-locates it with the client VM).
//! When a block is finalized it notifies all registered observers — this
//! is the hook the vRead daemon uses to refresh its mounted view of the
//! datanode's disk image (`vRead_update`, §3.2 of the paper).

use vread_host::cluster::Cluster;
use vread_sim::prelude::*;

use crate::meta::{BlockId, DatanodeIx, HdfsMeta, LocatedBlock};

/// RPC: fetch the located blocks of `path`.
#[derive(Debug, Clone)]
pub struct NnGetLocations {
    /// Where to deliver [`NnLocations`].
    pub reply_to: ActorId,
    /// Caller token, echoed back.
    pub token: u64,
    /// File path.
    pub path: String,
}

/// Reply to [`NnGetLocations`].
#[derive(Debug, Clone)]
pub struct NnLocations {
    /// Caller token.
    pub token: u64,
    /// The file's blocks, or `None` if the file does not exist.
    pub blocks: Option<Vec<LocatedBlock>>,
}

/// RPC: allocate a new block for an output stream on `path`.
#[derive(Debug, Clone)]
pub struct NnAddBlock {
    /// Where to deliver [`NnBlockAllocated`].
    pub reply_to: ActorId,
    /// Caller token, echoed back.
    pub token: u64,
    /// File being written.
    pub path: String,
    /// The writer's VM (for topology-aware placement).
    pub client_vm: vread_host::cluster::VmId,
}

/// Reply to [`NnAddBlock`].
#[derive(Debug, Clone)]
pub struct NnBlockAllocated {
    /// Caller token.
    pub token: u64,
    /// New block id.
    pub block: BlockId,
    /// Chosen replica datanodes, primary first.
    pub replicas: Vec<DatanodeIx>,
    /// Capacity of the block (the configured block size).
    pub capacity: u64,
}

/// Notification: a datanode finished writing `block` of `path`.
#[derive(Debug, Clone)]
pub struct NnFinalizeBlock {
    /// File the block belongs to.
    pub path: String,
    /// The finalized block.
    pub block: BlockId,
    /// The datanodes holding it, primary first (the write pipeline).
    pub replicas: Vec<DatanodeIx>,
    /// Final length.
    pub len: u64,
}

/// Broadcast to observers when a block becomes readable.
#[derive(Debug, Clone, Copy)]
pub struct BlockAdded {
    /// The datanode that stored the block.
    pub dn: DatanodeIx,
    /// The new block.
    pub block: BlockId,
}

/// The namenode actor. Register with [`add_namenode`].
pub struct Namenode {
    rr: usize,
}

/// Creates the namenode actor for the VM recorded in
/// [`HdfsMeta::namenode_vm`] and stores its address in the metadata.
///
/// # Panics
///
/// Panics if [`HdfsMeta`] is not installed in the world extensions.
pub fn add_namenode(w: &mut World) -> ActorId {
    let nn = w.add_actor("namenode", Namenode { rr: 0 });
    w.ext
        .get_mut::<HdfsMeta>()
        .expect("HdfsMeta not installed")
        .namenode = Some(nn);
    nn
}

impl Namenode {
    /// The vCPU thread the namenode's work runs on.
    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        let meta = ctx.world.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
        let vm = meta.namenode_vm.expect("namenode VM not set");
        let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
        cl.vm(vm).vcpu
    }

    /// Chooses replicas for a new block: with topology awareness the
    /// primary is a datanode co-located with the writer; remaining
    /// replicas round-robin across the other datanodes.
    fn place(
        &mut self,
        meta: &HdfsMeta,
        cl: &Cluster,
        client_vm: vread_host::cluster::VmId,
    ) -> Vec<DatanodeIx> {
        let n = meta.datanodes.len();
        assert!(n > 0, "no datanodes registered");
        let client_host = cl.vm(client_vm).host;
        let mut order: Vec<DatanodeIx> = Vec::with_capacity(meta.replication.max(1));
        if let Some(forced) = meta.forced_primary {
            order.push(forced);
        }
        if order.is_empty() && meta.topology_aware {
            if let Some(ix) = meta
                .datanodes
                .iter()
                .position(|d| cl.vm(d.vm).host == client_host)
            {
                order.push(DatanodeIx(ix));
            }
        }
        let mut i = self.rr;
        while order.len() < meta.replication.max(1).min(n) {
            let cand = DatanodeIx(i % n);
            i += 1;
            if !order.contains(&cand) {
                order.push(cand);
            }
        }
        self.rr = i % n.max(1);
        order
    }
}

impl Actor for Namenode {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        let rpc_cycles = {
            let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
            cl.costs.namenode_rpc_cycles
        };
        let vcpu = self.vcpu(ctx);

        let msg = match downcast::<NnGetLocations>(msg) {
            Ok(req) => {
                let blocks = ctx
                    .world
                    .ext
                    .get::<HdfsMeta>()
                    .expect("HdfsMeta missing")
                    .file(&req.path)
                    .map(|f| f.blocks.clone());
                ctx.chain(
                    Stage::cpu(vcpu, rpc_cycles, CpuCategory::Namenode),
                    req.reply_to,
                    NnLocations {
                        token: req.token,
                        blocks,
                    },
                );
                return;
            }
            Err(m) => m,
        };

        let msg = match downcast::<NnAddBlock>(msg) {
            Ok(req) => {
                let (block, replicas, capacity) = {
                    // Immutable topology reads first, then the mutation.
                    let replicas = {
                        let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                        let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                        self.place(meta, cl, req.client_vm)
                    };
                    let meta = ctx.world.ext.get_mut::<HdfsMeta>().expect("meta");
                    (meta.alloc_block(), replicas, meta.block_bytes)
                };
                ctx.chain(
                    Stage::cpu(vcpu, rpc_cycles, CpuCategory::Namenode),
                    req.reply_to,
                    NnBlockAllocated {
                        token: req.token,
                        block,
                        replicas,
                        capacity,
                    },
                );
                return;
            }
            Err(m) => m,
        };

        if let Ok(fin) = downcast::<NnFinalizeBlock>(msg) {
            let observers = {
                let meta = ctx.world.ext.get_mut::<HdfsMeta>().expect("meta");
                let offset = meta.file(&fin.path).map(|f| f.size()).unwrap_or(0);
                meta.add_block(
                    &fin.path,
                    LocatedBlock {
                        block: fin.block,
                        offset,
                        len: fin.len,
                        replicas: fin.replicas.clone(),
                    },
                );
                meta.observers.clone()
            };
            // Namenode CPU for the block report, then fan out one
            // notification per replica location (the vRead daemons'
            // mount-refresh trigger).
            let me = ctx.me();
            ctx.chain(Stage::cpu(vcpu, rpc_cycles, CpuCategory::Namenode), me, ());
            for obs in observers {
                for &dn in &fin.replicas {
                    ctx.send(
                        obs,
                        BlockAdded {
                            dn,
                            block: fin.block,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_host::costs::Costs;

    struct Capture {
        got: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    }
    impl Actor for Capture {
        fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
            let msg = match downcast::<NnLocations>(msg) {
                Ok(l) => {
                    self.got
                        .borrow_mut()
                        .push(format!("loc:{}", l.blocks.map(|b| b.len()).unwrap_or(0)));
                    return;
                }
                Err(m) => m,
            };
            let msg = match downcast::<NnBlockAllocated>(msg) {
                Ok(a) => {
                    self.got
                        .borrow_mut()
                        .push(format!("alloc:{}:{}", a.block.0, a.replicas.len()));
                    return;
                }
                Err(m) => m,
            };
            if let Ok(b) = downcast::<BlockAdded>(msg) {
                self.got.borrow_mut().push(format!("added:{}", b.block.0));
            }
        }
    }

    fn setup() -> (World, ActorId, std::rc::Rc<std::cell::RefCell<Vec<String>>>) {
        let mut w = World::new(3);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let client_vm = cl.add_vm(&mut w, h, "client");
        let dn_vm = cl.add_vm(&mut w, h, "dn");
        let mut meta = HdfsMeta::new();
        meta.namenode_vm = Some(client_vm);
        // a dummy datanode registration (actor id unused here)
        meta.register_datanode(ActorId::from_raw(999), dn_vm);
        w.ext.insert(cl);
        w.ext.insert(meta);
        let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        let cap = w.add_actor("cap", Capture { got: got.clone() });
        let nn = add_namenode(&mut w);
        let _ = (client_vm, dn_vm);
        (w, nn, got_with(cap, got))
    }

    fn got_with(
        _cap: ActorId,
        got: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    ) -> std::rc::Rc<std::cell::RefCell<Vec<String>>> {
        got
    }

    #[test]
    fn lookup_missing_file_returns_none() {
        let (mut w, nn, got) = setup();
        let cap = ActorId::from_raw(0); // Capture was the first actor added
        w.send_now(
            nn,
            NnGetLocations {
                reply_to: cap,
                token: 1,
                path: "/nope".into(),
            },
        );
        w.run();
        assert_eq!(got.borrow().as_slice(), ["loc:0"]);
    }

    #[test]
    fn allocate_finalize_then_lookup_and_notify() {
        let (mut w, nn, got) = setup();
        let cap = ActorId::from_raw(0);
        // vRead daemons subscribe as observers
        w.ext.get_mut::<HdfsMeta>().unwrap().observers.push(cap);
        let client_vm = vread_host::cluster::VmId(0);
        w.send_now(
            nn,
            NnAddBlock {
                reply_to: cap,
                token: 2,
                path: "/f".into(),
                client_vm,
            },
        );
        w.run();
        assert_eq!(got.borrow().as_slice(), ["alloc:1:1"]);
        w.send_now(
            nn,
            NnFinalizeBlock {
                path: "/f".into(),
                block: BlockId(1),
                replicas: vec![DatanodeIx(0)],
                len: 4096,
            },
        );
        w.send_now(
            nn,
            NnGetLocations {
                reply_to: cap,
                token: 3,
                path: "/f".into(),
            },
        );
        w.run();
        assert_eq!(got.borrow().as_slice(), ["alloc:1:1", "added:1", "loc:1"]);
        let meta = w.ext.get::<HdfsMeta>().unwrap();
        assert_eq!(meta.file("/f").unwrap().size(), 4096);
    }
}
