//! The HDFS datanode: serves block reads over TCP, accepts the write
//! pipeline, stores blocks as files in its VM's filesystem.
//!
//! The read path is the paper's Figure 1 vanilla flow: each streamed
//! packet is read from the VM's virtual disk through virtio-blk (guest
//! cache → host cache → SSD), processed by the datanode (checksums,
//! packetization — the Java `DataXceiver` costs), and sent back through
//! the virtio-net/vhost connection. Every copy happens on the thread that
//! performs it in a real KVM host, which is what makes the CPU breakdowns
//! of Figure 6 and the 4-VM scheduling collapse of Figure 9 reproducible.

use std::collections::VecDeque;

use vread_host::cluster::{with_cluster, Cluster, VmId};
use vread_host::fs::FileId;
use vread_host::virtio::{guest_disk_read, guest_disk_write};
use vread_net::conn::{add_conn, ConnRecv, ConnSend, ConnSent, ConnSpec, Endpoint, Flavor, Side};
use vread_sim::hash::IdHashMap;
use vread_sim::prelude::*;

use crate::meta::{BlockId, DatanodeIx, HdfsMeta};
use crate::namenode::NnFinalizeBlock;

/// How many chunks a datanode keeps in flight per read stream.
const READ_WINDOW: usize = 4;

/// Control message announcing a block read request about to arrive on
/// `conn` with `tag` (HDFS sends this header inside the TCP stream; we
/// carry it out-of-band next to the costed bytes).
#[derive(Debug, Clone)]
pub struct DnReadReq {
    /// The connection the request (and the response data) travels on.
    pub conn: ActorId,
    /// Stream tag chosen by the client.
    pub tag: u64,
    /// Block to read.
    pub block: BlockId,
    /// Offset within the block.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
    /// Whether a new DataXceiver stream must be set up.
    pub setup: bool,
    /// The client's `block_fetch` span; the datanode parents its
    /// `dn_read` span under it so server-side work lands in the read's
    /// causal tree.
    pub span: SpanId,
}

/// Control message announcing a write chunk about to arrive.
#[derive(Debug, Clone)]
pub struct DnWriteChunk {
    /// The connection the chunk travels on.
    pub conn: ActorId,
    /// Stream tag chosen by the client.
    pub tag: u64,
    /// The file the block belongs to (for namenode finalization).
    pub path: String,
    /// Block being written.
    pub block: BlockId,
    /// Chunk size.
    pub bytes: u64,
    /// Whether this chunk completes the block.
    pub last_of_block: bool,
    /// The full replica pipeline, primary first. Each datanode forwards
    /// the chunk to the replica after itself (HDFS write pipeline).
    pub pipeline: Vec<DatanodeIx>,
}

struct ReadStream {
    conn: ActorId,
    side: Side,
    block: BlockId,
    next_offset: u64,
    remaining: u64,
    inflight: usize,
    setup_pending: bool,
    /// The block's file, looked up by path on the first chunk.
    file: Option<FileId>,
    /// This stream's `dn_read` span.
    span: SpanId,
}

struct WriteStream {
    side: Side,
    queued: VecDeque<DnWriteChunk>,
    /// The block being appended and its file (looked up or created by
    /// path when a chunk of a new block arrives).
    file: Option<(BlockId, FileId)>,
}

struct ChunkRead {
    key: (u32, u64),
    bytes: u64,
}

struct ChunkWritten {
    key: (u32, u64),
    meta: DnWriteChunk,
}

/// The datanode server actor. Create with [`add_datanode`].
pub struct Datanode {
    ix: DatanodeIx,
    vm: VmId,
    pending_reads: IdHashMap<(u32, u64), DnReadReq>,
    reads: IdHashMap<(u32, u64), ReadStream>,
    writes: IdHashMap<(u32, u64), WriteStream>,
    /// Cached pipeline connections to downstream datanodes.
    fwd_conns: IdHashMap<usize, ActorId>,
    /// Forward-stream tags: (upstream conn, upstream tag) -> downstream tag.
    fwd_tags: IdHashMap<(u32, u64), u64>,
    next_tag: u64,
}

/// Creates a datanode actor serving from `vm` and registers it in the
/// [`HdfsMeta`] datanode table.
///
/// # Panics
///
/// Panics if [`HdfsMeta`] is not installed.
pub fn add_datanode(w: &mut World, vm: VmId) -> (ActorId, DatanodeIx) {
    // Reserve the index first so the actor can know its own registration.
    let ix = {
        let meta = w.ext.get_mut::<HdfsMeta>().expect("HdfsMeta not installed");
        DatanodeIx(meta.datanodes.len())
    };
    let actor = w.add_actor(
        "datanode",
        Datanode {
            ix,
            vm,
            pending_reads: IdHashMap::default(),
            reads: IdHashMap::default(),
            writes: IdHashMap::default(),
            fwd_conns: IdHashMap::default(),
            fwd_tags: IdHashMap::default(),
            next_tag: 0,
        },
    );
    let meta = w.ext.get_mut::<HdfsMeta>().expect("HdfsMeta not installed");
    let got = meta.register_datanode(actor, vm);
    debug_assert_eq!(got, ix);
    (actor, ix)
}

/// The cached guest-to-guest connection from `me` in `vm` to datanode
/// `dn`, dialed on first use and kept in `conns`. Client reads, client
/// writes and the write pipeline's forwarding all reach a datanode
/// through here.
pub(crate) fn dial_datanode(
    conns: &mut IdHashMap<usize, ActorId>,
    ctx: &mut Ctx<'_>,
    me: ActorId,
    vm: VmId,
    dn: DatanodeIx,
) -> ActorId {
    if let Some(&c) = conns.get(&dn.0) {
        return c;
    }
    let meta = ctx.world.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
    let d = meta.datanodes[dn.0];
    let conn = with_cluster(ctx.world, |cl, w| {
        let guest = |actor, vm| Endpoint {
            actor,
            flavor: Flavor::Guest(vm),
        };
        let spec = ConnSpec {
            sriov: cl.costs.sriov_nics,
            ..Default::default()
        };
        add_conn(w, cl, guest(me, vm), guest(d.actor, d.vm), spec)
    });
    conns.insert(dn.0, conn);
    conn
}

impl Datanode {
    /// Datanode-side per-chunk processing cost (checksum, packetization,
    /// Java stream machinery).
    fn dn_cycles(cl: &Cluster, bytes: u64) -> u64 {
        let c = &cl.costs;
        (bytes as f64 * c.datanode_cyc_per_byte).round() as u64
            + bytes.div_ceil(c.hdfs_packet_bytes).max(1) * c.datanode_packet_cycles
    }

    fn pump_read(&mut self, key: (u32, u64), ctx: &mut Ctx<'_>) {
        let me = ctx.me();
        let vm = self.vm;
        loop {
            let Some(st) = self.reads.get_mut(&key) else {
                return;
            };
            if st.inflight >= READ_WINDOW || st.remaining == 0 {
                break;
            }
            let offset = st.next_offset;
            let (stages, take) = with_cluster(ctx.world, |cl, _w| {
                let take = st.remaining.min(cl.costs.stream_chunk_bytes);
                let file = match st.file {
                    Some(file) => file,
                    None => {
                        let path = st.block.path();
                        let file = cl
                            .vm(vm)
                            .fs
                            .lookup(&path)
                            .unwrap_or_else(|| panic!("datanode missing block file {path}"));
                        st.file = Some(file);
                        file
                    }
                };
                let mut extents = cl
                    .vm(vm)
                    .fs
                    .cursor(file, offset, take)
                    .expect("block read past end");
                let mut stages = StageList::new();
                while let Some(e) = extents.advance(&cl.vm(vm).fs) {
                    stages.extend(guest_disk_read(
                        cl,
                        vm,
                        e.image_offset,
                        e.len,
                        CpuCategory::DatanodeApp,
                    ));
                }
                let vcpu = cl.vm(vm).vcpu;
                let setup_cycles = if st.setup_pending {
                    cl.costs.dn_stream_setup_cycles
                } else {
                    0
                };
                stages.push(Stage::cpu(
                    vcpu,
                    Self::dn_cycles(cl, take) + setup_cycles,
                    CpuCategory::DatanodeApp,
                ));
                (stages, take)
            });
            st.setup_pending = false;
            st.next_offset += take;
            st.remaining -= take;
            st.inflight += 1;
            let span = st.span;
            ctx.chain_on(stages, me, ChunkRead { key, bytes: take }, span);
        }
    }
}

impl Actor for Datanode {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        // -- control side-channels -----------------------------------------
        let msg = match downcast::<DnReadReq>(msg) {
            Ok(req) => {
                self.pending_reads.insert((req.conn.raw(), req.tag), *req);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<DnWriteChunk>(msg) {
            Ok(wc) => {
                let key = (wc.conn.raw(), wc.tag);
                self.writes
                    .entry(key)
                    .or_insert_with(|| WriteStream {
                        side: Side::B, // fixed up on first ConnRecv
                        queued: VecDeque::new(),
                        file: None,
                    })
                    .queued
                    .push_back(*wc);
                return;
            }
            Err(m) => m,
        };

        // -- costed arrivals -------------------------------------------------
        let msg = match downcast::<ConnRecv>(msg) {
            Ok(r) => {
                let key = (r.conn.raw(), r.tag);
                if let Some(req) = self.pending_reads.remove(&key) {
                    // The read request header arrived: start streaming.
                    let now = ctx.now();
                    let span = ctx.world.spans.start("dn_read", req.span, now);
                    self.reads.insert(
                        key,
                        ReadStream {
                            conn: r.conn,
                            side: r.side,
                            block: req.block,
                            next_offset: req.offset,
                            remaining: req.len,
                            inflight: 0,
                            setup_pending: req.setup,
                            file: None,
                            span,
                        },
                    );
                    self.pump_read(key, ctx);
                } else if self.writes.contains_key(&key) {
                    // A write chunk arrived: append + write through virtio-blk.
                    let me = ctx.me();
                    let (stages, meta) = {
                        let st = self.writes.get_mut(&key).expect("just checked");
                        st.side = r.side;
                        let meta = st
                            .queued
                            .pop_front()
                            .expect("write chunk arrived without header");
                        let vm = self.vm;
                        let stages = with_cluster(ctx.world, |cl, _w| {
                            let fs = &mut cl.vm_mut(vm).fs;
                            let file = match st.file {
                                Some((block, file)) if block == meta.block => file,
                                _ => {
                                    let path = meta.block.path();
                                    let file = match fs.lookup(&path) {
                                        Some(f) => f,
                                        None => fs.create(&path).expect("fresh block file"),
                                    };
                                    st.file = Some((meta.block, file));
                                    file
                                }
                            };
                            let ext = fs.append(file, meta.bytes);
                            let mut stages = guest_disk_write(
                                cl,
                                vm,
                                ext.image_offset,
                                meta.bytes,
                                CpuCategory::DatanodeApp,
                            );
                            let vcpu = cl.vm(vm).vcpu;
                            stages.push(Stage::cpu(
                                vcpu,
                                Self::dn_cycles(cl, meta.bytes),
                                CpuCategory::DatanodeApp,
                            ));
                            stages
                        });
                        (stages, meta)
                    };
                    ctx.chain(stages, me, ChunkWritten { key, meta });
                }
                return;
            }
            Err(m) => m,
        };

        // -- chunk completions -------------------------------------------------
        let msg = match downcast::<ChunkRead>(msg) {
            Ok(cr) => {
                let st = self.reads.get(&cr.key).expect("stream vanished");
                ctx.send(
                    st.conn,
                    ConnSend {
                        dir: st.side,
                        bytes: cr.bytes,
                        tag: cr.key.1,
                        notify: true,
                        span: st.span,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<ChunkWritten>(msg) {
            Ok(cw) => {
                let key = cw.key;
                let side = self.writes.get(&key).expect("write stream vanished").side;
                // Ack the chunk back upstream (small frame).
                ctx.send(
                    ActorId::from_raw(key.0),
                    ConnSend {
                        dir: side,
                        bytes: 64,
                        tag: key.1,
                        notify: false,
                        span: SpanId::NONE,
                    },
                );
                // Forward down the replica pipeline.
                let my_pos = cw.meta.pipeline.iter().position(|&d| d == self.ix);
                let next = my_pos.and_then(|p| cw.meta.pipeline.get(p + 1)).copied();
                if let Some(next) = next {
                    let me = ctx.me();
                    let conn = dial_datanode(&mut self.fwd_conns, ctx, me, self.vm, next);
                    let fwd_tag = *self.fwd_tags.entry(key).or_insert_with(|| {
                        self.next_tag += 1;
                        // disambiguate streams from different upstreams
                        (self.ix.0 as u64) << 48 | self.next_tag
                    });
                    let next_actor =
                        ctx.world.ext.get::<HdfsMeta>().expect("meta").datanodes[next.0].actor;
                    ctx.send(
                        next_actor,
                        DnWriteChunk {
                            conn,
                            tag: fwd_tag,
                            path: cw.meta.path.clone(),
                            block: cw.meta.block,
                            bytes: cw.meta.bytes,
                            last_of_block: cw.meta.last_of_block,
                            pipeline: cw.meta.pipeline.clone(),
                        },
                    );
                    ctx.send(
                        conn,
                        ConnSend {
                            dir: Side::A,
                            bytes: cw.meta.bytes,
                            tag: fwd_tag,
                            notify: false,
                            span: SpanId::NONE,
                        },
                    );
                }
                // The primary reports finalization (with the whole
                // pipeline) once its local copy is complete.
                if cw.meta.last_of_block && my_pos == Some(0) {
                    let (len, nn) = with_cluster(ctx.world, |cl, w| {
                        let fs = &cl.vm(self.vm).fs;
                        let f = fs.lookup(&cw.meta.block.path()).expect("finalized block");
                        let meta = w.ext.get::<HdfsMeta>().expect("meta");
                        (fs.size(f), meta.namenode)
                    });
                    if let Some(nn) = nn {
                        ctx.send(
                            nn,
                            NnFinalizeBlock {
                                path: cw.meta.path.clone(),
                                block: cw.meta.block,
                                replicas: cw.meta.pipeline.clone(),
                                len,
                            },
                        );
                    }
                }
                return;
            }
            Err(m) => m,
        };

        // -- send-window acks ---------------------------------------------------
        if let Ok(sent) = downcast::<ConnSent>(msg) {
            let key = (sent.conn.raw(), sent.tag);
            let mut finished = false;
            if let Some(st) = self.reads.get_mut(&key) {
                st.inflight -= 1;
                finished = st.remaining == 0 && st.inflight == 0;
            }
            if finished {
                let st = self.reads.remove(&key).expect("just checked");
                let now = ctx.now();
                ctx.world.spans.end(st.span, now);
            } else {
                self.pump_read(key, ctx);
            }
        }
    }
}
