//! The HDFS client (`DFSClient`): file reads and the write output stream.
//!
//! Reads follow the paper's Algorithms 1 and 2: an application request is
//! mapped onto the file's located blocks (`getRangeBlock`), each block
//! part is fetched from a chosen replica (co-located preferred, as in
//! HVE), and the client charges its DFSInputStream processing per arriving
//! chunk. *How* a block part is fetched is delegated to a
//! [`BlockReadPath`]: [`VanillaPath`] streams through the datanode over
//! virtio-net TCP (Figure 1), while `vread-core` provides the vRead path
//! that replaces `read_buffer`/`fetchBlocks` with `vRead_read` and falls
//! back to vanilla when no descriptor can be opened.

use std::collections::HashMap;

use vread_host::cluster::{Cluster, VmId};
use vread_net::conn::{ConnRecv, ConnSend, Side};
use vread_sim::hash::{IdHashMap, IdHashSet};
use vread_sim::prelude::*;

use crate::datanode::{dial_datanode, DnReadReq, DnWriteChunk};
use crate::meta::{BlockId, DatanodeIx, HdfsMeta, LocatedBlock};
use crate::namenode::{NnAddBlock, NnBlockAllocated, NnGetLocations, NnLocations};

/// Size of a block-read request header on the wire.
const READ_REQUEST_BYTES: u64 = 256;
/// Write pipeline window (chunks in flight).
const WRITE_WINDOW: usize = 4;

// ---------------------------------------------------------------------------
// Application-facing messages
// ---------------------------------------------------------------------------

/// Application request: read `len` bytes at `offset` of `path`.
#[derive(Debug, Clone)]
pub struct DfsRead {
    /// Caller-chosen request id, echoed in [`DfsReadDone`].
    pub req: u64,
    /// Where to deliver the completion.
    pub reply_to: ActorId,
    /// File path.
    pub path: String,
    /// Byte offset.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
    /// Positional read (the paper's `read2`): forces a fresh block
    /// stream (BlockReader/DataXceiver setup) instead of continuing a
    /// sequential stream (`read1`).
    pub pread: bool,
}

/// Completion of a [`DfsRead`].
#[derive(Debug, Clone, Copy)]
pub struct DfsReadDone {
    /// Caller's request id.
    pub req: u64,
    /// Bytes actually delivered (less than requested at end of file; 0 if
    /// the file does not exist).
    pub bytes: u64,
}

/// Application request: append `bytes` to `path` (creating it), then
/// close — partial blocks are finalized.
#[derive(Debug, Clone)]
pub struct DfsWrite {
    /// Caller-chosen request id, echoed in [`DfsWriteDone`].
    pub req: u64,
    /// Where to deliver the completion.
    pub reply_to: ActorId,
    /// File path.
    pub path: String,
    /// Bytes to append.
    pub bytes: u64,
}

/// Completion of a [`DfsWrite`] (all chunks acked by the datanode).
#[derive(Debug, Clone, Copy)]
pub struct DfsWriteDone {
    /// Caller's request id.
    pub req: u64,
}

// ---------------------------------------------------------------------------
// Block read-path plug-in interface
// ---------------------------------------------------------------------------

/// Context the read path needs about its client.
#[derive(Debug, Clone, Copy)]
pub struct ClientShared {
    /// The client actor (destination for the path's async messages).
    pub me: ActorId,
    /// The client VM.
    pub vm: VmId,
}

/// One block-part fetch issued by the client.
#[derive(Debug, Clone, Copy)]
pub struct BlockReq {
    /// Client-unique token for this fetch.
    pub token: u64,
    /// Replica to read from.
    pub dn: DatanodeIx,
    /// The block.
    pub block: BlockId,
    /// Offset within the block.
    pub offset: u64,
    /// Bytes to fetch.
    pub len: u64,
    /// Positional read: a fresh stream must be set up.
    pub pread: bool,
    /// The `block_fetch` span this fetch works under ([`SpanId::NONE`]
    /// when spans are off). Paths thread it into every chain and wire
    /// message they issue for the fetch.
    pub span: SpanId,
}

/// Events a [`BlockReadPath`] reports back to the client.
#[derive(Debug, Clone, Copy)]
pub enum PathEvent {
    /// `bytes` of payload arrived for fetch `token`.
    Chunk {
        /// Fetch token.
        token: u64,
        /// Chunk size.
        bytes: u64,
    },
    /// Fetch `token` delivered all its bytes.
    Done {
        /// Fetch token.
        token: u64,
    },
}

/// What the client should do about a stalled fetch, as diagnosed by the
/// active [`BlockReadPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutAdvice {
    /// The replica itself is suspect: mark it and fail over to another
    /// replica (vanilla HDFS semantics).
    TryReplica,
    /// The transfer path — not the replica — is degraded (e.g. the vRead
    /// daemon died mid-stream): retry the *same* replica and let the
    /// path fall back internally. Crucially this never abandons a block
    /// whose only replica is healthy.
    PathDegraded,
}

/// Strategy for fetching one block part. Implemented by [`VanillaPath`]
/// (datanode TCP streaming) and by `vread-core`'s vRead path.
pub trait BlockReadPath: 'static {
    /// Short name for diagnostics ("vanilla", "vread").
    fn name(&self) -> &'static str;

    /// Client-side (DFSInputStream) processing cost per byte for data
    /// fetched through this path. The vanilla path pays the full HDFS
    /// packet/checksum machinery; vRead bypasses it.
    fn client_cyc_per_byte(&self, costs: &vread_host::Costs) -> f64 {
        costs.client_cyc_per_byte
    }

    /// Begins fetching `req`, pushing any immediately-available events.
    fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        req: BlockReq,
        out: &mut Vec<PathEvent>,
    );

    /// Offers the path a message addressed to the client actor. Returns
    /// `Err(msg)` if the message is not for this path.
    ///
    /// # Errors
    ///
    /// The unconsumed message is handed back for other handlers.
    fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        msg: BoxMsg,
        out: &mut Vec<PathEvent>,
    ) -> Result<(), BoxMsg>;

    /// Abandons an in-flight fetch (timeout / failover). Late data for
    /// the token must be dropped, not reported.
    fn cancel(&mut self, token: u64) {
        let _ = token;
    }

    /// Diagnoses a stalled fetch before the client reacts. The default
    /// blames the replica; paths with their own transfer machinery
    /// (vRead) override this to blame the path when the replica's data
    /// is still reachable.
    fn on_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        token: u64,
    ) -> TimeoutAdvice {
        let _ = (ctx, shared, token);
        TimeoutAdvice::TryReplica
    }
}

// ---------------------------------------------------------------------------
// The vanilla path: stream from the datanode over virtio-net TCP
// ---------------------------------------------------------------------------

struct VStream {
    expected: u64,
    got: u64,
}

/// The unmodified HDFS read path of Figure 1.
#[derive(Default)]
pub struct VanillaPath {
    conns: IdHashMap<usize, ActorId>,
    streams: IdHashMap<u64, VStream>,
    /// Sequential-stream positions per `(datanode, block)`: a fetch that
    /// continues where the previous one ended rides the existing
    /// DataXceiver stream (read1); anything else pays stream setup.
    positions: IdHashMap<(usize, u64), u64>,
}

impl VanillaPath {
    /// Creates the path with no open connections.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockReadPath for VanillaPath {
    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn cancel(&mut self, token: u64) {
        self.streams.remove(&token);
    }

    fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        req: BlockReq,
        _out: &mut Vec<PathEvent>,
    ) {
        let conn = dial_datanode(&mut self.conns, ctx, shared.me, shared.vm, req.dn);
        let dn_actor = ctx.world.ext.get::<HdfsMeta>().expect("meta").datanodes[req.dn.0].actor;
        let key = (req.dn.0, req.block.0);
        let setup = req.pread || self.positions.get(&key) != Some(&req.offset);
        self.positions.insert(key, req.offset + req.len);
        self.streams.insert(
            req.token,
            VStream {
                expected: req.len,
                got: 0,
            },
        );
        // Out-of-band header + costed request bytes on the wire.
        ctx.send(
            dn_actor,
            DnReadReq {
                conn,
                tag: req.token,
                block: req.block,
                offset: req.offset,
                len: req.len,
                setup,
                span: req.span,
            },
        );
        let send = ConnSend {
            dir: Side::A,
            bytes: READ_REQUEST_BYTES,
            tag: req.token,
            notify: false,
            span: req.span,
        };
        if setup {
            // New BlockReader: client-side stream setup before the wire
            // request goes out.
            let (vcpu, cycles) = {
                let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                (cl.vm(shared.vm).vcpu, cl.costs.client_stream_setup_cycles)
            };
            ctx.chain_on(
                Stage::cpu(vcpu, cycles, CpuCategory::ClientApp),
                conn,
                send,
                req.span,
            );
        } else {
            ctx.send(conn, send);
        }
    }

    fn on_msg(
        &mut self,
        _ctx: &mut Ctx<'_>,
        _shared: &ClientShared,
        msg: BoxMsg,
        out: &mut Vec<PathEvent>,
    ) -> Result<(), BoxMsg> {
        let Some(&ConnRecv { tag, bytes, .. }) = msg.downcast_ref::<ConnRecv>() else {
            return Err(msg);
        };
        let Some(st) = self.streams.get_mut(&tag) else {
            return Err(msg);
        };
        st.got += bytes;
        out.push(PathEvent::Chunk { token: tag, bytes });
        if st.got >= st.expected {
            self.streams.remove(&tag);
            out.push(PathEvent::Done { token: tag });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The client actor
// ---------------------------------------------------------------------------

struct ReadReq {
    app: ActorId,
    req: u64,
    offset: u64,
    len: u64,
    pread: bool,
    blocks: Vec<LocatedBlock>,
    cur_block: usize,
    expected: u64,
    bytes_done: u64,
    processing: u64,
    all_sent: bool,
    path: String,
    /// Active fetch (for timeout tracking).
    cur_token: Option<u64>,
    /// The replica the active fetch targets (so a timeout knows exactly
    /// whom to blame instead of re-deriving the choice).
    cur_dn: Option<DatanodeIx>,
    /// Replicas already tried for the current block.
    tried: Vec<DatanodeIx>,
    /// Bytes of the *current block part* already delivered (failover
    /// retries resume after them instead of re-reading the part).
    part_received: u64,
    /// Consecutive timeouts without a completed part (drives the
    /// exponential retry backoff; reset when a part completes).
    timeouts: u32,
    /// The read's one timer: the active fetch's [`FetchTimeout`]
    /// watchdog, or the [`RetryFetch`] backoff after a stall. A finished
    /// fetch disarms it, so no stale watchdog waits in the event queue.
    timer: TimerSlot,
    /// Root `read` span for this request.
    span: SpanId,
    /// `block_fetch` child span of the active fetch.
    cur_span: SpanId,
    /// When the request arrived (timeline read-latency observation).
    started: SimTime,
}

/// Internal watchdog for a block fetch.
struct FetchTimeout {
    rid: u64,
    token: u64,
    progress_mark: u64,
}

/// Internal timer: retry a stalled read after its backoff expires.
struct RetryFetch {
    rid: u64,
}

struct CurBlock {
    block: BlockId,
    conn: ActorId,
    dn: DatanodeIx,
    pipeline: Vec<DatanodeIx>,
    tag: u64,
    written: u64,
    capacity: u64,
}

struct WriteReq {
    app: ActorId,
    req: u64,
    path: String,
    remaining: u64,
    block: Option<CurBlock>,
    inflight: usize,
    awaiting_alloc: bool,
}

struct ChunkCpu {
    rid: u64,
    token: u64,
    bytes: u64,
}

struct WriteCpu {
    rid: u64,
    bytes: u64,
    last_of_block: bool,
    conn: ActorId,
    tag: u64,
    block: BlockId,
    dn: DatanodeIx,
    pipeline: Vec<DatanodeIx>,
}

/// The DFSClient actor. Create with [`add_client`].
pub struct DfsClient {
    vm: VmId,
    path_impl: Box<dyn BlockReadPath>,
    next_id: u64,
    /// Keyed by file paths from the scenario, not simulator ids, so it
    /// keeps std's collision-resistant hasher.
    loc_cache: HashMap<String, Vec<LocatedBlock>>,
    reads: IdHashMap<u64, ReadReq>,
    tokens: std::collections::BTreeMap<u64, u64>,
    nn_tokens: IdHashMap<u64, u64>,
    writes: IdHashMap<u64, WriteReq>,
    write_tags: IdHashMap<u64, u64>,
    write_conns: IdHashMap<usize, ActorId>,
    /// Datanodes that timed out on us (crashed or unreachable). Replica
    /// selection avoids them while any alternative exists, but still
    /// retries them as a last resort — never silently dropping data.
    dead_nodes: IdHashSet<usize>,
    /// Scratch buffer for the events a read path reports, reused so a
    /// chunk arrival allocates nothing (empty while lent out).
    events: Vec<PathEvent>,
    m_bytes_read: LazyCounter,
    /// Bytes delivered inside the [`vread_sim::fault::FaultTrace`]
    /// window (fault runs only).
    m_fault_window_bytes: LazyCounter,
    /// Level gauge of in-flight `DfsRead` requests (timeline source).
    m_outstanding: LazyGauge,
}

/// Creates a DFSClient in `vm` using the given block read path.
pub fn add_client(w: &mut World, vm: VmId, path_impl: Box<dyn BlockReadPath>) -> ActorId {
    w.add_actor(
        "dfs-client",
        DfsClient {
            vm,
            path_impl,
            next_id: 0,
            loc_cache: HashMap::new(),
            reads: IdHashMap::default(),
            tokens: std::collections::BTreeMap::new(),
            nn_tokens: IdHashMap::default(),
            writes: IdHashMap::default(),
            write_tags: IdHashMap::default(),
            write_conns: IdHashMap::default(),
            dead_nodes: IdHashSet::default(),
            events: Vec::new(),
            m_bytes_read: LazyCounter::new("hdfs_bytes_read"),
            m_fault_window_bytes: LazyCounter::new("fault_window_read_bytes"),
            m_outstanding: LazyGauge::new("hdfs.outstanding_reads"),
        },
    )
}

impl DfsClient {
    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn shared(&self, ctx: &Ctx<'_>) -> ClientShared {
        ClientShared {
            me: ctx.me(),
            vm: self.vm,
        }
    }

    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        ctx.world
            .ext
            .get::<Cluster>()
            .expect("Cluster missing")
            .vm(self.vm)
            .vcpu
    }

    fn client_cycles(&self, ctx: &Ctx<'_>, bytes: u64) -> u64 {
        let c = &ctx
            .world
            .ext
            .get::<Cluster>()
            .expect("Cluster missing")
            .costs;
        (bytes as f64 * self.path_impl.client_cyc_per_byte(c)).round() as u64
            + bytes.div_ceil(c.hdfs_packet_bytes).max(1) * 2_000
    }

    /// Write-side client cost (always the vanilla stack).
    fn write_cycles(ctx: &Ctx<'_>, bytes: u64) -> u64 {
        let c = &ctx
            .world
            .ext
            .get::<Cluster>()
            .expect("Cluster missing")
            .costs;
        (bytes as f64 * c.client_cyc_per_byte).round() as u64
            + bytes.div_ceil(c.hdfs_packet_bytes).max(1) * 2_000
    }

    /// Starts the fetch of the current block part of read `rid`.
    fn start_block(&mut self, ctx: &mut Ctx<'_>, rid: u64) {
        let shared = self.shared(ctx);
        let (req, done) = {
            let r = self.reads.get_mut(&rid).expect("read vanished");
            if r.cur_block >= r.blocks.len() {
                r.all_sent = true;
                (None, true)
            } else {
                let lb = &r.blocks[r.cur_block];
                // resume after any bytes the previous attempt delivered
                let start = r.offset.max(lb.offset) + r.part_received;
                let end = (r.offset + r.len).min(lb.offset + lb.len);
                debug_assert!(start <= end, "part resume past its end");
                let token = {
                    // allocate inline to avoid double borrow
                    self.next_id += 1;
                    self.next_id
                };
                let r = self.reads.get_mut(&rid).expect("read vanished");
                let lb = &r.blocks[r.cur_block];
                // pick a replica not yet tried for this block (co-located
                // preferred, known-dead nodes last); if every replica
                // timed out, give the part up.
                let dn = {
                    let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    let my_host = cl.vm(self.vm).host;
                    let tried = &r.tried;
                    let dead = &self.dead_nodes;
                    let mut candidates: Vec<DatanodeIx> = lb
                        .replicas
                        .iter()
                        .copied()
                        .filter(|d| !tried.contains(d))
                        .collect();
                    candidates.sort_by_key(|&d| {
                        let remote = cl.vm(meta.datanodes[d.0].vm).host != my_host;
                        (dead.contains(&d.0), meta.topology_aware && remote)
                    });
                    candidates.first().copied()
                };
                let Some(dn) = dn else {
                    // no replica left: abandon this block part
                    r.part_received = 0;
                    r.cur_block += 1;
                    let give_up = r.cur_block >= r.blocks.len();
                    if give_up {
                        r.all_sent = true;
                        let _ = r;
                        self.maybe_finish_read(ctx, rid);
                        return;
                    }
                    r.tried.clear();
                    let _ = r;
                    self.start_block(ctx, rid);
                    return;
                };
                self.tokens.insert(token, rid);
                let pread = r.pread;
                r.cur_token = Some(token);
                r.cur_dn = Some(dn);
                let parent = r.span;
                let now = ctx.now();
                let bspan = ctx.world.spans.start("block_fetch", parent, now);
                r.cur_span = bspan;
                let mark = r.bytes_done;
                let timeout_ms = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    cl.costs.client_read_timeout_ms
                };
                ctx.arm_timer(
                    r.timer,
                    FetchTimeout {
                        rid,
                        token,
                        progress_mark: mark,
                    },
                    vread_sim::SimDuration::from_millis(timeout_ms),
                );
                let lb = &r.blocks[r.cur_block];
                (
                    Some(BlockReq {
                        token,
                        dn,
                        block: lb.block,
                        offset: start - lb.offset,
                        len: end - start,
                        pread,
                        span: bspan,
                    }),
                    false,
                )
            }
        };
        if let Some(req) = req {
            let mut out = std::mem::take(&mut self.events);
            self.path_impl.start(ctx, &shared, req, &mut out);
            self.process_events(ctx, &mut out);
            self.events = out;
        } else if done {
            self.maybe_finish_read(ctx, rid);
        }
    }

    /// Acts on (and drains) the events a read path reported.
    fn process_events(&mut self, ctx: &mut Ctx<'_>, events: &mut Vec<PathEvent>) {
        for ev in events.drain(..) {
            match ev {
                PathEvent::Chunk { token, bytes } => {
                    let Some(&rid) = self.tokens.get(&token) else {
                        continue;
                    };
                    let mut span = SpanId::NONE;
                    if let Some(r) = self.reads.get_mut(&rid) {
                        r.processing += 1;
                        span = r.span;
                    }
                    let vcpu = self.vcpu(ctx);
                    let cycles = self.client_cycles(ctx, bytes);
                    let me = ctx.me();
                    ctx.chain_on(
                        Stage::cpu(vcpu, cycles, CpuCategory::ClientApp),
                        me,
                        ChunkCpu { rid, token, bytes },
                        span,
                    );
                }
                PathEvent::Done { token } => {
                    let Some(&rid) = self.tokens.get(&token) else {
                        continue;
                    };
                    let (advance, bspan) = {
                        let r = self.reads.get_mut(&rid).expect("read vanished");
                        r.cur_token = None;
                        r.cur_dn = None;
                        r.tried.clear();
                        r.part_received = 0;
                        r.timeouts = 0;
                        r.cur_block += 1;
                        ctx.disarm_timer(r.timer);
                        let bspan = std::mem::replace(&mut r.cur_span, SpanId::NONE);
                        (r.cur_block < r.blocks.len(), bspan)
                    };
                    let now = ctx.now();
                    ctx.world.spans.end(bspan, now);
                    if advance {
                        self.start_block(ctx, rid);
                    } else {
                        let r = self.reads.get_mut(&rid).expect("read vanished");
                        r.all_sent = true;
                        self.maybe_finish_read(ctx, rid);
                    }
                }
            }
        }
    }

    fn maybe_finish_read(&mut self, ctx: &mut Ctx<'_>, rid: u64) {
        let finished = {
            let Some(r) = self.reads.get(&rid) else {
                return;
            };
            r.all_sent && r.processing == 0
        };
        if finished {
            let r = self.reads.remove(&rid).expect("just checked");
            // release tokens and the timer slot for this read
            self.tokens.retain(|_, v| *v != rid);
            ctx.release_timer(r.timer);
            let now = ctx.now();
            // ledger denominator: the bytes actually delivered
            ctx.world.spans.payload(r.span, r.bytes_done);
            ctx.world.spans.end(r.cur_span, now);
            ctx.world.spans.end(r.span, now);
            self.m_bytes_read.add(ctx.metrics(), r.bytes_done as f64);
            self.m_outstanding.add(ctx.metrics(), -1.0);
            ctx.world.timeline.observe_read(r.started, now);
            ctx.send(
                r.app,
                DfsReadDone {
                    req: r.req,
                    bytes: r.bytes_done,
                },
            );
        }
    }

    fn begin_read(&mut self, ctx: &mut Ctx<'_>, rid: u64) {
        let expected = {
            let r = self.reads.get_mut(&rid).expect("read vanished");
            let blocks = self.loc_cache.get(&r.path).map_or(&[][..], Vec::as_slice);
            let mut selected: Vec<LocatedBlock> = Vec::new();
            let mut expected = 0u64;
            let end = r.offset + r.len;
            for b in blocks {
                if b.offset < end && b.offset + b.len > r.offset {
                    let s = r.offset.max(b.offset);
                    let e = end.min(b.offset + b.len);
                    expected += e - s;
                    selected.push(b.clone());
                }
            }
            r.blocks = selected;
            r.expected = expected;
            expected
        };
        if expected == 0 {
            let r = self.reads.get_mut(&rid).expect("read vanished");
            r.all_sent = true;
            self.maybe_finish_read(ctx, rid);
        } else {
            self.start_block(ctx, rid);
        }
    }

    // -- write path ---------------------------------------------------------

    fn pump_write(&mut self, ctx: &mut Ctx<'_>, rid: u64) {
        loop {
            enum Next {
                Alloc,
                Chunk(WriteCpu),
                Wait,
                Finish,
            }
            let action = {
                let Some(wr) = self.writes.get_mut(&rid) else {
                    return;
                };
                if wr.remaining == 0 && wr.inflight == 0 {
                    Next::Finish
                } else if wr.remaining == 0 || wr.inflight >= WRITE_WINDOW {
                    Next::Wait
                } else if wr.block.is_none() {
                    if wr.awaiting_alloc {
                        Next::Wait
                    } else {
                        wr.awaiting_alloc = true;
                        Next::Alloc
                    }
                } else {
                    let chunk_bytes = {
                        let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                        cl.costs.stream_chunk_bytes
                    };
                    let b = wr.block.as_mut().expect("just checked");
                    let take = wr.remaining.min(chunk_bytes).min(b.capacity - b.written);
                    b.written += take;
                    wr.remaining -= take;
                    let last_of_block = b.written == b.capacity || wr.remaining == 0;
                    wr.inflight += 1;
                    let cpu = WriteCpu {
                        rid,
                        bytes: take,
                        last_of_block,
                        conn: b.conn,
                        tag: b.tag,
                        block: b.block,
                        dn: b.dn,
                        pipeline: b.pipeline.clone(),
                    };
                    if last_of_block {
                        // roll over: the next chunk allocates a fresh block
                        wr.block = None;
                    }
                    Next::Chunk(cpu)
                }
            };
            match action {
                Next::Finish => {
                    let wr = self.writes.remove(&rid).expect("write vanished");
                    ctx.send(wr.app, DfsWriteDone { req: wr.req });
                    return;
                }
                Next::Wait => return,
                Next::Alloc => {
                    let token = self.alloc_id();
                    self.nn_tokens.insert(token, rid);
                    let (nn, path) = {
                        let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                        let wr = self.writes.get(&rid).expect("write vanished");
                        (meta.namenode.expect("no namenode"), wr.path.clone())
                    };
                    let me = ctx.me();
                    ctx.send(
                        nn,
                        NnAddBlock {
                            reply_to: me,
                            token,
                            path,
                            client_vm: self.vm,
                        },
                    );
                    return;
                }
                Next::Chunk(cpu) => {
                    let vcpu = self.vcpu(ctx);
                    let cycles = Self::write_cycles(ctx, cpu.bytes);
                    let me = ctx.me();
                    ctx.chain(Stage::cpu(vcpu, cycles, CpuCategory::ClientApp), me, cpu);
                }
            }
        }
    }
}

impl Actor for DfsClient {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        // -- application requests ------------------------------------------
        let msg = match downcast::<DfsRead>(msg) {
            Ok(rd) => {
                let rid = self.alloc_id();
                let now = ctx.now();
                let span = ctx.world.spans.start("read", SpanId::NONE, now);
                let timer = ctx.timer_slot();
                self.reads.insert(
                    rid,
                    ReadReq {
                        app: rd.reply_to,
                        req: rd.req,
                        offset: rd.offset,
                        len: rd.len,
                        pread: rd.pread,
                        blocks: Vec::new(),
                        cur_block: 0,
                        expected: 0,
                        bytes_done: 0,
                        processing: 0,
                        all_sent: false,
                        path: rd.path.clone(),
                        cur_token: None,
                        cur_dn: None,
                        tried: Vec::new(),
                        part_received: 0,
                        timeouts: 0,
                        timer,
                        span,
                        cur_span: SpanId::NONE,
                        started: now,
                    },
                );
                self.m_outstanding.add(ctx.metrics(), 1.0);
                if self.loc_cache.contains_key(&rd.path) {
                    self.begin_read(ctx, rid);
                } else {
                    let token = self.alloc_id();
                    self.nn_tokens.insert(token, rid);
                    let nn = ctx
                        .world
                        .ext
                        .get::<HdfsMeta>()
                        .expect("meta")
                        .namenode
                        .expect("no namenode");
                    let me = ctx.me();
                    ctx.send(
                        nn,
                        NnGetLocations {
                            reply_to: me,
                            token,
                            path: rd.path,
                        },
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<DfsWrite>(msg) {
            Ok(wr) => {
                let rid = self.alloc_id();
                self.writes.insert(
                    rid,
                    WriteReq {
                        app: wr.reply_to,
                        req: wr.req,
                        path: wr.path,
                        remaining: wr.bytes,
                        block: None,
                        inflight: 0,
                        awaiting_alloc: false,
                    },
                );
                self.pump_write(ctx, rid);
                return;
            }
            Err(m) => m,
        };

        // -- namenode replies --------------------------------------------------
        let msg = match downcast::<NnLocations>(msg) {
            Ok(loc) => {
                if let Some(rid) = self.nn_tokens.remove(&loc.token) {
                    let path = self.reads.get(&rid).expect("read vanished").path.clone();
                    self.loc_cache.insert(path, loc.blocks.unwrap_or_default());
                    self.begin_read(ctx, rid);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<NnBlockAllocated>(msg) {
            Ok(alloc) => {
                if let Some(rid) = self.nn_tokens.remove(&alloc.token) {
                    let dn = alloc.replicas[0];
                    let me = ctx.me();
                    let conn = dial_datanode(&mut self.write_conns, ctx, me, self.vm, dn);
                    let tag = self.alloc_id();
                    self.write_tags.insert(tag, rid);
                    if let Some(wr) = self.writes.get_mut(&rid) {
                        wr.awaiting_alloc = false;
                        wr.block = Some(CurBlock {
                            block: alloc.block,
                            conn,
                            dn,
                            pipeline: alloc.replicas.clone(),
                            tag,
                            written: 0,
                            capacity: alloc.capacity,
                        });
                    }
                    self.pump_write(ctx, rid);
                }
                return;
            }
            Err(m) => m,
        };

        // -- internal CPU completions -------------------------------------------
        let msg = match downcast::<ChunkCpu>(msg) {
            Ok(cc) => {
                let live = self.tokens.get(&cc.token) == Some(&cc.rid);
                if let Some(r) = self.reads.get_mut(&cc.rid) {
                    r.processing -= 1;
                    if live {
                        r.bytes_done += cc.bytes;
                        if r.cur_token == Some(cc.token) {
                            r.part_received += cc.bytes;
                        }
                    }
                }
                let now = ctx.now();
                if live
                    && ctx
                        .world
                        .ext
                        .get::<vread_sim::fault::FaultTrace>()
                        .is_some_and(|t| t.contains(now))
                {
                    // fault runs count the bytes delivered inside the
                    // fault window: the report divides by its length
                    self.m_fault_window_bytes
                        .add(ctx.metrics(), cc.bytes as f64);
                }
                self.maybe_finish_read(ctx, cc.rid);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<WriteCpu>(msg) {
            Ok(wc) => {
                let path = match self.writes.get(&wc.rid) {
                    Some(wr) => wr.path.clone(),
                    None => return,
                };
                let dn_actor =
                    ctx.world.ext.get::<HdfsMeta>().expect("meta").datanodes[wc.dn.0].actor;
                ctx.send(
                    dn_actor,
                    DnWriteChunk {
                        conn: wc.conn,
                        tag: wc.tag,
                        path,
                        block: wc.block,
                        bytes: wc.bytes,
                        last_of_block: wc.last_of_block,
                        pipeline: wc.pipeline.clone(),
                    },
                );
                ctx.send(
                    wc.conn,
                    ConnSend {
                        dir: Side::A,
                        bytes: wc.bytes,
                        tag: wc.tag,
                        notify: false,
                        span: SpanId::NONE,
                    },
                );
                return;
            }
            Err(m) => m,
        };

        // -- fetch watchdog -----------------------------------------------------
        let msg = match downcast::<FetchTimeout>(msg) {
            Ok(t) => {
                // A finished read releases its slot and a finished fetch
                // disarms it, so a firing watchdog is always current.
                let r = self.reads.get_mut(&t.rid).expect("read vanished");
                debug_assert_eq!(r.cur_token, Some(t.token), "stale fetch watchdog fired");
                if r.bytes_done > t.progress_mark {
                    // progress since the last check: re-arm
                    let mark = r.bytes_done;
                    let timeout_ms = {
                        let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                        cl.costs.client_read_timeout_ms
                    };
                    ctx.arm_timer(
                        r.timer,
                        FetchTimeout {
                            rid: t.rid,
                            token: t.token,
                            progress_mark: mark,
                        },
                        vread_sim::SimDuration::from_millis(timeout_ms),
                    );
                    return;
                }
                // stalled: let the path diagnose before reacting
                let shared = self.shared(ctx);
                let advice = self.path_impl.on_timeout(ctx, &shared, t.token);
                let (dn, timeouts, bspan, timer) = {
                    let r = self.reads.get_mut(&t.rid).expect("read vanished");
                    r.timeouts += 1;
                    r.cur_token = None;
                    let dn = r.cur_dn.take();
                    let bspan = std::mem::replace(&mut r.cur_span, SpanId::NONE);
                    (dn, r.timeouts, bspan, r.timer)
                };
                // close the stalled fetch's span at the timeout instant
                let now = ctx.now();
                ctx.world.spans.end(bspan, now);
                match advice {
                    TimeoutAdvice::TryReplica => {
                        // abandon this replica and fail over
                        ctx.metrics().incr("dfs_read_failovers");
                        if let Some(dn) = dn {
                            self.dead_nodes.insert(dn.0);
                            self.reads
                                .get_mut(&t.rid)
                                .expect("read vanished")
                                .tried
                                .push(dn);
                        }
                    }
                    TimeoutAdvice::PathDegraded => {
                        // the replica is fine; retry it (the path falls
                        // back internally on the next start)
                        ctx.metrics().incr("dfs_read_path_retries");
                    }
                }
                self.tokens.remove(&t.token);
                self.path_impl.cancel(t.token);
                let backoff_ms = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    cl.costs.client_retry_backoff_ms
                };
                if backoff_ms == 0 {
                    self.start_block(ctx, t.rid);
                } else {
                    let delay = backoff_ms << (timeouts as u64 - 1).min(5);
                    ctx.arm_timer(
                        timer,
                        RetryFetch { rid: t.rid },
                        vread_sim::SimDuration::from_millis(delay),
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RetryFetch>(msg) {
            Ok(rf) => {
                // The backoff holds the read's slot, so nothing else
                // (completion, another fetch) can have superseded it.
                debug_assert!(
                    self.reads
                        .get(&rf.rid)
                        .is_some_and(|r| r.cur_token.is_none() && !r.all_sent),
                    "stale retry timer fired"
                );
                self.start_block(ctx, rf.rid);
                return;
            }
            Err(m) => m,
        };

        // -- connection arrivals: write acks first, then the read path ----------
        if let Some(r) = msg.downcast_ref::<ConnRecv>() {
            if let Some(&rid) = self.write_tags.get(&r.tag) {
                if let Some(wr) = self.writes.get_mut(&rid) {
                    wr.inflight -= 1;
                }
                self.pump_write(ctx, rid);
                return;
            }
        }

        // -- everything else belongs to the read path ----------------------------
        let shared = self.shared(ctx);
        let mut out = std::mem::take(&mut self.events);
        if self.path_impl.on_msg(ctx, &shared, msg, &mut out).is_ok() {
            self.process_events(ctx, &mut out);
        }
        self.events = out;
    }
}
