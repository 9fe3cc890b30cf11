//! The vRead read path for the HDFS client.
//!
//! This is the paper's modified `DFSInputStream` (Algorithms 1 & 2): for
//! each block part the client checks the libvread descriptor hash, calls
//! `vRead_open` if needed, reads through the shared-memory ring, and
//! closes the descriptor when the block is exhausted. If the daemon
//! cannot open the block (not yet visible through the mounted view, or
//! the datanode is unknown), the path **falls back to the original HDFS
//! read** (`read_buffer`/`fetchBlocks`) — exactly Algorithm 1 line 22.

use vread_hdfs::client::{
    BlockReadPath, BlockReq, ClientShared, PathEvent, TimeoutAdvice, VanillaPath,
};
use vread_hdfs::meta::{DatanodeIx, HdfsMeta};
use vread_host::cluster::Cluster;
use vread_sim::fault::FaultTrace;
use vread_sim::hash::{IdHashMap, IdHashSet};
use vread_sim::prelude::*;

use crate::api::VfdTable;
use crate::daemon::{
    VreadChunk, VreadClose, VreadOpenReq, VreadOpenResp, VreadReadDone, VreadReadFailed,
    VreadReadReq, VreadRegistry,
};
use crate::ring::RingSpec;

struct ActiveRead {
    block: vread_hdfs::meta::BlockId,
    close_after: bool,
    req: BlockReq,
    /// The fetch's `vfd_read` span (child of the client's `block_fetch`).
    span: SpanId,
}

/// The vRead [`BlockReadPath`]. Plug into
/// [`vread_hdfs::client::add_client`].
pub struct VreadPath {
    vfds: VfdTable,
    fallback: VanillaPath,
    /// Fetches waiting on `vRead_open`, with their `vread_open` span.
    pending_open: IdHashMap<u64, (BlockReq, SpanId)>,
    active: IdHashMap<u64, ActiveRead>,
    fallback_tokens: IdHashSet<u64>,
    /// Failure counts per fetch token (a stale descriptor is retried once
    /// through a fresh open before falling back to vanilla).
    attempts: IdHashMap<u64, u8>,
    /// Blocks whose vread leg stalled out (daemon crash mid-stream): the
    /// next fetch of such a block goes straight to the vanilla fallback
    /// instead of probing vread again. One-shot — later blocks re-probe.
    degraded_blocks: IdHashSet<vread_hdfs::meta::BlockId>,
    m_vfd_hits: LazyCounter,
    m_opens: LazyCounter,
}

impl Default for VreadPath {
    fn default() -> Self {
        Self::new()
    }
}

impl VreadPath {
    /// Creates the path with an empty descriptor hash.
    pub fn new() -> Self {
        VreadPath {
            vfds: VfdTable::new(),
            fallback: VanillaPath::new(),
            pending_open: IdHashMap::default(),
            active: IdHashMap::default(),
            fallback_tokens: IdHashSet::default(),
            attempts: IdHashMap::default(),
            degraded_blocks: IdHashSet::default(),
            m_vfd_hits: LazyCounter::new("vread_vfd_hits"),
            m_opens: LazyCounter::new("vread_opens"),
        }
    }

    fn daemon_of(ctx: &Ctx<'_>, shared: &ClientShared) -> (ActorId, ThreadId) {
        let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
        let host = cl.vm(shared.vm).host;
        let reg = ctx
            .world
            .ext
            .get::<VreadRegistry>()
            .expect("vRead not deployed (VreadRegistry missing)");
        reg.daemons[&host.0]
    }

    /// Whether both daemons a fetch for `dn` relies on are alive: the
    /// local one (our ring endpoint) and the one on the datanode's host
    /// (which serves the mounted image).
    fn daemons_up(ctx: &Ctx<'_>, shared: &ClientShared, dn: DatanodeIx) -> bool {
        let Some(reg) = ctx.world.ext.get::<VreadRegistry>() else {
            return false;
        };
        let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
        let meta = ctx.world.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
        let my_host = cl.vm(shared.vm).host.0;
        let dn_host = cl.vm(meta.datanodes[dn.0].vm).host.0;
        reg.is_up(my_host) && reg.is_up(dn_host)
    }

    /// Routes `req` to the vanilla fallback, recording the degradation
    /// (Algorithm 1 line 22 / the paper's §3.5 fail-soft behaviour).
    fn fall_back(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        req: BlockReq,
        out: &mut Vec<PathEvent>,
    ) {
        ctx.metrics().incr("vread_fallbacks");
        self.fallback_tokens.insert(req.token);
        self.fallback.start(ctx, shared, req, out);
    }

    fn request_stages(ctx: &Ctx<'_>, shared: &ClientShared) -> StageList {
        let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
        let ring = RingSpec::from_costs(&cl.costs);
        ring.guest_request_stages(&cl.costs, cl.vm(shared.vm).vcpu)
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_>, shared: &ClientShared, req: BlockReq) {
        let (daemon, _) = Self::daemon_of(ctx, shared);
        let vfd = self
            .vfds
            .get(req.block)
            .expect("issue_read without descriptor");
        let len = req.len.min(vfd.size.saturating_sub(req.offset));
        let close_after = req.offset + len >= vfd.size;
        let vfd_id = vfd.id;
        let now = ctx.now();
        let span = ctx.world.spans.start("vfd_read", req.span, now);
        self.active.insert(
            req.token,
            ActiveRead {
                block: req.block,
                close_after,
                req,
                span,
            },
        );
        let stages = Self::request_stages(ctx, shared);
        ctx.chain_on(
            stages,
            daemon,
            VreadReadReq {
                reply_to: shared.me,
                token: req.token,
                vfd: vfd_id,
                client_vm: shared.vm,
                offset: req.offset,
                len,
                span,
            },
            span,
        );
    }
}

impl BlockReadPath for VreadPath {
    fn name(&self) -> &'static str {
        "vread"
    }

    fn client_cyc_per_byte(&self, costs: &vread_host::Costs) -> f64 {
        costs.vread_client_cyc_per_byte
    }

    fn cancel(&mut self, token: u64) {
        self.pending_open.remove(&token);
        self.active.remove(&token);
        self.attempts.remove(&token);
        if self.fallback_tokens.remove(&token) {
            self.fallback.cancel(token);
        }
    }

    fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        req: BlockReq,
        out: &mut Vec<PathEvent>,
    ) {
        if self.degraded_blocks.remove(&req.block) || !Self::daemons_up(ctx, shared, req.dn) {
            // Daemon outage (or a stall that already burned this block):
            // drop the now-suspect descriptor — releasing the server
            // side if our local daemon survived — and go vanilla.
            if let Some(vfd) = self.vfds.close(req.block) {
                let local_up = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
                    let host = cl.vm(shared.vm).host.0;
                    ctx.world
                        .ext
                        .get::<VreadRegistry>()
                        .is_some_and(|r| r.is_up(host))
                };
                if local_up {
                    let (daemon, _) = Self::daemon_of(ctx, shared);
                    ctx.send(daemon, VreadClose { vfd: vfd.id });
                }
            }
            self.fall_back(ctx, shared, req, out);
            return;
        }
        if self.vfds.get(req.block).is_some() {
            // Algorithm 1 line 15: descriptor reuse from vfd_hash.
            self.m_vfd_hits.incr(ctx.metrics());
            self.issue_read(ctx, shared, req);
            return;
        }
        // Algorithm 1 line 12: vRead_open.
        self.m_opens.incr(ctx.metrics());
        let (daemon, _) = Self::daemon_of(ctx, shared);
        let now = ctx.now();
        let open_span = ctx.world.spans.start("vread_open", req.span, now);
        self.pending_open.insert(req.token, (req, open_span));
        let stages = Self::request_stages(ctx, shared);
        ctx.chain_on(
            stages,
            daemon,
            VreadOpenReq {
                reply_to: shared.me,
                token: req.token,
                dn: req.dn,
                block: req.block,
                span: open_span,
            },
            open_span,
        );
    }

    fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        msg: BoxMsg,
        out: &mut Vec<PathEvent>,
    ) -> Result<(), BoxMsg> {
        let msg = match downcast::<VreadOpenResp>(msg) {
            Ok(resp) => {
                let Some((req, open_span)) = self.pending_open.remove(&resp.token) else {
                    return Ok(());
                };
                let now = ctx.now();
                ctx.world.spans.end(open_span, now);
                match resp.vfd {
                    Some(vfd) => {
                        self.vfds.put(req.block, vfd);
                        self.issue_read(ctx, shared, req);
                    }
                    None => {
                        // Algorithm 1 line 22: fall back to the original
                        // HDFS read path.
                        self.fall_back(ctx, shared, req, out);
                    }
                }
                return Ok(());
            }
            Err(m) => m,
        };
        let msg = match downcast::<VreadChunk>(msg) {
            Ok(c) => {
                if self.active.contains_key(&c.token) {
                    out.push(PathEvent::Chunk {
                        token: c.token,
                        bytes: c.bytes,
                    });
                }
                return Ok(());
            }
            Err(m) => m,
        };
        let msg = match downcast::<VreadReadFailed>(msg) {
            Ok(f) => {
                // Stale descriptor (e.g. datanode VM migration): drop it
                // and retry once through a fresh open; then fall back.
                if let Some(ar) = self.active.remove(&f.token) {
                    ctx.metrics().incr("vread_read_retries");
                    let now = ctx.now();
                    ctx.world.spans.end(ar.span, now);
                    if let Some(vfd) = self.vfds.close(ar.block) {
                        // The read failed but the daemon may still hold
                        // its side of the descriptor (e.g. a stale
                        // remote mapping after migration): release it so
                        // the table doesn't leak. Dropped harmlessly if
                        // the daemon is gone.
                        let (daemon, _) = Self::daemon_of(ctx, shared);
                        ctx.send(daemon, VreadClose { vfd: vfd.id });
                    }
                    let tries = self.attempts.entry(f.token).or_insert(0);
                    *tries += 1;
                    let req = ar.req;
                    if *tries <= 1 {
                        // fresh vRead_open through (possibly) a new route
                        let open_span = ctx.world.spans.start("vread_open", req.span, now);
                        self.pending_open.insert(req.token, (req, open_span));
                        let (daemon, _) = Self::daemon_of(ctx, shared);
                        let stages = Self::request_stages(ctx, shared);
                        ctx.chain_on(
                            stages,
                            daemon,
                            VreadOpenReq {
                                reply_to: shared.me,
                                token: req.token,
                                dn: req.dn,
                                block: req.block,
                                span: open_span,
                            },
                            open_span,
                        );
                    } else {
                        self.fall_back(ctx, shared, req, out);
                    }
                }
                return Ok(());
            }
            Err(m) => m,
        };
        let msg = match downcast::<VreadReadDone>(msg) {
            Ok(d) => {
                self.attempts.remove(&d.token);
                if let Some(ar) = self.active.remove(&d.token) {
                    let now = ctx.now();
                    ctx.world.spans.end(ar.span, now);
                    if ctx.world.ext.get::<FaultTrace>().is_some() {
                        // fault runs record when the fast path first
                        // serves again after each daemon restart: the
                        // recovery instant the fault report reads
                        let m = &ctx.world.metrics;
                        let last = |k| m.samples(k).and_then(|s| s.values().last().copied());
                        let now = ctx.now().as_secs_f64();
                        if let Some(restart) = last("daemon_restart_at_s") {
                            if last("vread_ok_at_s").is_none_or(|ok| ok < restart) {
                                ctx.metrics().sample("vread_ok_at_s", now);
                            }
                        }
                    }
                    if ar.close_after {
                        // Algorithm 1 line 27: vRead_close at block end.
                        if let Some(vfd) = self.vfds.close(ar.block) {
                            let (daemon, _) = Self::daemon_of(ctx, shared);
                            ctx.send(daemon, VreadClose { vfd: vfd.id });
                        }
                    }
                    out.push(PathEvent::Done { token: d.token });
                }
                return Ok(());
            }
            Err(m) => m,
        };
        // Everything else may belong to the fallback vanilla path.
        match self.fallback.on_msg(ctx, shared, msg, out) {
            Ok(()) => {
                // Reclaim bookkeeping for fallback fetches that finished
                // (without this, fallback_tokens grows for the lifetime
                // of the client).
                for ev in out.iter() {
                    if let PathEvent::Done { token } = ev {
                        self.fallback_tokens.remove(token);
                        self.attempts.remove(token);
                    }
                }
                Ok(())
            }
            Err(m) => Err(m),
        }
    }

    fn on_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        shared: &ClientShared,
        token: u64,
    ) -> TimeoutAdvice {
        if self.fallback_tokens.contains(&token) {
            return self.fallback.on_timeout(ctx, shared, token);
        }
        // A stall on the vread leg. The replica's data is intact — the
        // daemon reads it through host-side mounts — so blame the path,
        // not the replica: route this block's next attempt straight to
        // the vanilla fallback (start() drops the suspect descriptor).
        if let Some(block) = self
            .pending_open
            .get(&token)
            .map(|(r, _)| r.block)
            .or_else(|| self.active.get(&token).map(|a| a.block))
        {
            self.degraded_blocks.insert(block);
        }
        let _ = (ctx, shared);
        TimeoutAdvice::PathDegraded
    }
}
