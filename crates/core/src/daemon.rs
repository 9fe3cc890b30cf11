//! The vRead hypervisor daemon.
//!
//! One daemon runs per host (§3.2/§4 of the paper). It:
//!
//! * keeps the hash table mapping datanode ids to their VMs' disk images
//!   and the **read-only mounts** of those images ([`FsSnapshot`]s built
//!   with `losetup`/`kpartx` in the real system);
//! * serves `vRead_open`/`vRead_read`/`vRead_close` requests arriving
//!   from guests over the shared-memory ring, reading block files through
//!   the mounted image — and therefore through the **host page cache** —
//!   and pushing payload into the guest's ring slots (the only two copies
//!   on the local path);
//! * refreshes the mount point's dentry/inode information when the
//!   namenode reports a new block (`vRead_update`, the paper's
//!   write-once consistency protocol);
//! * for blocks on other hosts, contacts the remote host's daemon over
//!   **RDMA (RoCE)** — or the user-space **TCP fallback** the paper
//!   measures in Figure 8 — and forwards the returned data into the ring.

use std::collections::{BTreeMap, BTreeSet};

use vread_hdfs::meta::{BlockId, DatanodeIx, HdfsMeta};
use vread_hdfs::namenode::BlockAdded;
use vread_host::cluster::{with_cluster, Cluster, HostIx, VmId};
use vread_host::fs::{FileId, FsSnapshot};
use vread_net::conn::{add_conn, ConnRecv, ConnSend, ConnSent, Endpoint, Flavor, Side};
use vread_sim::prelude::*;

use crate::api::Vfd;
use crate::ring::RingSpec;

/// Chunks a daemon keeps in flight per read stream.
const DAEMON_WINDOW: usize = 4;

/// What the host block store said about one image-read range: how many
/// bytes had to come from disk and how many were served from chunks
/// another VM's image admitted (content-addressed dedup hits).
#[derive(Debug, Default, Clone, Copy)]
struct ImageReadOutcome {
    miss_bytes: u64,
    dedup_bytes: u64,
}

// ---------------------------------------------------------------------------
// Client ↔ daemon protocol (carried over the shared-memory ring)
// ---------------------------------------------------------------------------

/// `vRead_open`: open the file backing `block` on datanode `dn`.
#[derive(Debug, Clone, Copy)]
pub struct VreadOpenReq {
    /// Where to deliver [`VreadOpenResp`].
    pub reply_to: ActorId,
    /// Caller token.
    pub token: u64,
    /// Target datanode.
    pub dn: DatanodeIx,
    /// Target block.
    pub block: BlockId,
    /// The client's `vread_open` span (daemon-side open work is charged
    /// to it).
    pub span: SpanId,
}

/// Reply to [`VreadOpenReq`]. `vfd: None` means the block is not visible
/// through the daemon's mounted view (the client falls back to the
/// original HDFS read path, Algorithm 1 line 22).
#[derive(Debug, Clone, Copy)]
pub struct VreadOpenResp {
    /// Caller token.
    pub token: u64,
    /// The opened descriptor, if any.
    pub vfd: Option<Vfd>,
}

/// `vRead_read`: read `len` bytes at `offset` through descriptor `vfd`.
#[derive(Debug, Clone, Copy)]
pub struct VreadReadReq {
    /// Where to stream [`VreadChunk`]s / the final [`VreadReadDone`].
    pub reply_to: ActorId,
    /// Caller token.
    pub token: u64,
    /// Open descriptor id.
    pub vfd: u64,
    /// The reading guest (ring owner).
    pub client_vm: VmId,
    /// Offset within the block file.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
    /// The client's `vfd_read` span; all daemon/ring/transport work for
    /// this read is charged to it.
    pub span: SpanId,
}

/// A chunk of payload landed in the client's buffer.
#[derive(Debug, Clone, Copy)]
pub struct VreadChunk {
    /// Caller token.
    pub token: u64,
    /// Chunk size.
    pub bytes: u64,
}

/// All bytes of a [`VreadReadReq`] were delivered.
#[derive(Debug, Clone, Copy)]
pub struct VreadReadDone {
    /// Caller token.
    pub token: u64,
}

/// A [`VreadReadReq`] could not be served (stale descriptor — e.g. the
/// datanode VM migrated away). The client reopens or falls back.
#[derive(Debug, Clone, Copy)]
pub struct VreadReadFailed {
    /// Caller token.
    pub token: u64,
}

/// Notification that a (datanode) VM migrated between hosts: daemons
/// update their datanode→image hash tables and mounts (paper §6).
#[derive(Debug, Clone, Copy)]
pub struct VmMigrated {
    /// The VM that moved.
    pub vm: VmId,
}

/// `vRead_close`: release a descriptor.
#[derive(Debug, Clone, Copy)]
pub struct VreadClose {
    /// Descriptor id.
    pub vfd: u64,
}

/// Rebuild this daemon's full mount table from the current topology:
/// discover every datanode VM on the host and re-snapshot its image.
/// Used as a test/maintenance hook (a scenario mutated filesystems
/// behind the daemon's back) and as the recovery step after a daemon
/// restart, which comes back with an empty table (paper §3.5).
#[derive(Debug, Clone, Copy)]
pub struct RemountAll;

/// Test/diagnostic probe: ask a daemon how many descriptors and mounts
/// it currently holds. It replies with a [`VfdAuditReport`] — the guard
/// tests use this to assert descriptor tables drain back to empty after
/// closes and migrations.
#[derive(Debug, Clone, Copy)]
pub struct VfdAudit {
    /// Where to send the report.
    pub reply_to: ActorId,
}

/// Reply to [`VfdAudit`].
#[derive(Debug, Clone, Copy)]
pub struct VfdAuditReport {
    /// Host index of the audited daemon.
    pub host: usize,
    /// Open descriptors in the daemon's table.
    pub vfds: usize,
    /// Mounted datanode images.
    pub mounts: usize,
}

/// Notification that the daemon on `host` was restarted under a new
/// actor id: peers drop their cached connections to the old incarnation
/// (a fresh one is dialled on the next remote request).
#[derive(Debug, Clone, Copy)]
pub struct PeerDaemonRestarted {
    /// Host index of the restarted daemon.
    pub host: usize,
}

// ---------------------------------------------------------------------------
// Daemon ↔ daemon remote protocol
// ---------------------------------------------------------------------------

/// Remote open request (control path; direct message + small CPU).
#[derive(Debug, Clone, Copy)]
pub struct ROpen {
    /// Requesting daemon.
    pub from: ActorId,
    /// Requester token.
    pub tag: u64,
    /// Target datanode.
    pub dn: DatanodeIx,
    /// Target block.
    pub block: BlockId,
}

/// Remote open response.
#[derive(Debug, Clone, Copy)]
pub struct ROpenResp {
    /// Requester token.
    pub tag: u64,
    /// `(peer descriptor, size)` when visible.
    pub vfd: Option<(u64, u64)>,
}

/// Remote read request: stream `len` bytes of peer descriptor `vfd` back
/// over `conn` with `tag`.
#[derive(Debug, Clone, Copy)]
pub struct RRead {
    /// The requesting daemon (for failure replies).
    pub from: ActorId,
    /// The data connection (created by the requesting daemon).
    pub conn: ActorId,
    /// Stream tag.
    pub tag: u64,
    /// Peer descriptor id.
    pub vfd: u64,
    /// Offset within the block file.
    pub offset: u64,
    /// Bytes to stream.
    pub len: u64,
    /// The requesting read's `vfd_read` span (serve-side work is charged
    /// to it).
    pub span: SpanId,
}

/// Remote close (forwarded `vRead_close`).
#[derive(Debug, Clone, Copy)]
pub struct RClose {
    /// Peer descriptor id.
    pub vfd: u64,
}

/// Remote read failure (stale peer descriptor).
#[derive(Debug, Clone, Copy)]
pub struct RReadFailed {
    /// The requester's stream tag (its read id).
    pub tag: u64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// How daemons move data between hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemoteTransport {
    /// RDMA verbs over RoCE (the paper's preferred configuration).
    #[default]
    Rdma,
    /// The user-space TCP fallback ("vRead-net", Figure 8).
    Tcp,
}

/// World-extension registry of deployed daemons.
#[derive(Debug, Default)]
pub struct VreadRegistry {
    /// `host index → (daemon actor, daemon thread)`. Entries persist
    /// across a crash (the thread is reused on restart); liveness is
    /// tracked separately in `down`.
    pub daemons: BTreeMap<usize, (ActorId, ThreadId)>,
    /// Inter-host transport.
    pub transport: RemoteTransport,
    /// §6 ablation: every daemon bypasses the host filesystem (and its
    /// page cache), reading the raw device with manual address
    /// translation.
    pub bypass_host_fs: bool,
    /// Hosts whose daemon is currently crashed. Clients consult this to
    /// fall back to the vanilla path instead of sending into the void.
    pub down: BTreeSet<usize>,
    /// A daemon restarted and no vRead read has completed since: the
    /// next one records the recovery instant (`vread_ok_at_s`).
    pub awaiting_recovery: bool,
}

impl VreadRegistry {
    /// Whether the daemon on `host_ix` is deployed and alive.
    pub fn is_up(&self, host_ix: usize) -> bool {
        self.daemons.contains_key(&host_ix) && !self.down.contains(&host_ix)
    }
}

// ---------------------------------------------------------------------------
// Daemon state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum VfdState {
    Local { dn_vm: VmId, file: FileId },
    Remote { peer_host: usize, peer_vfd: u64 },
}

/// A windowed cursor over a byte range of a mounted image file: the
/// daemon reads it chunk by chunk, at most [`DAEMON_WINDOW`] chunks in
/// flight, whether the bytes go into a local ring or to a peer daemon.
struct ImageStream {
    dn_vm: VmId,
    file: FileId,
    next_offset: u64,
    remaining: u64,
    inflight: usize,
}

/// One chunk taken off an [`ImageStream`].
#[derive(Clone, Copy)]
struct ImageChunk {
    dn_vm: VmId,
    file: FileId,
    offset: u64,
    len: u64,
}

impl ImageStream {
    /// Takes the next chunk of at most `cap` bytes, or `None` when the
    /// window is full or the range is exhausted.
    fn take(&mut self, cap: u64) -> Option<ImageChunk> {
        if self.inflight >= DAEMON_WINDOW || self.remaining == 0 {
            return None;
        }
        let len = self.remaining.min(cap);
        let chunk = ImageChunk {
            dn_vm: self.dn_vm,
            file: self.file,
            offset: self.next_offset,
            len,
        };
        self.next_offset += len;
        self.remaining -= len;
        self.inflight += 1;
        Some(chunk)
    }
}

/// Where a ring read's bytes come from.
enum Source {
    /// A mounted image on this host.
    Image(ImageStream),
    /// The peer daemon serving the block, over this connection (its
    /// chunks carry the read id as their tag).
    Peer(ActorId),
}

/// A `vRead_read` streaming into a client's ring. It finishes when the
/// guest has popped every byte: `undelivered` reaches 0.
struct RingRead {
    reply_to: ActorId,
    token: u64,
    client_vm: VmId,
    undelivered: u64,
    src: Source,
    span: SpanId,
}

/// An image range this daemon streams to a peer daemon over `conn`.
struct Serve {
    conn: ActorId,
    tag: u64,
    image: ImageStream,
    span: SpanId,
}

/// A ring chunk of read `read` landed in the guest.
struct RingChunkDone {
    read: u64,
    bytes: u64,
}

struct ServeChunkReady {
    key: (u32, u64),
    bytes: u64,
}

struct MountRefreshed {
    vm_ix: usize,
}

/// The per-host vRead daemon actor. Deploy with [`crate::deploy_vread`].
pub struct VreadDaemon {
    host: HostIx,
    thread: ThreadId,
    /// Read-only mounted views of local datanode VM images, by VM index.
    mounts: BTreeMap<usize, FsSnapshot>,
    vfds: BTreeMap<u64, VfdState>,
    next_id: u64,
    reads: BTreeMap<u64, RingRead>,
    /// Streams this daemon serves for peers.
    serves: BTreeMap<(u32, u64), Serve>,
    /// Pending remote opens (by requester tag).
    open_waits: BTreeMap<u64, (ActorId, u64, DatanodeIx)>,
    peer_conns: BTreeMap<usize, ActorId>,
    /// Gauge tracking bytes currently in this host's shared ring
    /// (chunks between daemon push and guest pop completion); the
    /// timeline sampler turns it into an occupancy series.
    ring_gauge: GaugeId,
}

fn registry<'a>(ctx: &'a Ctx<'_>) -> &'a VreadRegistry {
    ctx.world
        .ext
        .get::<VreadRegistry>()
        .expect("VreadRegistry missing")
}

/// The daemon actor on `host`.
pub(crate) fn daemon_on(ctx: &Ctx<'_>, host: usize) -> ActorId {
    registry(ctx).daemons[&host].0
}

/// The host datanode `dn`'s VM runs on.
pub(crate) fn host_of(ctx: &Ctx<'_>, dn: DatanodeIx) -> HostIx {
    let meta = ctx.world.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
    let cl = ctx.world.ext.get::<Cluster>().expect("Cluster missing");
    cl.vm(meta.datanodes[dn.0].vm).host
}

impl VreadDaemon {
    fn alloc(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn costs<'a>(ctx: &'a Ctx<'_>) -> &'a vread_host::Costs {
        &ctx.world
            .ext
            .get::<Cluster>()
            .expect("Cluster missing")
            .costs
    }

    /// Opens `block` on a *local* datanode VM through the mounted view,
    /// returning the new descriptor and the file size.
    fn open_local(&mut self, ctx: &Ctx<'_>, dn: DatanodeIx, block: BlockId) -> Option<(u64, u64)> {
        let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
        let dn_vm = meta.datanodes[dn.0].vm;
        let snap = self.mounts.get(&dn_vm.0)?;
        let (file, size) = snap.lookup(&block.path())?;
        let id = self.alloc();
        self.vfds.insert(id, VfdState::Local { dn_vm, file });
        Some((id, size))
    }

    fn ensure_peer_conn(&mut self, ctx: &mut Ctx<'_>, peer_host: usize) -> ActorId {
        if let Some(&c) = self.peer_conns.get(&peer_host) {
            return c;
        }
        let me = ctx.me();
        let my_thread = self.thread;
        let (peer_actor, peer_thread, transport) = {
            let reg = registry(ctx);
            let (a, t) = reg.daemons[&peer_host];
            (a, t, reg.transport)
        };
        let mk = |thread: ThreadId| match transport {
            RemoteTransport::Rdma => Flavor::Rdma { thread },
            RemoteTransport::Tcp => Flavor::HostUser {
                thread,
                cat: CpuCategory::VreadNet,
            },
        };
        let conn = with_cluster(ctx.world, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: me,
                    flavor: mk(my_thread),
                },
                Endpoint {
                    actor: peer_actor,
                    flavor: mk(peer_thread),
                },
            )
        });
        self.peer_conns.insert(peer_host, conn);
        conn
    }

    /// Pushes the stages of the daemon reading `chunk` of a mounted
    /// image file (loop device + host block store + SSD, or the raw
    /// device when `bypass`) onto `st`, and returns what the host store
    /// said about the range — `pump_ring` uses the outcome to pick the
    /// map-serve fast path for pure dedup hits.
    fn image_read_stages(
        &self,
        cl: &mut Cluster,
        bypass: bool,
        chunk: ImageChunk,
        st: &mut StageList,
    ) -> ImageReadOutcome {
        let thread = self.thread;
        let hash = cl.content_addressed();
        let c = &cl.costs;
        let mut out = ImageReadOutcome::default();
        st.push(Stage::cpu(
            thread,
            c.loop_request_cycles + c.daemon_lookup_cycles,
            CpuCategory::LoopDevice,
        ));
        let vm = &cl.vms[chunk.dn_vm.0];
        let obj = vm.fs.image();
        let hw = &mut cl.hosts[vm.host.0];
        let mut extents = vm
            .fs
            .cursor(chunk.file, chunk.offset, chunk.len)
            .expect("vfd read within snapshot size");
        while let Some(e) = extents.advance(&vm.fs) {
            if bypass {
                // §6 variant: raw device read, manual 3-level address
                // translation, no host page cache benefit.
                st.push(Stage::cpu(
                    thread,
                    3 * c.fs_lookup_cycles,
                    CpuCategory::LoopDevice,
                ));
                st.push(Stage::cpu(thread, c.blk_host_cycles, CpuCategory::DiskRead));
                st.push(Stage::disk(hw.dev, e.len));
                out.miss_bytes += e.len;
            } else {
                let look = hw.cache.lookup(obj, e.image_offset, e.len);
                out.miss_bytes += look.miss_bytes;
                out.dedup_bytes += look.dedup_bytes;
                if look.miss_bytes > 0 {
                    st.push(Stage::cpu(thread, c.blk_host_cycles, CpuCategory::DiskRead));
                    st.push(Stage::disk(hw.dev, look.miss_bytes));
                    if hash {
                        // Content-addressed admission fingerprints the
                        // bytes it pulls from disk.
                        st.push(Stage::cpu(
                            thread,
                            (look.miss_bytes as f64 * c.cas_hash_cyc_per_byte).round() as u64,
                            CpuCategory::Daemon,
                        ));
                    }
                }
                hw.cache.admit(obj, e.image_offset, e.len);
            }
        }
        out
    }

    /// Streams an image-sourced ring read into the guest's ring, up to
    /// the window. (A peer-sourced read's chunks are pushed as they
    /// arrive, in the [`ConnRecv`] handler.)
    fn pump_ring(&mut self, ctx: &mut Ctx<'_>, read: u64) {
        let me = ctx.me();
        let bypass = registry(ctx).bypass_host_fs;
        let (ring, cap) = {
            let costs = Self::costs(ctx);
            let ring = RingSpec::from_costs(costs);
            let cap = costs
                .stream_chunk_bytes
                .min(ring.max_chunk_for_window(DAEMON_WINDOW as u64));
            (ring, cap)
        };
        loop {
            let Some(r) = self.reads.get_mut(&read) else {
                return;
            };
            let Source::Image(image) = &mut r.src else {
                return;
            };
            let Some(chunk) = image.take(cap) else {
                return;
            };
            let (client_vm, span) = (r.client_vm, r.span);
            let stages = with_cluster(ctx.world, |cl, _w| {
                let mut stages = StageList::new();
                let outcome = self.image_read_stages(cl, bypass, chunk, &mut stages);
                let costs = &cl.costs;
                if outcome.miss_bytes == 0 && outcome.dedup_bytes > 0 {
                    // Pure dedup hit in a content-addressed host store:
                    // the daemon maps the resident pages into the ring
                    // instead of copying — one copy per read (the guest
                    // pop) remains.
                    stages.extend(ring.daemon_map_stages(costs, self.thread, chunk.len));
                } else {
                    stages.extend(ring.daemon_push_stages(costs, self.thread, chunk.len));
                }
                let vcpu = cl.vm(client_vm).vcpu;
                stages.extend(ring.guest_pop_stages(costs, vcpu, chunk.len));
                stages
            });
            ctx.world
                .metrics
                .gauge_add_to(self.ring_gauge, chunk.len as f64);
            let done = RingChunkDone {
                read,
                bytes: chunk.len,
            };
            ctx.chain_on(stages, me, done, span);
        }
    }

    /// Streams a served image range to the requesting peer, up to the
    /// window.
    fn pump_serve(&mut self, ctx: &mut Ctx<'_>, key: (u32, u64)) {
        let me = ctx.me();
        let (transport, bypass) = {
            let reg = registry(ctx);
            (reg.transport, reg.bypass_host_fs)
        };
        let cap = Self::costs(ctx).stream_chunk_bytes;
        loop {
            let Some(s) = self.serves.get_mut(&key) else {
                return;
            };
            let Some(chunk) = s.image.take(cap) else {
                return;
            };
            let span = s.span;
            let stages = with_cluster(ctx.world, |cl, _w| {
                let mut stages = StageList::new();
                self.image_read_stages(cl, bypass, chunk, &mut stages);
                if transport == RemoteTransport::Rdma {
                    // Copy into the registered memory region the NIC
                    // pushes from (the paper's "active model" on the
                    // datanode side).
                    stages.push(Stage::copy(
                        self.thread,
                        cl.costs.copy_cycles(chunk.len) / 2,
                        CpuCategory::Rdma,
                        chunk.len,
                    ));
                }
                stages
            });
            let ready = ServeChunkReady {
                key,
                bytes: chunk.len,
            };
            ctx.chain_on(stages, me, ready, span);
        }
    }
}

impl Actor for VreadDaemon {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        // ---- vRead_open --------------------------------------------------
        let msg = match downcast::<VreadOpenReq>(msg) {
            Ok(req) => {
                let costs = Self::costs(ctx);
                let dn_host = host_of(ctx, req.dn);
                if dn_host == self.host {
                    let opened = self.open_local(ctx, req.dn, req.block);
                    ctx.chain_on(
                        Stage::cpu(
                            self.thread,
                            costs.eventfd_cycles
                                + costs.daemon_lookup_cycles
                                + costs.fs_lookup_cycles,
                            CpuCategory::Daemon,
                        ),
                        req.reply_to,
                        VreadOpenResp {
                            token: req.token,
                            vfd: opened.map(|(id, size)| Vfd { id, size }),
                        },
                        req.span,
                    );
                } else {
                    // remote open via the peer daemon (control path)
                    let tag = self.alloc();
                    self.open_waits
                        .insert(tag, (req.reply_to, req.token, req.dn));
                    ctx.chain_on(
                        Stage::cpu(
                            self.thread,
                            costs.eventfd_cycles + costs.rdma_post_cycles,
                            CpuCategory::Daemon,
                        ),
                        daemon_on(ctx, dn_host.0),
                        ROpen {
                            from: ctx.me(),
                            tag,
                            dn: req.dn,
                            block: req.block,
                        },
                        req.span,
                    );
                }
                return;
            }
            Err(m) => m,
        };

        // ---- vRead_read ---------------------------------------------------
        let msg = match downcast::<VreadReadReq>(msg) {
            Ok(req) => {
                let Some(&state) = self.vfds.get(&req.vfd) else {
                    // Stale/unknown descriptor (e.g. the datanode VM
                    // migrated): tell the client to reopen.
                    ctx.send(req.reply_to, VreadReadFailed { token: req.token });
                    return;
                };
                let read = self.alloc();
                let src = match state {
                    VfdState::Local { dn_vm, file } => Source::Image(ImageStream {
                        dn_vm,
                        file,
                        next_offset: req.offset,
                        remaining: req.len,
                        inflight: 0,
                    }),
                    VfdState::Remote {
                        peer_host,
                        peer_vfd,
                    } => {
                        let conn = self.ensure_peer_conn(ctx, peer_host);
                        let costs = Self::costs(ctx);
                        ctx.chain_on(
                            Stage::cpu(
                                self.thread,
                                costs.eventfd_cycles + costs.rdma_post_cycles,
                                CpuCategory::Daemon,
                            ),
                            daemon_on(ctx, peer_host),
                            RRead {
                                from: ctx.me(),
                                conn,
                                tag: read,
                                vfd: peer_vfd,
                                offset: req.offset,
                                len: req.len,
                                span: req.span,
                            },
                            req.span,
                        );
                        Source::Peer(conn)
                    }
                };
                self.reads.insert(
                    read,
                    RingRead {
                        reply_to: req.reply_to,
                        token: req.token,
                        client_vm: req.client_vm,
                        undelivered: req.len,
                        src,
                        span: req.span,
                    },
                );
                self.pump_ring(ctx, read);
                return;
            }
            Err(m) => m,
        };

        // ---- vRead_close -----------------------------------------------------
        let msg = match downcast::<VreadClose>(msg) {
            Ok(cl) => {
                if let Some(VfdState::Remote {
                    peer_host,
                    peer_vfd,
                }) = self.vfds.remove(&cl.vfd)
                {
                    ctx.send(daemon_on(ctx, peer_host), RClose { vfd: peer_vfd });
                }
                return;
            }
            Err(m) => m,
        };

        // ---- a ring chunk landed in the guest ----------------------------------
        let msg = match downcast::<RingChunkDone>(msg) {
            Ok(done) => {
                ctx.world
                    .metrics
                    .gauge_add_to(self.ring_gauge, -(done.bytes as f64));
                let Some(r) = self.reads.get_mut(&done.read) else {
                    return;
                };
                r.undelivered -= done.bytes;
                let from_image = match &mut r.src {
                    Source::Image(image) => {
                        image.inflight -= 1;
                        true
                    }
                    Source::Peer(_) => false,
                };
                let (reply_to, token) = (r.reply_to, r.token);
                ctx.send(
                    reply_to,
                    VreadChunk {
                        token,
                        bytes: done.bytes,
                    },
                );
                if r.undelivered == 0 {
                    self.reads.remove(&done.read);
                    ctx.send(reply_to, VreadReadDone { token });
                } else if from_image {
                    self.pump_ring(ctx, done.read);
                }
                return;
            }
            Err(m) => m,
        };

        // ---- remote protocol: control ------------------------------------------
        let msg = match downcast::<ROpen>(msg) {
            Ok(op) => {
                let costs = Self::costs(ctx);
                let opened = self.open_local(ctx, op.dn, op.block);
                ctx.chain(
                    Stage::cpu(
                        self.thread,
                        costs.fs_lookup_cycles + costs.daemon_lookup_cycles,
                        CpuCategory::Daemon,
                    ),
                    op.from,
                    ROpenResp {
                        tag: op.tag,
                        vfd: opened,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<ROpenResp>(msg) {
            Ok(resp) => {
                if let Some((reply_to, token, dn)) = self.open_waits.remove(&resp.tag) {
                    let vfd = resp.vfd.map(|(peer_vfd, size)| {
                        let id = self.alloc();
                        let peer_host = host_of(ctx, dn).0;
                        self.vfds.insert(
                            id,
                            VfdState::Remote {
                                peer_host,
                                peer_vfd,
                            },
                        );
                        Vfd { id, size }
                    });
                    ctx.send(reply_to, VreadOpenResp { token, vfd });
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RRead>(msg) {
            Ok(rr) => {
                let Some(&VfdState::Local { dn_vm, file }) = self.vfds.get(&rr.vfd) else {
                    ctx.send(rr.from, RReadFailed { tag: rr.tag });
                    return;
                };
                let key = (rr.conn.raw(), rr.tag);
                self.serves.insert(
                    key,
                    Serve {
                        conn: rr.conn,
                        tag: rr.tag,
                        image: ImageStream {
                            dn_vm,
                            file,
                            next_offset: rr.offset,
                            remaining: rr.len,
                            inflight: 0,
                        },
                        span: rr.span,
                    },
                );
                self.pump_serve(ctx, key);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RClose>(msg) {
            Ok(rc) => {
                self.vfds.remove(&rc.vfd);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RReadFailed>(msg) {
            Ok(rf) => {
                // rf.tag is our read id
                if let Some(r) = self.reads.remove(&rf.tag) {
                    ctx.send(r.reply_to, VreadReadFailed { token: r.token });
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<VmMigrated>(msg) {
            Ok(mig) => {
                let local_now = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    cl.vm(mig.vm).host == self.host
                };
                if local_now {
                    // Mount the image on the new host (kpartx/losetup +
                    // hash-table update, per §6).
                    let costs = Self::costs(ctx);
                    let me = ctx.me();
                    ctx.chain(
                        Stage::cpu(
                            self.thread,
                            costs.mount_refresh_cycles + costs.fs_lookup_cycles,
                            CpuCategory::Daemon,
                        ),
                        me,
                        MountRefreshed { vm_ix: mig.vm.0 },
                    );
                } else {
                    // The VM left this host: unmount and invalidate any
                    // descriptors backed by it.
                    self.mounts.remove(&mig.vm.0);
                    self.vfds.retain(
                        |_, st| !matches!(st, VfdState::Local { dn_vm, .. } if *dn_vm == mig.vm),
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<ServeChunkReady>(msg) {
            Ok(sr) => {
                let Some(s) = self.serves.get(&sr.key) else {
                    return;
                };
                ctx.send(
                    s.conn,
                    ConnSend {
                        dir: Side::B,
                        bytes: sr.bytes,
                        tag: s.tag,
                        notify: true,
                        span: s.span,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<ConnSent>(msg) {
            Ok(sent) => {
                let key = (sent.conn.raw(), sent.tag);
                let Some(s) = self.serves.get_mut(&key) else {
                    return;
                };
                s.image.inflight -= 1;
                if s.image.remaining == 0 && s.image.inflight == 0 {
                    self.serves.remove(&key);
                } else {
                    self.pump_serve(ctx, key);
                }
                return;
            }
            Err(m) => m,
        };

        // ---- remote data arriving at the requesting daemon -----------------------
        let msg = match downcast::<ConnRecv>(msg) {
            Ok(r) => {
                // The tag is the read id; data on another connection
                // with the same tag is not ours.
                let read = r.tag;
                let Some(rr) = self
                    .reads
                    .get(&read)
                    .filter(|rr| matches!(rr.src, Source::Peer(conn) if conn == r.conn))
                else {
                    return;
                };
                let (client_vm, span) = (rr.client_vm, rr.span);
                let me = ctx.me();
                let stages = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    let ring = RingSpec::from_costs(&cl.costs);
                    let vcpu = cl.vm(client_vm).vcpu;
                    let mut stages = ring.daemon_push_stages(&cl.costs, self.thread, r.bytes);
                    stages.extend(ring.guest_pop_stages(&cl.costs, vcpu, r.bytes));
                    stages
                };
                ctx.world
                    .metrics
                    .gauge_add_to(self.ring_gauge, r.bytes as f64);
                let done = RingChunkDone {
                    read,
                    bytes: r.bytes,
                };
                ctx.chain_on(stages, me, done, span);
                return;
            }
            Err(m) => m,
        };

        // ---- consistency: namenode notifications ---------------------------------
        let msg = match downcast::<BlockAdded>(msg) {
            Ok(added) => {
                let (vm, local) = {
                    let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    let vm = meta.datanodes[added.dn.0].vm;
                    (vm, cl.vm(vm).host == self.host)
                };
                if local {
                    let costs = Self::costs(ctx);
                    let me = ctx.me();
                    // Refresh the mount point's dentry/inode info — only
                    // the added inodes need updating (paper §3.2).
                    ctx.chain(
                        Stage::cpu(self.thread, costs.mount_refresh_cycles, CpuCategory::Daemon),
                        me,
                        MountRefreshed { vm_ix: vm.0 },
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<MountRefreshed>(msg) {
            Ok(mr) => {
                let snap = {
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    cl.vms[mr.vm_ix].fs.snapshot()
                };
                self.mounts.insert(mr.vm_ix, snap);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<VfdAudit>(msg) {
            Ok(a) => {
                ctx.send(
                    a.reply_to,
                    VfdAuditReport {
                        host: self.host.0,
                        vfds: self.vfds.len(),
                        mounts: self.mounts.len(),
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<PeerDaemonRestarted>(msg) {
            Ok(p) => {
                // Any cached conn targets the dead incarnation's actor;
                // the next remote request dials the new one.
                self.peer_conns.remove(&p.host);
                return;
            }
            Err(m) => m,
        };
        if msg.is::<RemountAll>() {
            self.mounts = mounts_on(ctx.world, self.host);
        }
    }
}

/// Migrates `vm` to `to` and notifies every deployed daemon so their
/// datanode→image hash tables and mounts follow the VM (paper §6).
/// Works mid-workload: stale descriptors fail cleanly and clients
/// reopen through the correct daemon.
// vread-lint: allow(test-only-pub, "the paper's §6 migration support (DESIGN.md §8); no experiment migrates a VM, so its callers are the migration and fault-recovery tests")
pub fn migrate_vm_with_vread(w: &mut World, vm: VmId, to: vread_host::cluster::HostIx) {
    with_cluster(w, |cl, w| cl.migrate_vm(w, vm, to));
    let daemons: Vec<ActorId> = w
        .ext
        .get::<VreadRegistry>()
        .map(|r| r.daemons.values().map(|(a, _)| *a).collect())
        .unwrap_or_default();
    for d in daemons {
        w.send_now(d, VmMigrated { vm });
    }
}

/// Crashes the vRead daemon on `host`: the actor is removed (queued and
/// future messages to it are dropped, like packets to a killed process)
/// and the registry marks the host down, so clients consulting
/// [`VreadRegistry::is_up`] fall back to the vanilla path instead of
/// sending into the void. The registry entry itself persists — the
/// daemon thread is reused on restart. Returns `false` when no daemon is
/// deployed there (e.g. a vanilla-path scenario), making daemon faults a
/// harmless no-op in such runs.
pub fn crash_daemon(w: &mut World, host: vread_host::cluster::HostIx) -> bool {
    let Some((actor, _)) = w
        .ext
        .get::<VreadRegistry>()
        .and_then(|r| r.daemons.get(&host.0).copied())
    else {
        return false;
    };
    if !w
        .ext
        .get_mut::<VreadRegistry>()
        .unwrap()
        .down
        .insert(host.0)
    {
        return false; // already down
    }
    w.remove_actor(actor);
    if let Some(meta) = w.ext.get_mut::<HdfsMeta>() {
        meta.observers.retain(|&o| o != actor);
    }
    w.metrics.incr("fault_daemon_crashes");
    true
}

/// Restarts a crashed daemon on `host` — the paper's §3.5 recovery
/// protocol: a fresh daemon process re-registers on the same host
/// thread, rejoins the namenode observer list, rebuilds its mount table
/// via [`RemountAll`], and peers drop stale connections to the old
/// incarnation. Descriptors handed out before the crash are gone;
/// clients discover that via timeout/`VreadReadFailed` and reopen.
/// Returns the new actor, or `None` when no daemon is deployed there or
/// it is not down.
pub fn restart_daemon(w: &mut World, host: vread_host::cluster::HostIx) -> Option<ActorId> {
    let reg = w.ext.get::<VreadRegistry>()?;
    if !reg.down.contains(&host.0) {
        return None;
    }
    let (_, thread) = reg.daemons.get(&host.0).copied()?;
    let actor = spawn_daemon(w, host, thread, BTreeMap::new());
    let reg = w.ext.get_mut::<VreadRegistry>().unwrap();
    reg.down.remove(&host.0);
    reg.awaiting_recovery = true;
    let peers: Vec<ActorId> = reg
        .daemons
        .iter()
        .filter(|(&h, _)| h != host.0)
        .map(|(_, &(a, _))| a)
        .collect();
    for p in peers {
        w.send_now(p, PeerDaemonRestarted { host: host.0 });
    }
    w.send_now(actor, RemountAll);
    w.metrics.incr("fault_daemon_restarts");
    let now = w.now().as_secs_f64();
    w.metrics.sample("daemon_restart_at_s", now);
    Some(actor)
}

/// The read-only mounts of every datanode VM image on `host`, by VM
/// index.
fn mounts_on(w: &World, host: HostIx) -> BTreeMap<usize, FsSnapshot> {
    let meta = w.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
    let cl = w.ext.get::<Cluster>().expect("Cluster missing");
    meta.datanodes
        .iter()
        .filter(|dn| cl.vm(dn.vm).host == host)
        .map(|dn| (dn.vm.0, cl.vm(dn.vm).fs.snapshot()))
        .collect()
}

/// Starts a daemon actor on `host`'s daemon `thread` with `mounts`: its
/// ring gauge registered, joined to the namenode observer list and
/// entered in the [`VreadRegistry`].
fn spawn_daemon(
    w: &mut World,
    host: HostIx,
    thread: ThreadId,
    mounts: BTreeMap<usize, FsSnapshot>,
) -> ActorId {
    let ring_gauge = w.metrics.register_gauge(&format!("ring.h{}.bytes", host.0));
    let daemon = VreadDaemon {
        host,
        thread,
        mounts,
        vfds: BTreeMap::new(),
        next_id: 0,
        reads: BTreeMap::new(),
        serves: BTreeMap::new(),
        open_waits: BTreeMap::new(),
        peer_conns: BTreeMap::new(),
        ring_gauge,
    };
    let actor = w.add_actor(&format!("vreadd{}", host.0), daemon);
    w.ext
        .get_mut::<HdfsMeta>()
        .expect("HdfsMeta missing")
        .observers
        .push(actor);
    w.ext
        .get_mut::<VreadRegistry>()
        .expect("VreadRegistry missing")
        .daemons
        .insert(host.0, (actor, thread));
    actor
}

/// Deploys one vRead daemon per host: creates the daemon threads and
/// actors, mounts (snapshots) every datanode VM image on its host,
/// registers the daemons as namenode observers, and installs the
/// [`VreadRegistry`].
///
/// Call *after* `deploy_hdfs` and any `populate_file` so the initial
/// mounts see the pre-loaded blocks (later blocks become visible through
/// the namenode-notification refresh path).
pub fn deploy_vread(w: &mut World, transport: RemoteTransport) -> Vec<ActorId> {
    w.ext.insert(VreadRegistry {
        transport,
        ..Default::default()
    });
    let host_count = w.ext.get::<Cluster>().expect("Cluster missing").hosts.len();
    (0..host_count)
        .map(|hix| {
            let host_id = w.ext.get::<Cluster>().expect("cluster").hosts[hix].host;
            let thread = w.add_thread(host_id, &format!("vreadd{hix}"));
            let mounts = mounts_on(w, HostIx(hix));
            spawn_daemon(w, HostIx(hix), thread, mounts)
        })
        .collect()
}
