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

/// Toggles the §6 "direct read bypassing the host file system" variant
/// (raw device reads with manual address translation, no host page
/// cache). Used by the ablation harness.
#[derive(Debug, Clone, Copy)]
pub struct SetBypassHostFs(pub bool);

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
    /// Hosts whose daemon is currently crashed. Clients consult this to
    /// fall back to the vanilla path instead of sending into the void.
    pub down: BTreeSet<usize>,
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

#[derive(Debug)]
enum VfdState {
    Local { dn_vm: VmId, file: FileId },
    Remote { peer_host: usize, peer_vfd: u64 },
}

struct LocalRead {
    reply_to: ActorId,
    token: u64,
    client_vm: VmId,
    dn_vm: VmId,
    file: FileId,
    next_offset: u64,
    remaining: u64,
    inflight: usize,
    span: SpanId,
}

struct RemoteRead {
    reply_to: ActorId,
    token: u64,
    client_vm: VmId,
    expected: u64,
    forwarded: u64,
    ring_inflight: usize,
    transport_done: bool,
    span: SpanId,
}

struct Serve {
    conn: ActorId,
    tag: u64,
    dn_vm: VmId,
    file: FileId,
    next_offset: u64,
    remaining: u64,
    inflight: usize,
    span: SpanId,
}

struct LocalChunkDone {
    read: u64,
    bytes: u64,
}

struct RingForwarded {
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
    local_reads: BTreeMap<u64, LocalRead>,
    remote_reads: BTreeMap<u64, RemoteRead>,
    /// Remote reads waiting for data on `(conn, tag)`.
    data_waits: BTreeMap<(u32, u64), u64>,
    /// Streams this daemon serves for peers.
    serves: BTreeMap<(u32, u64), Serve>,
    /// Pending remote opens (by requester tag).
    open_waits: BTreeMap<u64, (ActorId, u64, DatanodeIx)>,
    peer_conns: BTreeMap<usize, ActorId>,
    /// §6 ablation: bypass the host filesystem (and its page cache),
    /// reading the raw device with manual address translation.
    pub bypass_host_fs: bool,
    /// Gauge tracking bytes currently in this host's shared ring
    /// (chunks between daemon push and guest pop completion); the
    /// timeline sampler turns it into an occupancy series.
    ring_gauge: GaugeId,
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

    /// Opens `block` on a *local* datanode VM through the mounted view.
    fn open_local(
        &mut self,
        ctx: &Ctx<'_>,
        dn: DatanodeIx,
        block: BlockId,
    ) -> Option<(u64, u64, VmId)> {
        let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
        let dn_vm = meta.datanodes[dn.0].vm;
        let snap = self.mounts.get(&dn_vm.0)?;
        let (file, size) = snap.lookup(&block.path())?;
        let id = self.alloc();
        self.vfds.insert(id, VfdState::Local { dn_vm, file });
        Some((id, size, dn_vm))
    }

    fn ensure_peer_conn(&mut self, ctx: &mut Ctx<'_>, peer_host: usize) -> ActorId {
        if let Some(&c) = self.peer_conns.get(&peer_host) {
            return c;
        }
        let me = ctx.me();
        let my_thread = self.thread;
        let (peer_actor, peer_thread, transport) = {
            let reg = ctx
                .world
                .ext
                .get::<VreadRegistry>()
                .expect("VreadRegistry missing");
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

    /// Pushes the stages of the daemon reading `len` bytes at `offset`
    /// of a mounted image file (loop device + host block store + SSD)
    /// onto `st`, and returns what the host store said about the range —
    /// `pump_local` uses the outcome to pick the map-serve fast path for
    /// pure dedup hits.
    fn image_read_stages(
        &self,
        cl: &mut Cluster,
        dn_vm: VmId,
        file: FileId,
        offset: u64,
        len: u64,
        st: &mut StageList,
    ) -> ImageReadOutcome {
        let thread = self.thread;
        let c = &cl.costs;
        let mut out = ImageReadOutcome::default();
        st.push(Stage::cpu(
            thread,
            c.loop_request_cycles + c.daemon_lookup_cycles,
            CpuCategory::LoopDevice,
        ));
        let vm = &cl.vms[dn_vm.0];
        let obj = vm.fs.image();
        let hw = &mut cl.hosts[vm.host.0];
        let mut extents = vm
            .fs
            .cursor(file, offset, len)
            .expect("vfd read within snapshot size");
        while let Some(e) = extents.advance(&vm.fs) {
            if self.bypass_host_fs {
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
                    if hw.cache.content_addressed() {
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

    // -- local read streaming -------------------------------------------------

    fn pump_local(&mut self, ctx: &mut Ctx<'_>, read: u64) {
        let me = ctx.me();
        loop {
            let Some(r) = self.local_reads.get(&read) else {
                return;
            };
            if r.inflight >= DAEMON_WINDOW || r.remaining == 0 {
                return;
            }
            let (dn_vm, file, offset, client_vm, span) =
                (r.dn_vm, r.file, r.next_offset, r.client_vm, r.span);
            let (stages, take) = with_cluster(ctx.world, |cl, _w| {
                let ring = RingSpec::from_costs(&cl.costs);
                let chunk = cl
                    .costs
                    .stream_chunk_bytes
                    .min(ring.max_chunk_for_window(DAEMON_WINDOW as u64));
                let take = r.remaining.min(chunk);
                let mut stages = StageList::new();
                let outcome = self.image_read_stages(cl, dn_vm, file, offset, take, &mut stages);
                let costs = &cl.costs;
                if outcome.miss_bytes == 0 && outcome.dedup_bytes > 0 {
                    // Pure dedup hit in a content-addressed host store:
                    // the daemon maps the resident pages into the ring
                    // instead of copying — one copy per read (the guest
                    // pop) remains.
                    stages.extend(ring.daemon_map_stages(costs, self.thread, take));
                } else {
                    stages.extend(ring.daemon_push_stages(costs, self.thread, take));
                }
                let vcpu = cl.vm(client_vm).vcpu;
                stages.extend(ring.guest_pop_stages(costs, vcpu, take));
                (stages, take)
            });
            {
                let r = self.local_reads.get_mut(&read).expect("read vanished");
                r.next_offset += take;
                r.remaining -= take;
                r.inflight += 1;
            }
            ctx.world.metrics.gauge_add_to(self.ring_gauge, take as f64);
            ctx.chain_on(stages, me, LocalChunkDone { read, bytes: take }, span);
        }
    }

    // -- serve side of remote reads ---------------------------------------------

    fn pump_serve(&mut self, ctx: &mut Ctx<'_>, key: (u32, u64)) {
        let me = ctx.me();
        loop {
            let Some(s) = self.serves.get(&key) else {
                return;
            };
            if s.inflight >= DAEMON_WINDOW || s.remaining == 0 {
                return;
            }
            let transport = ctx
                .world
                .ext
                .get::<VreadRegistry>()
                .expect("registry")
                .transport;
            let (dn_vm, file, offset, span) = (s.dn_vm, s.file, s.next_offset, s.span);
            let (stages, take) = with_cluster(ctx.world, |cl, _w| {
                let take = s.remaining.min(cl.costs.stream_chunk_bytes);
                let mut stages = StageList::new();
                self.image_read_stages(cl, dn_vm, file, offset, take, &mut stages);
                if transport == RemoteTransport::Rdma {
                    // Copy into the registered memory region the NIC
                    // pushes from (the paper's "active model" on the
                    // datanode side).
                    stages.push(Stage::copy(
                        self.thread,
                        cl.costs.copy_cycles(take) / 2,
                        CpuCategory::Rdma,
                        take,
                    ));
                }
                (stages, take)
            });
            {
                let s = self.serves.get_mut(&key).expect("serve vanished");
                s.next_offset += take;
                s.remaining -= take;
                s.inflight += 1;
            }
            ctx.chain_on(stages, me, ServeChunkReady { key, bytes: take }, span);
        }
    }
}

impl Actor for VreadDaemon {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        // ---- vRead_open --------------------------------------------------
        let msg = match downcast::<VreadOpenReq>(msg) {
            Ok(req) => {
                let costs = Self::costs(ctx);
                let (dn_host, _dn_vm) = {
                    let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                    let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                    let vm = meta.datanodes[req.dn.0].vm;
                    (cl.vm(vm).host, vm)
                };
                if dn_host == self.host {
                    let opened = self.open_local(ctx, req.dn, req.block);
                    let vfd = opened.map(|(id, size, _)| Vfd {
                        id,
                        size,
                        dn: req.dn,
                        position: 0,
                    });
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
                            vfd,
                        },
                        req.span,
                    );
                } else {
                    // remote open via the peer daemon (control path)
                    let tag = self.alloc();
                    self.open_waits
                        .insert(tag, (req.reply_to, req.token, req.dn));
                    let me = ctx.me();
                    let peer = {
                        let reg = ctx.world.ext.get::<VreadRegistry>().expect("registry");
                        reg.daemons[&dn_host.0].0
                    };
                    ctx.chain_on(
                        Stage::cpu(
                            self.thread,
                            costs.eventfd_cycles + costs.rdma_post_cycles,
                            CpuCategory::Daemon,
                        ),
                        peer,
                        ROpen {
                            from: me,
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
                let state = match self.vfds.get(&req.vfd) {
                    Some(VfdState::Local { dn_vm, file }) => Some((Some((*dn_vm, *file)), None)),
                    Some(VfdState::Remote {
                        peer_host,
                        peer_vfd,
                    }) => Some((None, Some((*peer_host, *peer_vfd)))),
                    None => None,
                };
                match state {
                    Some((Some((dn_vm, file)), _)) => {
                        let read = self.alloc();
                        self.local_reads.insert(
                            read,
                            LocalRead {
                                reply_to: req.reply_to,
                                token: req.token,
                                client_vm: req.client_vm,
                                dn_vm,
                                file,
                                next_offset: req.offset,
                                remaining: req.len,
                                inflight: 0,
                                span: req.span,
                            },
                        );
                        self.pump_local(ctx, read);
                    }
                    Some((None, Some((peer_host, peer_vfd)))) => {
                        let read = self.alloc();
                        let conn = self.ensure_peer_conn(ctx, peer_host);
                        self.remote_reads.insert(
                            read,
                            RemoteRead {
                                reply_to: req.reply_to,
                                token: req.token,
                                client_vm: req.client_vm,
                                expected: req.len,
                                forwarded: 0,
                                ring_inflight: 0,
                                transport_done: false,
                                span: req.span,
                            },
                        );
                        self.data_waits.insert((conn.raw(), read), read);
                        let peer = {
                            let reg = ctx.world.ext.get::<VreadRegistry>().expect("registry");
                            reg.daemons[&peer_host].0
                        };
                        let costs = Self::costs(ctx);
                        ctx.chain_on(
                            Stage::cpu(
                                self.thread,
                                costs.eventfd_cycles + costs.rdma_post_cycles,
                                CpuCategory::Daemon,
                            ),
                            peer,
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
                    }
                    _ => {
                        // Stale/unknown descriptor (e.g. the datanode VM
                        // migrated): tell the client to reopen.
                        ctx.send(req.reply_to, VreadReadFailed { token: req.token });
                    }
                }
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
                    let peer = {
                        let reg = ctx.world.ext.get::<VreadRegistry>().expect("registry");
                        reg.daemons[&peer_host].0
                    };
                    ctx.send(peer, RClose { vfd: peer_vfd });
                }
                return;
            }
            Err(m) => m,
        };

        // ---- local chunk landed in the guest ----------------------------------
        let msg = match downcast::<LocalChunkDone>(msg) {
            Ok(done) => {
                ctx.world
                    .metrics
                    .gauge_add_to(self.ring_gauge, -(done.bytes as f64));
                let finished = {
                    let Some(r) = self.local_reads.get_mut(&done.read) else {
                        return;
                    };
                    r.inflight -= 1;
                    ctx.send(
                        r.reply_to,
                        VreadChunk {
                            token: r.token,
                            bytes: done.bytes,
                        },
                    );
                    r.remaining == 0 && r.inflight == 0
                };
                if finished {
                    let r = self.local_reads.remove(&done.read).expect("read vanished");
                    ctx.send(r.reply_to, VreadReadDone { token: r.token });
                } else {
                    self.pump_local(ctx, done.read);
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
                        vfd: opened.map(|(id, size, _)| (id, size)),
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
                        let peer_host = {
                            let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                            let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                            cl.vm(meta.datanodes[dn.0].vm).host.0
                        };
                        self.vfds.insert(
                            id,
                            VfdState::Remote {
                                peer_host,
                                peer_vfd,
                            },
                        );
                        Vfd {
                            id,
                            size,
                            dn,
                            position: 0,
                        }
                    });
                    ctx.send(reply_to, VreadOpenResp { token, vfd });
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RRead>(msg) {
            Ok(rr) => {
                let Some(VfdState::Local { dn_vm, file }) = self.vfds.get(&rr.vfd) else {
                    ctx.send(rr.from, RReadFailed { tag: rr.tag });
                    return;
                };
                let key = (rr.conn.raw(), rr.tag);
                self.serves.insert(
                    key,
                    Serve {
                        conn: rr.conn,
                        tag: rr.tag,
                        dn_vm: *dn_vm,
                        file: *file,
                        next_offset: rr.offset,
                        remaining: rr.len,
                        inflight: 0,
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
                if let Some(rr) = self.remote_reads.remove(&rf.tag) {
                    self.data_waits.retain(|_, v| *v != rf.tag);
                    ctx.send(rr.reply_to, VreadReadFailed { token: rr.token });
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
                let finished = {
                    if let Some(s) = self.serves.get_mut(&key) {
                        s.inflight -= 1;
                        s.remaining == 0 && s.inflight == 0
                    } else {
                        return;
                    }
                };
                if finished {
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
                let key = (r.conn.raw(), r.tag);
                let Some(&read) = self.data_waits.get(&key) else {
                    return;
                };
                let (client_vm, span) = {
                    let Some(rr) = self.remote_reads.get_mut(&read) else {
                        return;
                    };
                    rr.ring_inflight += 1;
                    (rr.client_vm, rr.span)
                };
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
                ctx.chain_on(
                    stages,
                    me,
                    RingForwarded {
                        read,
                        bytes: r.bytes,
                    },
                    span,
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<RingForwarded>(msg) {
            Ok(f) => {
                ctx.world
                    .metrics
                    .gauge_add_to(self.ring_gauge, -(f.bytes as f64));
                let finished = {
                    let Some(rr) = self.remote_reads.get_mut(&f.read) else {
                        return;
                    };
                    rr.ring_inflight -= 1;
                    rr.forwarded += f.bytes;
                    ctx.send(
                        rr.reply_to,
                        VreadChunk {
                            token: rr.token,
                            bytes: f.bytes,
                        },
                    );
                    rr.transport_done = rr.forwarded >= rr.expected;
                    rr.transport_done && rr.ring_inflight == 0
                };
                if finished {
                    let rr = self.remote_reads.remove(&f.read).expect("read vanished");
                    // release the data wait entries for this read
                    self.data_waits.retain(|_, v| *v != f.read);
                    ctx.send(rr.reply_to, VreadReadDone { token: rr.token });
                }
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
        let msg = match downcast::<SetBypassHostFs>(msg) {
            Ok(b) => {
                self.bypass_host_fs = b.0;
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
            let snaps: Vec<(usize, FsSnapshot)> = {
                let meta = ctx.world.ext.get::<HdfsMeta>().expect("meta");
                let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                meta.datanodes
                    .iter()
                    .filter(|dn| cl.vm(dn.vm).host == self.host)
                    .map(|dn| (dn.vm.0, cl.vm(dn.vm).fs.snapshot()))
                    .collect()
            };
            self.mounts = snaps.into_iter().collect();
        }
    }
}

/// Migrates `vm` to `to` and notifies every deployed daemon so their
/// datanode→image hash tables and mounts follow the VM (paper §6).
/// Works mid-workload: stale descriptors fail cleanly and clients
/// reopen through the correct daemon.
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
    let ring_gauge = w.metrics.register_gauge(&format!("ring.h{}.bytes", host.0));
    let daemon = VreadDaemon {
        host,
        thread,
        mounts: BTreeMap::new(),
        vfds: BTreeMap::new(),
        next_id: 0,
        local_reads: BTreeMap::new(),
        remote_reads: BTreeMap::new(),
        data_waits: BTreeMap::new(),
        serves: BTreeMap::new(),
        open_waits: BTreeMap::new(),
        peer_conns: BTreeMap::new(),
        bypass_host_fs: false,
        ring_gauge,
    };
    let actor = w.add_actor(&format!("vreadd{}", host.0), daemon);
    w.ext
        .get_mut::<HdfsMeta>()
        .expect("meta")
        .observers
        .push(actor);
    let reg = w.ext.get_mut::<VreadRegistry>().unwrap();
    reg.daemons.insert(host.0, (actor, thread));
    reg.down.remove(&host.0);
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

/// Deploys one vRead daemon per host: creates the daemon threads and
/// actors, mounts (snapshots) every datanode VM image on its host,
/// registers the daemons as namenode observers, and installs the
/// [`VreadRegistry`].
///
/// Call *after* `deploy_hdfs` and any `populate_file` so the initial
/// mounts see the pre-loaded blocks (later blocks become visible through
/// the namenode-notification refresh path).
pub fn deploy_vread(w: &mut World, transport: RemoteTransport) -> Vec<ActorId> {
    let mut reg = VreadRegistry {
        transport,
        ..Default::default()
    };
    let mut out = Vec::new();
    let host_count = w.ext.get::<Cluster>().expect("Cluster missing").hosts.len();
    for hix in 0..host_count {
        let host_id = w.ext.get::<Cluster>().expect("cluster").hosts[hix].host;
        let thread = w.add_thread(host_id, &format!("vreadd{hix}"));
        // Mount every datanode VM image on this host.
        let mut mounts = BTreeMap::new();
        {
            let meta = w.ext.get::<HdfsMeta>().expect("HdfsMeta missing");
            let cl = w.ext.get::<Cluster>().expect("cluster");
            for dn in &meta.datanodes {
                if cl.vm(dn.vm).host.0 == hix {
                    mounts.insert(dn.vm.0, cl.vm(dn.vm).fs.snapshot());
                }
            }
        }
        let ring_gauge = w.metrics.register_gauge(&format!("ring.h{hix}.bytes"));
        let daemon = VreadDaemon {
            host: HostIx(hix),
            thread,
            mounts,
            vfds: BTreeMap::new(),
            next_id: 0,
            local_reads: BTreeMap::new(),
            remote_reads: BTreeMap::new(),
            data_waits: BTreeMap::new(),
            serves: BTreeMap::new(),
            open_waits: BTreeMap::new(),
            peer_conns: BTreeMap::new(),
            bypass_host_fs: false,
            ring_gauge,
        };
        let actor = w.add_actor(&format!("vreadd{hix}"), daemon);
        w.ext
            .get_mut::<HdfsMeta>()
            .expect("meta")
            .observers
            .push(actor);
        reg.daemons.insert(hix, (actor, thread));
        out.push(actor);
    }
    w.ext.insert(reg);
    out
}
