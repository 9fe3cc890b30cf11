//! Bidirectional, in-order connections.
//!
//! A [`Conn`] is an actor standing between two [`Endpoint`]s. Each
//! direction carries a FIFO of messages, split into chunks of
//! `Costs::stream_chunk_bytes`, and each chunk is a [`Stage`] chain
//! across the threads of the chosen transport [`Flavor`]. A message's
//! chunks all start when it is sent and complete in order (per-thread
//! work queues and links are FIFO), so delivery is in order without
//! sequence numbers.

use std::collections::VecDeque;

use vread_host::cluster::{Cluster, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// Which side of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first endpoint passed to [`add_conn`].
    A,
    /// The second endpoint.
    B,
}

impl Side {
    fn ix(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// How an endpoint attaches to the network.
#[derive(Debug, Clone, Copy)]
pub enum Flavor {
    /// An application inside a VM: guest TCP stack + virtio-net/vhost.
    Guest(VmId),
    /// A user-space process on the host kernel's TCP stack (the vRead
    /// daemon's TCP fallback). `cat` is the accounting category for its
    /// network work (the paper's "vRead-net").
    HostUser {
        /// The host thread running the process.
        thread: ThreadId,
        /// Accounting category for socket work.
        cat: CpuCategory,
    },
    /// RDMA verbs on a RoCE NIC: per-work-request CPU only, NIC DMAs the
    /// payload.
    Rdma {
        /// The host thread posting/polling verbs.
        thread: ThreadId,
    },
}

/// One end of a connection.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    /// The actor that receives [`ConnRecv`] deliveries for this side.
    pub actor: ActorId,
    /// Transport attachment.
    pub flavor: Flavor,
}

/// Ask the connection to transmit `bytes` from `dir` to the other side.
#[derive(Debug, Clone, Copy)]
pub struct ConnSend {
    /// The sending side.
    pub dir: Side,
    /// Payload size.
    pub bytes: u64,
    /// Caller-chosen tag, echoed in [`ConnRecv`]/[`ConnSent`].
    pub tag: u64,
    /// Whether to deliver a [`ConnSent`] ack to the sender when the whole
    /// message has been delivered.
    pub notify: bool,
    /// Span the transfer's CPU work and copies are attributed to
    /// ([`SpanId::NONE`] for untraced traffic).
    pub span: SpanId,
}

/// Delivered to the receiving endpoint when a whole message has arrived.
#[derive(Debug, Clone, Copy)]
pub struct ConnRecv {
    /// The connection actor (reply address).
    pub conn: ActorId,
    /// The side that received (i.e. *this* endpoint's side).
    pub side: Side,
    /// Payload size.
    pub bytes: u64,
    /// Sender's tag.
    pub tag: u64,
}

/// Delivered to the sending endpoint when its message finished arriving
/// (requested via [`ConnSend::notify`]).
#[derive(Debug, Clone, Copy)]
pub struct ConnSent {
    /// The connection actor.
    pub conn: ActorId,
    /// Sender's tag.
    pub tag: u64,
}

/// Resolved per-side transport data (threads, NIC, host).
#[derive(Debug, Clone, Copy)]
struct End {
    actor: ActorId,
    flavor: Flavor,
    host: usize,
    nic: LinkId,
    vcpu: ThreadId,
    vhost: ThreadId,
}

#[derive(Debug)]
struct InMsg {
    tag: u64,
    bytes: u64,
    chunks_left: u64,
    notify: bool,
}

#[derive(Debug, Default)]
struct DirState {
    arriving: VecDeque<InMsg>,
    connected: bool,
}

/// Internal chunk-completion message.
struct ChunkDone {
    side_ix: usize,
}

/// The connection actor. Create with [`add_conn`].
pub struct Conn {
    ends: [End; 2],
    dirs: [DirState; 2],
    costs: Costs,
    inter_host: bool,
}

/// Creates a connection between `a` and `b` and registers it with the
/// world. Returns the connection's actor id, which both endpoints use as
/// the destination for [`ConnSend`] messages.
///
/// # Panics
///
/// Panics if an endpoint references an unknown VM.
pub fn add_conn(w: &mut World, cl: &Cluster, a: Endpoint, b: Endpoint) -> ActorId {
    let resolve = |e: Endpoint| -> End {
        match e.flavor {
            Flavor::Guest(vm) => {
                let v = cl.vm(vm);
                let hw = &cl.hosts[v.host.0];
                End {
                    actor: e.actor,
                    flavor: e.flavor,
                    host: v.host.0,
                    nic: hw.nic,
                    vcpu: v.vcpu,
                    vhost: v.vhost,
                }
            }
            Flavor::HostUser { thread, .. } | Flavor::Rdma { thread } => {
                let hix = cl
                    .hosts
                    .iter()
                    .position(|h| h.host == w.thread_host(thread))
                    .expect("endpoint thread not on a cluster host");
                End {
                    actor: e.actor,
                    flavor: e.flavor,
                    host: hix,
                    nic: cl.hosts[hix].nic,
                    vcpu: thread,
                    vhost: thread,
                }
            }
        }
    };
    let ea = resolve(a);
    let eb = resolve(b);
    let conn = Conn {
        inter_host: ea.host != eb.host,
        ends: [ea, eb],
        dirs: [DirState::default(), DirState::default()],
        costs: cl.costs.clone(),
    };
    w.add_actor("conn", conn)
}

impl Conn {
    /// Builds the stage chain for one chunk travelling `from` → `to`.
    fn chunk_stages(&self, from: usize, bytes: u64) -> StageList {
        let to = 1 - from;
        let c = &self.costs;
        let snd = &self.ends[from];
        let rcv = &self.ends[to];
        let mut st = StageList::new();

        // --- sender side ---
        // SR-IOV / VT-d device assignment (paper §6) skips the vhost-net
        // copies on inter-host paths only: it does not help the co-located
        // (inter-VM) case vRead targets.
        let sriov_direct = c.sriov_nics && self.inter_host;
        match snd.flavor {
            Flavor::Guest(_) => {
                // guest TCP tx: syscall, user->skb copy, stack work
                st.push(Stage::copy(
                    snd.vcpu,
                    c.syscall_cycles + c.copy_cycles(bytes) + c.tcp_tx_cycles(bytes),
                    CpuCategory::GuestTcp,
                    bytes,
                ));
                if sriov_direct {
                    // SR-IOV VF: the NIC DMAs straight out of guest
                    // memory — no vhost, no host stack.
                } else {
                    // vhost: kick handling + guest->host vqueue copy
                    st.push(Stage::cpu(
                        snd.vhost,
                        c.vhost_kick_cycles,
                        CpuCategory::VhostNet,
                    ));
                    st.push(Stage::copy(
                        snd.vhost,
                        c.copy_cycles(bytes),
                        CpuCategory::CopyVirtioVqueue,
                        bytes,
                    ));
                    if self.inter_host {
                        st.push(Stage::cpu(
                            snd.vhost,
                            c.host_tcp_cycles(bytes),
                            CpuCategory::HostTcp,
                        ));
                    }
                }
            }
            Flavor::HostUser { thread, cat } => {
                st.push(Stage::copy(
                    thread,
                    c.syscall_cycles + c.copy_cycles(bytes) + c.host_tcp_cycles(bytes),
                    cat,
                    bytes,
                ));
            }
            Flavor::Rdma { thread } => {
                st.push(Stage::cpu(thread, c.rdma_post_cycles, CpuCategory::Rdma));
            }
        }

        // --- wire ---
        if self.inter_host {
            st.push(Stage::link(snd.nic, bytes));
        }

        // --- receiver side ---
        match rcv.flavor {
            Flavor::Guest(_) => {
                if sriov_direct {
                    // VF delivers into guest memory; only the interrupt
                    // (posted via the IOMMU) costs anything.
                    st.push(Stage::cpu(
                        rcv.vcpu,
                        c.irq_inject_cycles / 2,
                        CpuCategory::Other,
                    ));
                } else {
                    if self.inter_host {
                        st.push(Stage::cpu(
                            rcv.vhost,
                            c.host_tcp_cycles(bytes),
                            CpuCategory::HostTcp,
                        ));
                    }
                    // host->guest vqueue copy + interrupt injection
                    st.push(Stage::copy(
                        rcv.vhost,
                        c.copy_cycles(bytes),
                        CpuCategory::CopyVirtioVqueue,
                        bytes,
                    ));
                    st.push(Stage::cpu(
                        rcv.vhost,
                        c.irq_inject_cycles,
                        CpuCategory::VhostNet,
                    ));
                }
                // guest TCP rx + kernel->app copy
                st.push(Stage::cpu(
                    rcv.vcpu,
                    c.tcp_rx_cycles(bytes),
                    CpuCategory::GuestTcp,
                ));
                // The paper charges the kernel→application copy to the
                // application ("client-application" in Fig 6a).
                st.push(Stage::copy(
                    rcv.vcpu,
                    c.syscall_cycles + c.copy_cycles(bytes),
                    CpuCategory::ClientApp,
                    bytes,
                ));
            }
            Flavor::HostUser { thread, cat } => {
                st.push(Stage::copy(
                    thread,
                    c.syscall_cycles + c.copy_cycles(bytes) + c.host_tcp_cycles(bytes),
                    cat,
                    bytes,
                ));
            }
            Flavor::Rdma { thread } => {
                st.push(Stage::cpu(thread, c.rdma_cqe_cycles, CpuCategory::Rdma));
            }
        }
        st
    }
}

impl Actor for Conn {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        let msg = match downcast::<ConnSend>(msg) {
            Ok(send) => {
                let six = send.dir.ix();
                let chunks = send.bytes.div_ceil(self.costs.stream_chunk_bytes).max(1);
                let d = &mut self.dirs[six];
                if !d.connected {
                    // Lazy three-way handshake: charged once per direction.
                    d.connected = true;
                    // Handshake CPU charged on both ends' primary threads.
                    let setup = self.costs.tcp_conn_setup_cycles;
                    if !matches!(self.ends[six].flavor, Flavor::Rdma { .. }) {
                        let me = ctx.me();
                        ctx.chain(
                            vec![
                                Stage::cpu(self.ends[six].vcpu, setup, CpuCategory::GuestTcp),
                                Stage::cpu(self.ends[1 - six].vcpu, setup, CpuCategory::GuestTcp),
                            ],
                            me,
                            (),
                        );
                    }
                }
                self.dirs[six].arriving.push_back(InMsg {
                    tag: send.tag,
                    bytes: send.bytes,
                    chunks_left: chunks,
                    notify: send.notify,
                });
                // Every chunk starts now; a zero-byte message still sends
                // one 1-byte chunk.
                let me = ctx.me();
                let mut left = send.bytes;
                for _ in 0..chunks {
                    let take = left.min(self.costs.stream_chunk_bytes).max(1);
                    left -= take.min(left);
                    let stages = self.chunk_stages(six, take);
                    ctx.chain_on(stages, me, ChunkDone { side_ix: six }, send.span);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(done) = downcast::<ChunkDone>(msg) {
            let six = done.side_ix;
            let mut deliver: Option<InMsg> = None;
            {
                let d = &mut self.dirs[six];
                if let Some(front) = d.arriving.front_mut() {
                    front.chunks_left -= 1;
                    if front.chunks_left == 0 {
                        deliver = d.arriving.pop_front();
                    }
                }
            }
            if let Some(m) = deliver {
                let me = ctx.me();
                let rcv_side = if six == 0 { Side::B } else { Side::A };
                ctx.send(
                    self.ends[1 - six].actor,
                    ConnRecv {
                        conn: me,
                        side: rcv_side,
                        bytes: m.bytes,
                        tag: m.tag,
                    },
                );
                if m.notify {
                    ctx.send(
                        self.ends[six].actor,
                        ConnSent {
                            conn: me,
                            tag: m.tag,
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
    use vread_host::with_cluster;

    struct Probe {
        echo: bool,
        recvd: Vec<(u64, u64)>, // (tag, bytes)
        acks: Vec<u64>,
    }

    impl Actor for Probe {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            let msg = match downcast::<ConnRecv>(msg) {
                Ok(r) => {
                    self.recvd.push((r.tag, r.bytes));
                    let ms = ctx.now().as_secs_f64() * 1e3;
                    ctx.metrics().sample("recv_ms", ms);
                    if self.echo {
                        ctx.send(
                            r.conn,
                            ConnSend {
                                dir: r.side,
                                bytes: r.bytes,
                                tag: r.tag,
                                notify: false,
                                span: SpanId::NONE,
                            },
                        );
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok(s) = downcast::<ConnSent>(msg) {
                self.acks.push(s.tag);
            }
        }
    }

    fn two_vm_world() -> (World, VmId, VmId) {
        two_vm_world_with(Costs::default())
    }

    fn two_vm_world_with(costs: Costs) -> (World, VmId, VmId) {
        let mut w = World::new(7);
        let mut cl = Cluster::new(costs);
        let h = cl.add_host(&mut w, "h", 4, 3.2);
        let a = cl.add_vm(&mut w, h, "vmA");
        let b = cl.add_vm(&mut w, h, "vmB");
        w.ext.insert(cl);
        (w, a, b)
    }

    #[test]
    fn intra_host_delivery_and_categories() {
        let (mut w, vma, vmb) = two_vm_world();
        let pa = w.add_actor(
            "pa",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let pb = w.add_actor(
            "pb",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Guest(vma),
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Guest(vmb),
                },
            )
        });
        w.send_now(
            conn,
            ConnSend {
                dir: Side::A,
                bytes: 1 << 20,
                tag: 42,
                notify: true,
                span: SpanId::NONE,
            },
        );
        w.run();
        // delivered + acked
        let (vma_vhost, vmb_vhost) = {
            let cl = w.ext.get::<Cluster>().unwrap();
            (cl.vm(vma).vhost, cl.vm(vmb).vhost)
        };
        // vqueue copies charged on both vhost threads
        assert!(
            w.acct
                .cycles(vma_vhost.index(), CpuCategory::CopyVirtioVqueue)
                > 0.0
        );
        assert!(
            w.acct
                .cycles(vmb_vhost.index(), CpuCategory::CopyVirtioVqueue)
                > 0.0
        );
        // no physical-NIC TCP on the intra-host path
        assert_eq!(w.acct.cycles(vma_vhost.index(), CpuCategory::HostTcp), 0.0);
        assert_eq!(w.metrics.samples("recv_ms").unwrap().count(), 1);
    }

    #[test]
    fn receiver_sees_whole_message_once() {
        let (mut w, vma, vmb) = two_vm_world();
        struct Collect {
            got: std::rc::Rc<std::cell::RefCell<Vec<(u64, u64)>>>,
        }
        impl Actor for Collect {
            fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
                if let Ok(r) = downcast::<ConnRecv>(msg) {
                    self.got.borrow_mut().push((r.tag, r.bytes));
                }
            }
        }
        let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        let pa = w.add_actor("pa", Collect { got: got.clone() });
        let pb = w.add_actor("pb", Collect { got: got.clone() });
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Guest(vma),
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Guest(vmb),
                },
            )
        });
        // several messages, including one spanning many chunks
        for (tag, bytes) in [(1u64, 100u64), (2, 5 << 20), (3, 4096)] {
            w.send_now(
                conn,
                ConnSend {
                    dir: Side::A,
                    bytes,
                    tag,
                    notify: false,
                    span: SpanId::NONE,
                },
            );
        }
        w.run();
        assert_eq!(*got.borrow(), vec![(1, 100), (2, 5 << 20), (3, 4096)]);
    }

    #[test]
    fn rpc_round_trip_echo() {
        let (mut w, vma, vmb) = two_vm_world();
        let pa = w.add_actor(
            "pa",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let pb = w.add_actor(
            "pb",
            Probe {
                echo: true,
                recvd: vec![],
                acks: vec![],
            },
        );
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Guest(vma),
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Guest(vmb),
                },
            )
        });
        w.send_now(
            conn,
            ConnSend {
                dir: Side::A,
                bytes: 32 * 1024,
                tag: 9,
                notify: false,
                span: SpanId::NONE,
            },
        );
        w.run();
        // Two receive events: B got the request, A got the echo.
        assert_eq!(w.metrics.samples("recv_ms").unwrap().count(), 2);
        // An intra-host 32KB round trip completes within a few hundred us.
        let rtt = w.metrics.samples("recv_ms").unwrap().quantile(1.0);
        assert!(rtt < 0.5, "RTT {rtt}ms too slow for idle host");
    }

    #[test]
    fn inter_host_path_uses_link_and_host_tcp() {
        let mut w = World::new(7);
        let mut cl = Cluster::new(Costs::default());
        let h1 = cl.add_host(&mut w, "h1", 4, 3.2);
        let h2 = cl.add_host(&mut w, "h2", 4, 3.2);
        let vma = cl.add_vm(&mut w, h1, "vmA");
        let vmb = cl.add_vm(&mut w, h2, "vmB");
        let nic1 = cl.hosts[h1.0].nic;
        w.ext.insert(cl);
        let pa = w.add_actor(
            "pa",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let pb = w.add_actor(
            "pb",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Guest(vma),
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Guest(vmb),
                },
            )
        });
        w.send_now(
            conn,
            ConnSend {
                dir: Side::A,
                bytes: 1 << 20,
                tag: 1,
                notify: false,
                span: SpanId::NONE,
            },
        );
        w.run();
        assert!(
            w.link(nic1).bytes_total >= 1 << 20,
            "payload crossed the NIC"
        );
        let cl = w.ext.get::<Cluster>().unwrap();
        let vhost_a = cl.vm(vma).vhost;
        assert!(w.acct.cycles(vhost_a.index(), CpuCategory::HostTcp) > 0.0);
    }

    #[test]
    fn rdma_transfers_with_minimal_cpu() {
        let mut w = World::new(7);
        let mut cl = Cluster::new(Costs::default());
        let h1 = cl.add_host(&mut w, "h1", 4, 3.2);
        let h2 = cl.add_host(&mut w, "h2", 4, 3.2);
        let d1 = w.add_thread(cl.hosts[h1.0].host, "daemon1");
        let d2 = w.add_thread(cl.hosts[h2.0].host, "daemon2");
        w.ext.insert(cl);
        let pa = w.add_actor(
            "pa",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let pb = w.add_actor(
            "pb",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Rdma { thread: d1 },
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Rdma { thread: d2 },
                },
            )
        });
        w.send_now(
            conn,
            ConnSend {
                dir: Side::A,
                bytes: 16 << 20,
                tag: 5,
                notify: false,
                span: SpanId::NONE,
            },
        );
        w.run();
        // 16 MB over RDMA: tiny CPU (only per-WR costs, no per-byte work)
        let cpu = w.acct.total_cycles(d1.index()) + w.acct.total_cycles(d2.index());
        let per_byte = cpu / (16u64 << 20) as f64;
        assert!(per_byte < 0.05, "RDMA burned {per_byte} cyc/B");
        assert_eq!(w.metrics.samples("recv_ms").unwrap().count(), 1);
    }

    /// Default costs with SR-IOV device assignment on.
    fn sriov_costs() -> Costs {
        Costs {
            sriov_nics: true,
            ..Costs::default()
        }
    }

    #[test]
    fn sriov_skips_vhost_on_inter_host_paths() {
        // A guest sender on h1 to a guest on h2, and to a host-user
        // process on h2 (the sqoop -> mysqld shape).
        for to_guest in [true, false] {
            let mut w = World::new(7);
            let mut cl = Cluster::new(sriov_costs());
            let h1 = cl.add_host(&mut w, "h1", 4, 3.2);
            let h2 = cl.add_host(&mut w, "h2", 4, 3.2);
            let vma = cl.add_vm(&mut w, h1, "vmA");
            let vmb = cl.add_vm(&mut w, h2, "vmB");
            let server = w.add_thread(cl.hosts[h2.0].host, "server");
            w.ext.insert(cl);
            let pa = w.add_actor(
                "pa",
                Probe {
                    echo: false,
                    recvd: vec![],
                    acks: vec![],
                },
            );
            let pb = w.add_actor(
                "pb",
                Probe {
                    echo: false,
                    recvd: vec![],
                    acks: vec![],
                },
            );
            let rcv = if to_guest {
                Flavor::Guest(vmb)
            } else {
                Flavor::HostUser {
                    thread: server,
                    cat: CpuCategory::Mysql,
                }
            };
            let conn = with_cluster(&mut w, |cl, w| {
                add_conn(
                    w,
                    cl,
                    Endpoint {
                        actor: pa,
                        flavor: Flavor::Guest(vma),
                    },
                    Endpoint {
                        actor: pb,
                        flavor: rcv,
                    },
                )
            });
            w.send_now(
                conn,
                ConnSend {
                    dir: Side::A,
                    bytes: 4 << 20,
                    tag: 1,
                    notify: false,
                    span: SpanId::NONE,
                },
            );
            w.run();
            let cl = w.ext.get::<Cluster>().unwrap();
            let (vhost_a, vhost_b, nic1) = (cl.vm(vma).vhost, cl.vm(vmb).vhost, cl.hosts[0].nic);
            // no vhost stages or host TCP on either side; payload still
            // crossed the physical link
            for (t, cat) in [
                (vhost_a, CpuCategory::CopyVirtioVqueue),
                (vhost_a, CpuCategory::VhostNet),
                (vhost_a, CpuCategory::HostTcp),
                (vhost_b, CpuCategory::CopyVirtioVqueue),
            ] {
                assert_eq!(
                    w.acct.cycles(t.index(), cat),
                    0.0,
                    "{cat:?}, to_guest {to_guest}"
                );
            }
            assert!(w.link(nic1).bytes_total >= 4 << 20);
            assert_eq!(w.metrics.samples("recv_ms").unwrap().count(), 1);
        }
    }

    #[test]
    fn sriov_does_not_change_the_intra_host_path() {
        let (mut w, vma, vmb) = two_vm_world_with(sriov_costs());
        let pa = w.add_actor(
            "pa",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let pb = w.add_actor(
            "pb",
            Probe {
                echo: false,
                recvd: vec![],
                acks: vec![],
            },
        );
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint {
                    actor: pa,
                    flavor: Flavor::Guest(vma),
                },
                Endpoint {
                    actor: pb,
                    flavor: Flavor::Guest(vmb),
                },
            )
        });
        w.send_now(
            conn,
            ConnSend {
                dir: Side::A,
                bytes: 1 << 20,
                tag: 1,
                notify: false,
                span: SpanId::NONE,
            },
        );
        w.run();
        // the paper's §6 point: device assignment does not help inter-VM
        // traffic on the same host — the vhost copies remain
        let cl = w.ext.get::<Cluster>().unwrap();
        let vhost_a = cl.vm(vma).vhost;
        assert!(
            w.acct
                .cycles(vhost_a.index(), CpuCategory::CopyVirtioVqueue)
                > 0.0
        );
    }
}
