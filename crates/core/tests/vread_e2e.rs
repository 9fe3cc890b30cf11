//! End-to-end tests of the vRead read path against the vanilla baseline.

use vread_core::daemon::{RemoteTransport, RemountAll, VfdAudit, VfdAuditReport};
use vread_core::{deploy_vread, VreadPath};
use vread_hdfs::client::{
    add_client, BlockReadPath, DfsRead, DfsReadDone, DfsWrite, DfsWriteDone, VanillaPath,
};
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::{deploy_hdfs, DatanodeIx, HdfsMeta};
use vread_host::cluster::{Cluster, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

struct App {
    client: ActorId,
    script: Vec<Op>,
    next: usize,
    done: std::rc::Rc<std::cell::RefCell<Vec<(u64, f64)>>>, // (bytes, ms)
    issued_at: SimTime,
}

#[derive(Clone)]
enum Op {
    Read { path: String, offset: u64, len: u64 },
    Write { path: String, bytes: u64 },
}

impl Actor for App {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        let issue = msg.is::<Start>() || msg.is::<DfsReadDone>() || msg.is::<DfsWriteDone>();
        if let Ok(d) = downcast::<DfsReadDone>(msg) {
            let ms = ctx.now().since(self.issued_at).as_millis_f64();
            self.done.borrow_mut().push((d.bytes, ms));
        }
        if !issue || self.next >= self.script.len() {
            return;
        }
        self.issued_at = ctx.now();
        let me = ctx.me();
        let req = self.next as u64;
        match self.script[self.next].clone() {
            Op::Read { path, offset, len } => ctx.send(
                self.client,
                DfsRead {
                    req,
                    reply_to: me,
                    path,
                    offset,
                    len,
                    pread: false,
                },
            ),
            Op::Write { path, bytes } => ctx.send(
                self.client,
                DfsWrite {
                    req,
                    reply_to: me,
                    path,
                    bytes,
                },
            ),
        }
        self.next += 1;
    }
}

struct Bed {
    w: World,
    client_vm: VmId,
    dn_local: DatanodeIx,
}

fn bed(transport: RemoteTransport, populate_before_vread: &[(&str, u64, bool)]) -> Bed {
    let mut w = World::new(23);
    let mut cl = Cluster::new(Costs::default());
    let h1 = cl.add_host(&mut w, "host1", 4, 3.2);
    let h2 = cl.add_host(&mut w, "host2", 4, 3.2);
    let client_vm = cl.add_vm(&mut w, h1, "client");
    let dn1_vm = cl.add_vm(&mut w, h1, "datanode1");
    let dn2_vm = cl.add_vm(&mut w, h2, "datanode2");
    w.ext.insert(cl);
    let (_nn, dns) = deploy_hdfs(&mut w, client_vm, &[dn1_vm, dn2_vm]);
    for (path, bytes, remote) in populate_before_vread {
        let dn = if *remote { dns[1] } else { dns[0] };
        populate_file(&mut w, path, *bytes, &Placement::One(dn));
    }
    deploy_vread(&mut w, transport);
    let _ = (dn1_vm, dn2_vm);
    Bed {
        w,
        client_vm,
        dn_local: dns[0],
    }
}

fn run(bed: &mut Bed, path_impl: Box<dyn BlockReadPath>, script: Vec<Op>) -> Vec<(u64, f64)> {
    let done = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let client = add_client(&mut bed.w, bed.client_vm, path_impl);
    let app = bed.w.add_actor(
        "app",
        App {
            client,
            script,
            next: 0,
            done: done.clone(),
            issued_at: SimTime::ZERO,
        },
    );
    bed.w.send_now(app, Start);
    bed.w.run();
    let v = done.borrow().clone();
    v
}

#[test]
fn vread_local_read_delivers_exact_bytes() {
    let mut b = bed(RemoteTransport::Rdma, &[("/f", 8 << 20, false)]);
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![Op::Read {
            path: "/f".into(),
            offset: 0,
            len: 8 << 20,
        }],
    );
    assert_eq!(done, vec![(8 << 20, done[0].1)]);
    assert!(b.w.metrics.counter("vread_opens") >= 1.0);
    assert_eq!(b.w.metrics.counter("vread_fallbacks"), 0.0);
}

#[test]
fn vread_beats_vanilla_on_colocated_read() {
    let script = vec![Op::Read {
        path: "/f".into(),
        offset: 0,
        len: 32 << 20,
    }];
    let mut bv = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let vanilla = run(&mut bv, Box::new(VanillaPath::new()), script.clone());
    let mut br = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let vread = run(&mut br, Box::new(VreadPath::new()), script);
    assert_eq!(vanilla[0].0, vread[0].0);
    assert!(
        vread[0].1 < vanilla[0].1,
        "vread ({}ms) should beat vanilla ({}ms)",
        vread[0].1,
        vanilla[0].1
    );
}

#[test]
fn vread_reread_improvement_exceeds_cold_read_improvement() {
    let script = vec![
        Op::Read {
            path: "/f".into(),
            offset: 0,
            len: 32 << 20,
        },
        Op::Read {
            path: "/f".into(),
            offset: 0,
            len: 32 << 20,
        },
    ];
    let mut bv = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let vanilla = run(&mut bv, Box::new(VanillaPath::new()), script.clone());
    let mut br = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let vread = run(&mut br, Box::new(VreadPath::new()), script);
    let cold_speedup = vanilla[0].1 / vread[0].1;
    let warm_speedup = vanilla[1].1 / vread[1].1;
    assert!(cold_speedup > 1.0, "cold speedup {cold_speedup}");
    assert!(
        warm_speedup > cold_speedup,
        "re-read speedup ({warm_speedup:.2}x) should exceed cold ({cold_speedup:.2}x)"
    );
    assert!(warm_speedup > 1.5, "paper reports up to 150% re-read gain");
}

#[test]
fn vread_saves_cpu_on_both_sides() {
    let script = vec![Op::Read {
        path: "/f".into(),
        offset: 0,
        len: 32 << 20,
    }];
    let mut bv = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let _ = run(&mut bv, Box::new(VanillaPath::new()), script.clone());
    let mut br = bed(RemoteTransport::Rdma, &[("/f", 32 << 20, false)]);
    let _ = run(&mut br, Box::new(VreadPath::new()), script);

    let total_cycles =
        |b: &Bed| -> f64 { (0..b.w.acct.len()).map(|t| b.w.acct.total_cycles(t)).sum() };
    let vanilla_cpu = total_cycles(&bv);
    let vread_cpu = total_cycles(&br);
    assert!(
        vread_cpu < vanilla_cpu * 0.75,
        "vread total CPU ({vread_cpu:.0}) should be well below vanilla ({vanilla_cpu:.0})"
    );

    // datanode-side: the datanode VM's threads do (almost) nothing under vread
    let dn_vm_threads = {
        let cl = br.w.ext.get::<Cluster>().unwrap();
        let meta = br.w.ext.get::<HdfsMeta>().unwrap();
        let vm = meta.datanodes[br.dn_local.0].vm;
        (cl.vm(vm).vcpu, cl.vm(vm).vhost)
    };
    let dn_busy =
        br.w.acct.busy_ns(dn_vm_threads.0.index()) + br.w.acct.busy_ns(dn_vm_threads.1.index());
    assert!(
        dn_busy < 1_000_000,
        "datanode VM should be idle under vread (busy {dn_busy}ns)"
    );
}

#[test]
fn vread_charges_ring_copies_not_virtio_net() {
    let mut b = bed(RemoteTransport::Rdma, &[("/f", 8 << 20, false)]);
    let _ = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![Op::Read {
            path: "/f".into(),
            offset: 0,
            len: 8 << 20,
        }],
    );
    let (vcpu, vhost) = {
        let cl = b.w.ext.get::<Cluster>().unwrap();
        (cl.vm(b.client_vm).vcpu, cl.vm(b.client_vm).vhost)
    };
    let a = &b.w.acct;
    assert!(a.cycles(vcpu.index(), CpuCategory::CopyVreadBuffer) > 0.0);
    assert_eq!(a.cycles(vcpu.index(), CpuCategory::GuestTcp), 0.0);
    assert_eq!(a.cycles(vhost.index(), CpuCategory::CopyVirtioVqueue), 0.0);
    // the daemon did loop-device work
    let reg = b.w.ext.get::<vread_core::VreadRegistry>().unwrap();
    let (_, dthread) = reg.daemons[&0];
    assert!(a.cycles(dthread.index(), CpuCategory::LoopDevice) > 0.0);
    assert!(a.cycles(dthread.index(), CpuCategory::CopyVreadBuffer) > 0.0);
}

#[test]
fn vread_remote_read_over_rdma() {
    let mut b = bed(RemoteTransport::Rdma, &[("/r", 16 << 20, true)]);
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![Op::Read {
            path: "/r".into(),
            offset: 0,
            len: 16 << 20,
        }],
    );
    assert_eq!(done[0].0, 16 << 20);
    // data crossed the remote host's NIC
    let nic2 = {
        let cl = b.w.ext.get::<Cluster>().unwrap();
        cl.hosts[1].nic
    };
    assert!(b.w.link(nic2).bytes_total >= 16 << 20);
    // RDMA category charged, vread-net (TCP fallback) untouched
    let reg = b.w.ext.get::<vread_core::VreadRegistry>().unwrap();
    let (_, d1) = reg.daemons[&0];
    let (_, d2) = reg.daemons[&1];
    let a = &b.w.acct;
    assert!(a.cycles(d2.index(), CpuCategory::Rdma) > 0.0);
    assert_eq!(a.cycles(d1.index(), CpuCategory::VreadNet), 0.0);
}

#[test]
fn vread_remote_tcp_fallback_costs_more_cpu_than_rdma() {
    let script = vec![Op::Read {
        path: "/r".into(),
        offset: 0,
        len: 16 << 20,
    }];
    let mut brdma = bed(RemoteTransport::Rdma, &[("/r", 16 << 20, true)]);
    let _ = run(&mut brdma, Box::new(VreadPath::new()), script.clone());
    let mut btcp = bed(RemoteTransport::Tcp, &[("/r", 16 << 20, true)]);
    let _ = run(&mut btcp, Box::new(VreadPath::new()), script);

    let daemon_cycles = |b: &Bed| -> f64 {
        let reg = b.w.ext.get::<vread_core::VreadRegistry>().unwrap();
        reg.daemons
            .values()
            .map(|(_, t)| b.w.acct.total_cycles(t.index()))
            .sum()
    };
    let rdma = daemon_cycles(&brdma);
    let tcp = daemon_cycles(&btcp);
    assert!(
        tcp > rdma * 1.5,
        "TCP daemons ({tcp:.0} cyc) should burn well more than RDMA ({rdma:.0} cyc)"
    );
    // the TCP variant charges the paper's "vRead-net" category
    let reg = btcp.w.ext.get::<vread_core::VreadRegistry>().unwrap();
    let (_, d2) = reg.daemons[&1];
    assert!(btcp.w.acct.cycles(d2.index(), CpuCategory::VreadNet) > 0.0);
}

#[test]
fn blocks_written_after_mount_become_visible_via_namenode_refresh() {
    // Write through HDFS (datanode finalization notifies the namenode,
    // which triggers the daemons' mount refresh), then vread-read it.
    let mut b = bed(RemoteTransport::Rdma, &[]);
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![
            Op::Write {
                path: "/w".into(),
                bytes: 6 << 20,
            },
            Op::Read {
                path: "/w".into(),
                offset: 0,
                len: 6 << 20,
            },
        ],
    );
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, 6 << 20);
    // the read went through vread, not the fallback
    assert_eq!(b.w.metrics.counter("vread_fallbacks"), 0.0);
    assert!(b.w.metrics.counter("vread_opens") >= 1.0);
}

#[test]
fn stale_mount_falls_back_to_vanilla_and_still_delivers() {
    // Populate *after* deploy_vread without namenode notifications: the
    // daemon's mounted view is stale, vRead_open fails, Algorithm 1 line
    // 22 falls back to the vanilla read.
    let mut b = bed(RemoteTransport::Rdma, &[]);
    populate_file(&mut b.w, "/late", 4 << 20, &Placement::One(b.dn_local));
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![Op::Read {
            path: "/late".into(),
            offset: 0,
            len: 4 << 20,
        }],
    );
    assert_eq!(done[0].0, 4 << 20);
    assert!(b.w.metrics.counter("vread_fallbacks") >= 1.0);
}

#[test]
fn remount_all_makes_late_blocks_visible() {
    let mut b = bed(RemoteTransport::Rdma, &[]);
    populate_file(&mut b.w, "/late", 4 << 20, &Placement::One(b.dn_local));
    let daemon0 = {
        let reg = b.w.ext.get::<vread_core::VreadRegistry>().unwrap();
        reg.daemons[&0].0
    };
    b.w.send_now(daemon0, RemountAll);
    b.w.run();
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![Op::Read {
            path: "/late".into(),
            offset: 0,
            len: 4 << 20,
        }],
    );
    assert_eq!(done[0].0, 4 << 20);
    assert_eq!(b.w.metrics.counter("vread_fallbacks"), 0.0);
}

#[test]
fn descriptor_reuse_within_block_scan() {
    let mut b = bed(RemoteTransport::Rdma, &[("/f", 8 << 20, false)]);
    // Several sequential 1MB requests within one 64MB block: one open,
    // descriptor reused thereafter (Algorithm 1).
    let script: Vec<Op> = (0..8)
        .map(|i| Op::Read {
            path: "/f".into(),
            offset: i * (1 << 20),
            len: 1 << 20,
        })
        .collect();
    let done = run(&mut b, Box::new(VreadPath::new()), script);
    assert_eq!(done.len(), 8);
    assert!(done.iter().all(|d| d.0 == 1 << 20));
    assert_eq!(b.w.metrics.counter("vread_opens"), 1.0);
}

#[test]
fn vread_partial_and_offset_reads() {
    let mut b = bed(RemoteTransport::Rdma, &[("/f", 8 << 20, false)]);
    let done = run(
        &mut b,
        Box::new(VreadPath::new()),
        vec![
            Op::Read {
                path: "/f".into(),
                offset: 3 << 20,
                len: 2 << 20,
            },
            Op::Read {
                path: "/f".into(),
                offset: 7 << 20,
                len: 4 << 20,
            }, // truncated at EOF
        ],
    );
    assert_eq!(done[0].0, 2 << 20);
    assert_eq!(done[1].0, 1 << 20);
}

#[test]
fn write_path_unaffected_by_vread_deployment() {
    // Fig 13: mount refresh must not hurt writes. Compare write latency
    // with and without vread deployed.
    let script = vec![Op::Write {
        path: "/out".into(),
        bytes: 16 << 20,
    }];
    // without vread
    let mut w1 = World::new(23);
    let mut cl = Cluster::new(Costs::default());
    let h1 = cl.add_host(&mut w1, "host1", 4, 3.2);
    let client_vm = cl.add_vm(&mut w1, h1, "client");
    let dn_vm = cl.add_vm(&mut w1, h1, "dn");
    w1.ext.insert(cl);
    deploy_hdfs(&mut w1, client_vm, &[dn_vm]);
    let t1 = {
        let done = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        let client = add_client(&mut w1, client_vm, Box::new(VanillaPath::new()));
        let app = w1.add_actor(
            "app",
            App {
                client,
                script: script.clone(),
                next: 0,
                done,
                issued_at: SimTime::ZERO,
            },
        );
        w1.send_now(app, Start);
        w1.run();
        w1.now()
    };
    // with vread
    let mut b = bed(RemoteTransport::Rdma, &[]);
    let t0 = b.w.now();
    let _ = run(&mut b, Box::new(VreadPath::new()), script);
    let t2 = b.w.now().since(t0);
    let base = t1.since(SimTime::ZERO);
    let ratio = t2.as_secs_f64() / base.as_secs_f64();
    assert!(
        ratio < 1.05,
        "vread write overhead should be negligible (ratio {ratio:.3})"
    );
}

/// Collects every daemon's [`VfdAuditReport`] as `(host, vfds)`.
struct AuditSink {
    reports: std::rc::Rc<std::cell::RefCell<Vec<(usize, usize)>>>,
}

impl Actor for AuditSink {
    fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
        if let Ok(r) = downcast::<VfdAuditReport>(msg) {
            self.reports.borrow_mut().push((r.host, r.vfds));
        }
    }
}

fn audit_vfds(w: &mut World) -> Vec<(usize, usize)> {
    let reports = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let sink = w.add_actor(
        "audit",
        AuditSink {
            reports: reports.clone(),
        },
    );
    let daemons: Vec<ActorId> = w
        .ext
        .get::<vread_core::VreadRegistry>()
        .unwrap()
        .daemons
        .values()
        .map(|(a, _)| *a)
        .collect();
    for d in daemons {
        w.send_now(d, VfdAudit { reply_to: sink });
    }
    w.run();
    let mut out = reports.borrow().clone();
    out.sort_unstable();
    out
}

#[test]
fn ring_reads_drain_ring_and_descriptors_from_either_source() {
    // Not a multiple of any chunk size: the last ring chunk is partial.
    let len = (5 << 20) + 4321;
    for (transport, remote) in [
        (RemoteTransport::Rdma, false),
        (RemoteTransport::Rdma, true),
        (RemoteTransport::Tcp, true),
    ] {
        let case = format!("{transport:?}, remote {remote}");
        let mut b = bed(transport, &[("/f", len, remote)]);
        let done = run(
            &mut b,
            Box::new(VreadPath::new()),
            vec![Op::Read {
                path: "/f".into(),
                offset: 0,
                len,
            }],
        );
        assert_eq!(done.len(), 1, "{case}");
        assert_eq!(done[0].0, len, "{case}: the guest got exactly the file");
        assert_eq!(b.w.metrics.counter("vread_fallbacks"), 0.0, "{case}");
        let rings: Vec<(String, f64)> =
            b.w.metrics
                .gauges()
                .filter(|(k, _, _)| k.starts_with("ring.h"))
                .map(|(k, _, v)| (k.to_owned(), v))
                .collect();
        assert!(!rings.is_empty(), "{case}: the read went through a ring");
        assert!(
            rings.iter().all(|&(_, v)| v == 0.0),
            "{case}: ring gauges drain: {rings:?}"
        );
        assert_eq!(
            audit_vfds(&mut b.w),
            vec![(0, 0), (1, 0)],
            "{case}: descriptor tables drain"
        );
    }
}
