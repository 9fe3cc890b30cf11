//! Tests of the §3.5 reliability story: a daemon crash mid-read degrades
//! to the vanilla path (no data loss), a restart re-registers + remounts
//! and restores the fast path, and descriptor tables drain rather than
//! leak across closes and migrations.

use vread_core::daemon::{migrate_vm_with_vread, RemoteTransport, VfdAudit, VfdAuditReport};
use vread_core::{deploy_vread, CrashDaemon, RestartDaemon, VreadPath};
use vread_hdfs::client::{add_client, BlockReadPath, DfsRead, DfsReadDone};
use vread_hdfs::deploy_hdfs;
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::DatanodeIx;
use vread_host::cluster::{Cluster, HostIx, VmId};
use vread_host::costs::Costs;
use vread_sim::fault::{schedule_faults, FaultAction, FaultTrace};
use vread_sim::prelude::*;

struct Bed {
    w: World,
    client_vm: VmId,
    dn1_vm: VmId,
    dn_local: DatanodeIx,
    h1: HostIx,
    h2: HostIx,
}

fn bed(file_bytes: u64) -> Bed {
    let mut w = World::new(31);
    let mut cl = Cluster::new(Costs::default());
    let h1 = cl.add_host(&mut w, "h1", 4, 3.2);
    let h2 = cl.add_host(&mut w, "h2", 4, 3.2);
    let client_vm = cl.add_vm(&mut w, h1, "client");
    let dn1_vm = cl.add_vm(&mut w, h1, "dn1");
    let dn2_vm = cl.add_vm(&mut w, h2, "dn2");
    w.ext.insert(cl);
    let (_nn, dns) = deploy_hdfs(&mut w, client_vm, &[dn1_vm, dn2_vm]);
    populate_file(&mut w, "/f", file_bytes, &Placement::One(dns[0]));
    deploy_vread(&mut w, RemoteTransport::Rdma);
    Bed {
        w,
        client_vm,
        dn1_vm,
        dn_local: dns[0],
        h1,
        h2,
    }
}

/// Issues `script` reads sequentially, recording (bytes, end-time-ms).
struct App {
    client: ActorId,
    script: Vec<(u64, u64)>, // (offset, len)
    next: usize,
    done: std::rc::Rc<std::cell::RefCell<Vec<(u64, f64)>>>,
}

impl Actor for App {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                self.done
                    .borrow_mut()
                    .push((d.bytes, ctx.now().as_secs_f64() * 1e3));
            }
            Err(m) => {
                if !m.is::<Start>() {
                    return;
                }
            }
        }
        if self.next >= self.script.len() {
            return;
        }
        let (offset, len) = self.script[self.next];
        self.next += 1;
        let me = ctx.me();
        ctx.send(
            self.client,
            DfsRead {
                req: self.next as u64,
                reply_to: me,
                path: "/f".into(),
                offset,
                len,
                pread: false,
            },
        );
    }
}

fn run_reads(bed: &mut Bed, script: Vec<(u64, u64)>) -> Vec<(u64, f64)> {
    let done = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let client = add_client(
        &mut bed.w,
        bed.client_vm,
        Box::new(VreadPath::new()) as Box<dyn BlockReadPath>,
    );
    let app = bed.w.add_actor(
        "app",
        App {
            client,
            script,
            next: 0,
            done: done.clone(),
        },
    );
    bed.w.send_now(app, Start);
    bed.w.run();
    let v = done.borrow().clone();
    v
}

/// Collects a [`VfdAuditReport`] from every live daemon, keyed by host.
struct AuditSink {
    reports: std::rc::Rc<std::cell::RefCell<Vec<VfdAuditReport>>>,
}

impl Actor for AuditSink {
    fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
        if let Ok(r) = downcast::<VfdAuditReport>(msg) {
            self.reports.borrow_mut().push(*r);
        }
    }
}

fn audit_daemons(w: &mut World) -> Vec<(usize, usize, usize)> {
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
        .expect("registry")
        .daemons
        .values()
        .map(|(a, _)| *a)
        .collect();
    for d in daemons {
        w.send_now(d, VfdAudit { reply_to: sink });
    }
    w.run();
    let mut out: Vec<(usize, usize, usize)> = reports
        .borrow()
        .iter()
        .map(|r| (r.host, r.vfds, r.mounts))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn daemon_crash_mid_read_completes_via_fallback() {
    // Baseline: same read without the fault.
    let mut clean = bed(128 << 20);
    let clean_done = run_reads(&mut clean, vec![(0, 128 << 20)]);

    let mut b = bed(128 << 20);
    let at = SimTime::ZERO + SimDuration::from_millis(100);
    schedule_faults(
        &mut b.w,
        vec![(
            at,
            Box::new(CrashDaemon { host: b.h1 }) as Box<dyn FaultAction>,
        )],
        FaultTrace {
            window_start: at,
            window_end: at,
        },
    );
    let done = run_reads(&mut b, vec![(0, 128 << 20)]);

    assert_eq!(done[0].0, 128 << 20, "no data loss across the crash");
    assert_eq!(b.w.metrics.counter("fault_daemon_crashes"), 1.0);
    assert!(
        b.w.metrics.counter("vread_fallbacks") >= 1.0,
        "outage is served through the vanilla fallback"
    );
    assert!(
        done[0].1 > clean_done[0].1,
        "the outage costs time ({:.1}ms vs {:.1}ms clean)",
        done[0].1,
        clean_done[0].1
    );
}

#[test]
fn daemon_restart_restores_fast_path() {
    let mut b = bed(128 << 20);
    let (crash_at, restart_at) = (
        SimTime::ZERO + SimDuration::from_millis(100),
        SimTime::ZERO + SimDuration::from_millis(600),
    );
    schedule_faults(
        &mut b.w,
        vec![
            (
                crash_at,
                Box::new(CrashDaemon { host: b.h1 }) as Box<dyn FaultAction>,
            ),
            (
                restart_at,
                Box::new(RestartDaemon { host: b.h1 }) as Box<dyn FaultAction>,
            ),
        ],
        FaultTrace {
            window_start: crash_at,
            window_end: restart_at,
        },
    );
    // Two sequential 64MB block reads: the first rides out the crash via
    // fallback, the second lands after the restart.
    let done = run_reads(&mut b, vec![(0, 64 << 20), (64 << 20, 64 << 20)]);
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].0 + done[1].0, 128 << 20);
    assert_eq!(b.w.metrics.counter("fault_daemon_restarts"), 1.0);
    assert!(b.w.metrics.counter("vread_fallbacks") >= 1.0);
    // The restarted daemon served a vread read again: a successful read
    // is recorded after the restart instant.
    let restart_at = b.w.metrics.mean("daemon_restart_at_s");
    let recovered =
        b.w.metrics
            .samples("vread_ok_at_s")
            .is_some_and(|s| s.values().iter().any(|&t| t >= restart_at));
    assert!(recovered, "vread path recovers after restart");
    // The stale pre-crash descriptor is not resurrected: full-block
    // reads close at block end (Algorithm 1 line 27), so the fresh
    // daemon's table drains back to empty — no ghosts.
    let audits = audit_daemons(&mut b.w);
    let h1_audit = audits.iter().find(|(h, _, _)| *h == b.h1.0).unwrap();
    assert_eq!(
        h1_audit.1, 0,
        "descriptor table drains after the post-restart read: {audits:?}"
    );
    assert!(h1_audit.2 >= 1, "RemountAll rebuilt the mount table");
}

#[test]
fn vfd_tables_drain_after_migration_close() {
    let mut b = bed(8 << 20);
    // A partial-block read leaves the descriptor cached (only reads
    // reaching block end close it), so h1's daemon holds one vfd. The
    // h2 daemon always mounts dn2's (empty) image.
    let done = run_reads(&mut b, vec![(0, 4 << 20)]);
    assert_eq!(done[0].0, 4 << 20);
    assert_eq!(
        audit_daemons(&mut b.w),
        vec![(0, 1, 1), (1, 0, 1)],
        "cached descriptor + dn1 mount live on h1"
    );

    // Move the datanode VM to h2: h1's daemon must drop the descriptor
    // and mount rather than leak them; h2 mounts the moved image.
    migrate_vm_with_vread(&mut b.w, b.dn1_vm, b.h2);
    b.w.run();
    assert_eq!(
        audit_daemons(&mut b.w),
        vec![(0, 0, 0), (1, 0, 2)],
        "h1 drained, h2 mounted the moved image"
    );

    // The client's cached (now stale) descriptor fails over cleanly:
    // the retry reopens a fresh descriptor and reading to block end
    // triggers the Algorithm-1 close, draining every table to empty.
    let done2 = run_reads(&mut b, vec![(4 << 20, 4 << 20)]);
    assert_eq!(done2[0].0, 4 << 20);
    let audits = audit_daemons(&mut b.w);
    assert_eq!(audits[0].1, 0, "no descriptors left on h1: {audits:?}");
    assert_eq!(audits[1].1, 0, "no descriptors left on h2: {audits:?}");
    let _ = (b.dn_local, b.client_vm);
}
