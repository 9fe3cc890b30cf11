//! End-to-end tests of the vanilla HDFS data path on the simulated
//! virtualization stack.

use vread_hdfs::client::{add_client, DfsRead, DfsReadDone, DfsWrite, DfsWriteDone, VanillaPath};
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::{deploy_hdfs, DatanodeIx, HdfsMeta};
use vread_host::cluster::{Cluster, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// A test harness app: fires DFS requests and records completions.
struct App {
    client: ActorId,
    script: Vec<Req>,
    next: usize,
    done: std::rc::Rc<std::cell::RefCell<Vec<(u64, u64, f64)>>>, // (req, bytes, ms)
    issued_at: SimTime,
}

#[derive(Clone)]
enum Req {
    Read { path: String, offset: u64, len: u64 },
    Write { path: String, bytes: u64 },
}

impl App {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.next >= self.script.len() {
            return;
        }
        self.issued_at = ctx.now();
        let me = ctx.me();
        let req = self.next as u64;
        match self.script[self.next].clone() {
            Req::Read { path, offset, len } => ctx.send(
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
            Req::Write { path, bytes } => ctx.send(
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

impl Actor for App {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            self.issue(ctx);
            return;
        }
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                let ms = ctx.now().since(self.issued_at).as_millis_f64();
                self.done.borrow_mut().push((d.req, d.bytes, ms));
                self.issue(ctx);
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = downcast::<DfsWriteDone>(msg) {
            let ms = ctx.now().since(self.issued_at).as_millis_f64();
            self.done.borrow_mut().push((d.req, 0, ms));
            self.issue(ctx);
        }
    }
}

struct TestBed {
    w: World,
    client_vm: VmId,
    dn_local: DatanodeIx,
    dn_remote: DatanodeIx,
}

fn testbed(block_mb: u64) -> TestBed {
    let mut w = World::new(11);
    let mut cl = Cluster::new(Costs::default());
    let h1 = cl.add_host(&mut w, "host1", 4, 3.2);
    let h2 = cl.add_host(&mut w, "host2", 4, 3.2);
    let client_vm = cl.add_vm(&mut w, h1, "client");
    let dn1_vm = cl.add_vm(&mut w, h1, "datanode1");
    let dn2_vm = cl.add_vm(&mut w, h2, "datanode2");
    w.ext.insert(cl);
    let (_nn, dns) = deploy_hdfs(&mut w, client_vm, &[dn1_vm, dn2_vm]);
    w.ext.get_mut::<HdfsMeta>().unwrap().block_bytes = block_mb * 1024 * 1024;
    TestBed {
        w,
        client_vm,
        dn_local: dns[0],
        dn_remote: dns[1],
    }
}

fn run_script(tb: &mut TestBed, script: Vec<Req>) -> Vec<(u64, u64, f64)> {
    let done = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let client = add_client(&mut tb.w, tb.client_vm, Box::new(VanillaPath::new()));
    let app = tb.w.add_actor(
        "app",
        App {
            client,
            script,
            next: 0,
            done: done.clone(),
            issued_at: SimTime::ZERO,
        },
    );
    tb.w.send_now(app, Start);
    tb.w.run();
    let out = done.borrow().clone();
    out
}

#[test]
fn colocated_read_delivers_exact_bytes() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/f", 8 << 20, &Placement::One(tb.dn_local));
    let done = run_script(
        &mut tb,
        vec![Req::Read {
            path: "/f".into(),
            offset: 0,
            len: 8 << 20,
        }],
    );
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, 8 << 20);
    assert!(done[0].2 > 0.0);
}

#[test]
fn read_beyond_eof_truncates() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/f", 1 << 20, &Placement::One(tb.dn_local));
    let done = run_script(
        &mut tb,
        vec![Req::Read {
            path: "/f".into(),
            offset: 512 << 10,
            len: 10 << 20,
        }],
    );
    assert_eq!(done[0].1, 512 << 10);
}

#[test]
fn missing_file_reads_zero_bytes() {
    let mut tb = testbed(64);
    let done = run_script(
        &mut tb,
        vec![Req::Read {
            path: "/nope".into(),
            offset: 0,
            len: 1024,
        }],
    );
    assert_eq!(done[0].1, 0);
}

#[test]
fn read_spans_multiple_blocks_and_datanodes() {
    let mut tb = testbed(1); // 1 MB blocks
    populate_file(
        &mut tb.w,
        "/f",
        4 << 20,
        &Placement::RoundRobin(vec![tb.dn_local, tb.dn_remote]),
    );
    // read [0.5MB, 3.5MB): touches blocks 0..=3 on both datanodes
    let done = run_script(
        &mut tb,
        vec![Req::Read {
            path: "/f".into(),
            offset: 512 << 10,
            len: 3 << 20,
        }],
    );
    assert_eq!(done[0].1, 3 << 20);
}

/// Reads `len` bytes of `path` as one job: started on [`Start`],
/// completed when the [`DfsReadDone`] arrives.
struct ReadJob {
    client: ActorId,
    job: JobHandle,
    path: &'static str,
    len: u64,
}

impl Actor for ReadJob {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            ctx.job_started(self.job);
            let me = ctx.me();
            let read = DfsRead {
                req: 0,
                reply_to: me,
                path: self.path.into(),
                offset: 0,
                len: self.len,
                pread: false,
            };
            ctx.send(self.client, read);
        } else if let Ok(d) = downcast::<DfsReadDone>(msg) {
            ctx.job_progress(self.job, d.bytes, 1);
            ctx.job_completed(self.job);
        }
    }
}

#[test]
fn a_finished_read_job_leaves_no_pending_events() {
    // Each block fetch arms the read's watchdog for 2 s of simulated
    // time, far longer than the fetch takes. A finished fetch disarms
    // it, so once the job completes nothing is left to fire.
    let mut tb = testbed(1); // 1 MB blocks
    populate_file(
        &mut tb.w,
        "/f",
        4 << 20,
        &Placement::RoundRobin(vec![tb.dn_local, tb.dn_remote]),
    );
    let client = add_client(&mut tb.w, tb.client_vm, Box::new(VanillaPath::new()));
    let job = tb.w.register_job("read");
    let reader = ReadJob {
        client,
        job,
        path: "/f",
        len: 4 << 20,
    };
    let app = tb.w.add_actor("reader", reader);
    tb.w.send_now(app, Start);
    assert!(tb.w.run_jobs_for(SimDuration::from_secs(60)));
    assert_eq!(tb.w.jobs.bytes(job), 4 << 20);
    let took = tb.w.jobs.elapsed(job).expect("completed");
    assert!(took < SimDuration::from_millis(500), "took {took:?}");
    assert_eq!(
        tb.w.next_event_time(),
        None,
        "stale events outlive the read"
    );
}

#[test]
fn reread_is_faster_than_cold_read() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/f", 16 << 20, &Placement::One(tb.dn_local));
    let done = run_script(
        &mut tb,
        vec![
            Req::Read {
                path: "/f".into(),
                offset: 0,
                len: 16 << 20,
            },
            Req::Read {
                path: "/f".into(),
                offset: 0,
                len: 16 << 20,
            },
        ],
    );
    let cold = done[0].2;
    let warm = done[1].2;
    assert!(
        warm < cold * 0.8,
        "re-read ({warm}ms) should beat cold read ({cold}ms)"
    );
}

#[test]
fn warmed_file_reads_like_reread() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/f", 16 << 20, &Placement::One(tb.dn_local));
    let read = || Req::Read {
        path: "/f".into(),
        offset: 0,
        len: 16 << 20,
    };
    // The first read warms the datanode's guest cache and its host's
    // page cache.
    let done = run_script(&mut tb, vec![read(), read()]);
    // 16MB from guest cache: no disk time at all; at 300MB/s the disk
    // alone would need ~53ms
    assert!(done[1].2 < 53.0, "warm read took {}ms", done[1].2);
}

#[test]
fn remote_read_slower_than_colocated() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/local", 8 << 20, &Placement::One(tb.dn_local));
    populate_file(&mut tb.w, "/remote", 8 << 20, &Placement::One(tb.dn_remote));
    let done = run_script(
        &mut tb,
        vec![
            Req::Read {
                path: "/local".into(),
                offset: 0,
                len: 8 << 20,
            },
            Req::Read {
                path: "/remote".into(),
                offset: 0,
                len: 8 << 20,
            },
        ],
    );
    assert!(
        done[1].2 > done[0].2,
        "remote ({}ms) should be slower than co-located ({}ms)",
        done[1].2,
        done[0].2
    );
}

#[test]
fn write_then_read_roundtrip() {
    let mut tb = testbed(1); // 1 MB blocks => the write spans 5 blocks
    let done = run_script(
        &mut tb,
        vec![
            Req::Write {
                path: "/out".into(),
                bytes: (4 << 20) + 123,
            },
            Req::Read {
                path: "/out".into(),
                offset: 0,
                len: 8 << 20,
            },
        ],
    );
    assert_eq!(done.len(), 2);
    // the read sees everything the write produced
    assert_eq!(done[1].1, (4 << 20) + 123);
    // metadata matches
    let meta = tb.w.ext.get::<HdfsMeta>().unwrap();
    assert_eq!(meta.file("/out").unwrap().size(), (4 << 20) + 123);
    assert_eq!(meta.file("/out").unwrap().blocks.len(), 5);
}

#[test]
fn topology_aware_write_lands_on_colocated_datanode() {
    let mut tb = testbed(1);
    let _ = run_script(
        &mut tb,
        vec![Req::Write {
            path: "/out".into(),
            bytes: 3 << 20,
        }],
    );
    let meta = tb.w.ext.get::<HdfsMeta>().unwrap();
    for b in &meta.file("/out").unwrap().blocks {
        assert_eq!(
            b.replicas[0], tb.dn_local,
            "HVE placement prefers co-located"
        );
    }
}

#[test]
fn vanilla_read_charges_expected_categories() {
    let mut tb = testbed(64);
    populate_file(&mut tb.w, "/f", 4 << 20, &Placement::One(tb.dn_local));
    let _ = run_script(
        &mut tb,
        vec![Req::Read {
            path: "/f".into(),
            offset: 0,
            len: 4 << 20,
        }],
    );
    let (client_vcpu, dn_vcpu, dn_vhost) = {
        let cl = tb.w.ext.get::<Cluster>().unwrap();
        let meta = tb.w.ext.get::<HdfsMeta>().unwrap();
        let dn_vm = meta.datanodes[tb.dn_local.0].vm;
        (
            cl.vm(tb.client_vm).vcpu,
            cl.vm(dn_vm).vcpu,
            cl.vm(dn_vm).vhost,
        )
    };
    let a = &tb.w.acct;
    assert!(a.cycles(client_vcpu.index(), CpuCategory::ClientApp) > 0.0);
    assert!(a.cycles(client_vcpu.index(), CpuCategory::GuestTcp) > 0.0);
    assert!(a.cycles(dn_vcpu.index(), CpuCategory::DatanodeApp) > 0.0);
    assert!(a.cycles(dn_vhost.index(), CpuCategory::CopyVirtioVqueue) > 0.0);
    assert!(a.cycles(dn_vcpu.index(), CpuCategory::DiskRead) > 0.0);
    // no vRead machinery on the vanilla path
    assert_eq!(
        a.cycles(client_vcpu.index(), CpuCategory::CopyVreadBuffer),
        0.0
    );
}
