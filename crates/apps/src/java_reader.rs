//! The plain-Java measurement application of Figures 2 and 9.
//!
//! Reads a file sequentially with a fixed request (application buffer)
//! size and records the delay of every request. Two modes:
//!
//! * **Local** — `read()` from the VM's own filesystem (the Figure 2
//!   baseline: 2 copies, no network);
//! * **Dfs** — through a `DfsClient` (vanilla or vRead path), the
//!   inter-VM flow under study.

use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_host::cluster::{with_cluster, VmId};
use vread_host::virtio::guest_disk_read;
use vread_sim::prelude::*;

/// Where the reader gets its bytes.
#[derive(Debug, Clone)]
pub enum ReaderMode {
    /// Read `local_path` from the reader VM's own filesystem.
    Local {
        /// Path within the VM's guest filesystem.
        path: String,
    },
    /// Read an HDFS path through the given client actor.
    Dfs {
        /// The `DfsClient` actor.
        client: ActorId,
        /// HDFS path.
        path: String,
    },
}

/// Sequential reader with per-request delay sampling.
///
/// Metrics: `reader_delay_ms` (one sample per request) and `reader_bytes`
/// (payload read). Start and completion instants are recorded only in
/// the job table, on the job bound with [`JavaReader::with_job`].
pub struct JavaReader {
    vm: VmId,
    mode: ReaderMode,
    request_bytes: u64,
    total_bytes: u64,
    offset: u64,
    issued_at: SimTime,
    next_req: u64,
    job: Option<JobHandle>,
    m_delay_ms: LazySamples,
    m_bytes: LazyCounter,
}

struct LocalReadDone {
    bytes: u64,
}

impl JavaReader {
    /// Creates a reader in `vm` issuing `request_bytes`-sized requests
    /// until `total_bytes` have been read.
    pub fn new(vm: VmId, mode: ReaderMode, request_bytes: u64, total_bytes: u64) -> Self {
        assert!(request_bytes > 0, "request size must be positive");
        JavaReader {
            vm,
            mode,
            request_bytes,
            total_bytes,
            offset: 0,
            issued_at: SimTime::ZERO,
            next_req: 0,
            job: None,
            m_delay_ms: LazySamples::new("reader_delay_ms"),
            m_bytes: LazyCounter::new("reader_bytes"),
        }
    }

    /// Binds a completion token: the reader signals start, per-request
    /// progress and completion on `job` in addition to its metrics.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    /// Creates `path` of `bytes` size in `vm`'s local filesystem (for
    /// [`ReaderMode::Local`] runs).
    pub fn create_local_file(w: &mut World, vm: VmId, path: &str, bytes: u64) {
        with_cluster(w, |cl, _| {
            let fs = &mut cl.vm_mut(vm).fs;
            let f = fs.create(path).expect("local file path collided");
            fs.append(f, bytes);
        });
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.offset >= self.total_bytes {
            if let Some(j) = self.job {
                ctx.job_completed(j);
            }
            return;
        }
        let len = self.request_bytes.min(self.total_bytes - self.offset);
        self.issued_at = ctx.now();
        self.next_req += 1;
        match self.mode.clone() {
            ReaderMode::Local { path } => {
                let me = ctx.me();
                let vm = self.vm;
                let offset = self.offset;
                let stages = with_cluster(ctx.world, |cl, _| {
                    let (mut extents, vcpu) = {
                        let fs = &cl.vm(vm).fs;
                        let f = fs.lookup(&path).expect("local file missing");
                        (
                            fs.cursor(f, offset, len).expect("read within file"),
                            cl.vm(vm).vcpu,
                        )
                    };
                    let mut st = StageList::new();
                    while let Some(e) = extents.advance(&cl.vm(vm).fs) {
                        st.extend(guest_disk_read(
                            cl,
                            vm,
                            e.image_offset,
                            e.len,
                            CpuCategory::ClientApp,
                        ));
                    }
                    // minimal per-request application work
                    st.push(Stage::cpu(vcpu, 3_000, CpuCategory::ClientApp));
                    st
                });
                ctx.chain(stages, me, LocalReadDone { bytes: len });
            }
            ReaderMode::Dfs { client, path } => {
                let me = ctx.me();
                ctx.send(
                    client,
                    DfsRead {
                        req: self.next_req,
                        reply_to: me,
                        path,
                        offset: self.offset,
                        len,
                        pread: false,
                    },
                );
            }
        }
        self.offset += len;
    }

    fn record(&self, ctx: &mut Ctx<'_>, bytes: u64) {
        let ms = ctx.now().since(self.issued_at).as_millis_f64();
        self.m_delay_ms.record(ctx.metrics(), ms);
        self.m_bytes.add(ctx.metrics(), bytes as f64);
        if let Some(j) = self.job {
            ctx.job_progress(j, bytes, 1);
        }
    }
}

impl Actor for JavaReader {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            self.issue(ctx);
            return;
        }
        let msg = match downcast::<LocalReadDone>(msg) {
            Ok(d) => {
                self.record(ctx, d.bytes);
                self.issue(ctx);
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = downcast::<DfsReadDone>(msg) {
            self.record(ctx, d.bytes);
            self.issue(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_host::cluster::Cluster;
    use vread_host::costs::Costs;

    #[test]
    fn local_reader_reads_everything_and_samples_delays() {
        let mut w = World::new(9);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let vm = cl.add_vm(&mut w, h, "vm");
        w.ext.insert(cl);
        JavaReader::create_local_file(&mut w, vm, "/data", 8 << 20);
        let job = w.register_job("reader");
        let rdr = JavaReader::new(
            vm,
            ReaderMode::Local {
                path: "/data".into(),
            },
            1 << 20,
            8 << 20,
        )
        .with_job(job);
        let a = w.add_actor("reader", rdr);
        w.send_now(a, Start);
        w.run();
        assert_eq!(w.metrics.counter("reader_bytes"), (8 << 20) as f64);
        assert!(w.jobs.completed_at(job).is_some());
        assert!(w.jobs.elapsed(job).expect("job ran") > SimDuration::ZERO);
        let s = w.metrics.samples("reader_delay_ms").unwrap();
        assert_eq!(s.count(), 8);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn local_reread_is_faster() {
        let mut w = World::new(9);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let vm = cl.add_vm(&mut w, h, "vm");
        w.ext.insert(cl);
        JavaReader::create_local_file(&mut w, vm, "/data", 4 << 20);
        for pass in 0..2 {
            let rdr = JavaReader::new(
                vm,
                ReaderMode::Local {
                    path: "/data".into(),
                },
                1 << 20,
                4 << 20,
            );
            let a = w.add_actor(&format!("reader{pass}"), rdr);
            w.send_now(a, Start);
            w.run();
        }
        let s = w.metrics.samples("reader_delay_ms").unwrap();
        // vread-lint: allow(float-accum, "samples slice is in fixed insertion order")
        let cold: f64 = s.values()[..4].iter().sum::<f64>() / 4.0;
        // vread-lint: allow(float-accum, "samples slice is in fixed insertion order")
        let warm: f64 = s.values()[4..].iter().sum::<f64>() / 4.0;
        assert!(warm < cold * 0.5, "warm {warm}ms vs cold {cold}ms");
    }
}
