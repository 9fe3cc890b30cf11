//! TestDFSIO — the paper's primary application benchmark (Figures 11–13).
//!
//! A real Hadoop TestDFSIO run is a Map/Reduce job whose map tasks
//! stream files from (or to) HDFS with a fixed memory buffer. The model
//! charges the Map/Reduce framework costs (task setup, per-record
//! bookkeeping) on the client VM's vCPU and drives the genuine
//! `DfsClient` read/write paths for the data.

use vread_hdfs::client::{DfsRead, DfsReadDone, DfsWrite, DfsWriteDone};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

/// Read or write benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsioMode {
    /// TestDFSIO -read
    Read,
    /// TestDFSIO -write
    Write,
}

/// Map/Reduce framework cycles per byte moved (record/serde bookkeeping
/// around the HDFS stream; Hadoop 1.x map task behaviour).
const MR_CYC_PER_BYTE: f64 = 0.4;
/// Framework cycles per I/O request.
const MR_REQUEST_CYCLES: u64 = 15_000;
/// Map task setup cycles (JVM-reuse regime).
const TASK_SETUP_CYCLES: u64 = 120_000_000;

/// The one setting a run varies (a scenario's `buffer_kb`).
#[derive(Debug, Clone)]
pub struct DfsioConfig {
    /// Application buffer per request (the paper uses 1 MB).
    pub buffer_bytes: u64,
}

impl Default for DfsioConfig {
    fn default() -> Self {
        DfsioConfig {
            buffer_bytes: 1 << 20,
        }
    }
}

/// The TestDFSIO driver actor.
///
/// Metrics: `dfsio_bytes` (payload moved) and `dfsio_files` (completed
/// map tasks). Start and completion instants are recorded only in the
/// job table, on the job bound with [`TestDfsio::with_job`].
pub struct TestDfsio {
    client: ActorId,
    vm: VmId,
    mode: DfsioMode,
    files: Vec<String>,
    file_bytes: u64,
    cfg: DfsioConfig,
    cur_file: usize,
    offset: u64,
    req: u64,
    job: Option<JobHandle>,
    m_bytes: LazyCounter,
}

struct TaskReady;
struct MrDone {
    bytes: u64,
}

impl TestDfsio {
    /// Creates a driver moving `file_bytes` per file for every path in
    /// `files` through `client`.
    pub fn new(
        client: ActorId,
        vm: VmId,
        mode: DfsioMode,
        files: Vec<String>,
        file_bytes: u64,
        cfg: DfsioConfig,
    ) -> Self {
        assert!(!files.is_empty(), "need at least one file");
        TestDfsio {
            client,
            vm,
            mode,
            files,
            file_bytes,
            cfg,
            cur_file: 0,
            offset: 0,
            req: 0,
            job: None,
            m_bytes: LazyCounter::new("dfsio_bytes"),
        }
    }

    /// Binds a completion token: the driver signals start, per-buffer
    /// progress and completion on `job` in addition to its metrics.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        ctx.world
            .ext
            .get::<Cluster>()
            .expect("cluster")
            .vm(self.vm)
            .vcpu
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>) {
        if self.cur_file >= self.files.len() {
            if let Some(j) = self.job {
                ctx.job_completed(j);
            }
            return;
        }
        self.offset = 0;
        let vcpu = self.vcpu(ctx);
        let me = ctx.me();
        ctx.chain(
            Stage::cpu(vcpu, TASK_SETUP_CYCLES, CpuCategory::MapReduce),
            me,
            TaskReady,
        );
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let path = self.files[self.cur_file].clone();
        self.req += 1;
        let me = ctx.me();
        match self.mode {
            DfsioMode::Read => {
                let len = self.cfg.buffer_bytes.min(self.file_bytes - self.offset);
                ctx.send(
                    self.client,
                    DfsRead {
                        req: self.req,
                        reply_to: me,
                        path,
                        offset: self.offset,
                        len,
                        pread: false,
                    },
                );
                self.offset += len;
            }
            DfsioMode::Write => {
                // one output stream per map task; the client pipelines
                // chunks internally
                ctx.send(
                    self.client,
                    DfsWrite {
                        req: self.req,
                        reply_to: me,
                        path,
                        bytes: self.file_bytes,
                    },
                );
                self.offset = self.file_bytes;
            }
        }
    }

    fn charge_mr(&mut self, ctx: &mut Ctx<'_>, bytes: u64) {
        let vcpu = self.vcpu(ctx);
        let cycles = (bytes as f64 * MR_CYC_PER_BYTE).round() as u64 + MR_REQUEST_CYCLES;
        let me = ctx.me();
        ctx.cpu(vcpu, cycles, CpuCategory::MapReduce, me, MrDone { bytes });
    }
}

impl Actor for TestDfsio {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            self.start_task(ctx);
            return;
        }
        if msg.is::<TaskReady>() {
            self.issue(ctx);
            return;
        }
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                self.charge_mr(ctx, d.bytes);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<DfsWriteDone>(msg) {
            Ok(_) => {
                self.charge_mr(ctx, self.file_bytes);
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = downcast::<MrDone>(msg) {
            self.m_bytes.add(ctx.metrics(), d.bytes as f64);
            if let Some(j) = self.job {
                ctx.job_progress(j, d.bytes, 1);
            }
            if self.mode == DfsioMode::Read && self.offset < self.file_bytes && d.bytes > 0 {
                self.issue(ctx);
            } else {
                ctx.metrics().incr("dfsio_files");
                self.cur_file += 1;
                self.start_task(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_hdfs::client::{add_client, VanillaPath};
    use vread_hdfs::deploy_hdfs;
    use vread_hdfs::populate::{populate_file, Placement};
    use vread_host::costs::Costs;

    #[test]
    fn dfsio_reads_all_files() {
        let mut w = World::new(4);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 3.2);
        let cvm = cl.add_vm(&mut w, h, "client");
        let dvm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        let (_, dns) = deploy_hdfs(&mut w, cvm, &[dvm]);
        for i in 0..3 {
            populate_file(
                &mut w,
                &format!("/io/{i}"),
                4 << 20,
                &Placement::One(dns[0]),
            );
        }
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let files = (0..3).map(|i| format!("/io/{i}")).collect();
        let job = w.register_job("dfsio");
        let d = TestDfsio::new(
            client,
            cvm,
            DfsioMode::Read,
            files,
            4 << 20,
            DfsioConfig::default(),
        )
        .with_job(job);
        let a = w.add_actor("dfsio", d);
        w.send_now(a, Start);
        w.run();
        assert!(w.jobs.completed_at(job).is_some());
        assert_eq!(w.metrics.counter("dfsio_files"), 3.0);
        assert_eq!(w.metrics.counter("dfsio_bytes"), (12 << 20) as f64);
    }

    #[test]
    fn dfsio_write_creates_files() {
        let mut w = World::new(4);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 3.2);
        let cvm = cl.add_vm(&mut w, h, "client");
        let dvm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        deploy_hdfs(&mut w, cvm, &[dvm]);
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let job = w.register_job("dfsio");
        let d = TestDfsio::new(
            client,
            cvm,
            DfsioMode::Write,
            vec!["/out/0".into(), "/out/1".into()],
            2 << 20,
            DfsioConfig::default(),
        )
        .with_job(job);
        let a = w.add_actor("dfsio", d);
        w.send_now(a, Start);
        w.run();
        assert!(w.jobs.completed_at(job).is_some());
        let meta = w.ext.get::<vread_hdfs::HdfsMeta>().unwrap();
        assert_eq!(meta.file("/out/0").unwrap().size(), 2 << 20);
        assert_eq!(meta.file("/out/1").unwrap().size(), 2 << 20);
    }
}
