//! Hive select query (the paper's Table 3, left column).
//!
//! `select * from test where id >= x and id <= y` over a 30-million-row
//! table stored in HDFS: a Map/Reduce scan that streams the table files
//! and filters each row. Per-row parse/filter CPU runs in the client VM;
//! the bytes come through the genuine `DfsClient` path.

use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

/// Hive cost knobs.
#[derive(Debug, Clone)]
pub struct HiveConfig {
    /// Serialized row size (the paper's user-info rows).
    pub row_bytes: u64,
    /// Cycles to deserialize + filter one row.
    pub row_cycles: u64,
    /// Scan buffer per read.
    pub buffer_bytes: u64,
    /// Query plan setup cost.
    pub setup_cycles: u64,
}

impl Default for HiveConfig {
    fn default() -> Self {
        HiveConfig {
            row_bytes: 100,
            row_cycles: 560,
            buffer_bytes: 1 << 20,
            setup_cycles: 400_000_000,
        }
    }
}

/// A Hive select-scan query actor.
///
/// Metrics: `hive_rows`. Start and completion instants are recorded
/// only in the job table, on the job bound with [`HiveQuery::with_job`].
pub struct HiveQuery {
    client: ActorId,
    vm: VmId,
    table: String,
    rows: u64,
    cfg: HiveConfig,
    offset: u64,
    bytes_seen: u64,
    req: u64,
    job: Option<JobHandle>,
}

struct SetupDone;
struct FilterDone {
    rows: u64,
    bytes: u64,
}

impl HiveQuery {
    /// Creates a query scanning `rows` rows of `table`.
    pub fn new(client: ActorId, vm: VmId, table: String, rows: u64, cfg: HiveConfig) -> Self {
        HiveQuery {
            client,
            vm,
            table,
            rows,
            cfg,
            offset: 0,
            bytes_seen: 0,
            req: 0,
            job: None,
        }
    }

    /// Binds a completion token: the query signals start, per-buffer
    /// progress and completion on `job` in addition to its metrics.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    /// The table's size for [`vread_hdfs::populate_file`].
    pub fn table_bytes(rows: u64, cfg: &HiveConfig) -> u64 {
        rows * cfg.row_bytes
    }

    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        ctx.world
            .ext
            .get::<Cluster>()
            .expect("cluster")
            .vm(self.vm)
            .vcpu
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let total = self.rows * self.cfg.row_bytes;
        if self.offset >= total {
            if let Some(j) = self.job {
                ctx.job_completed(j);
            }
            return;
        }
        let len = self.cfg.buffer_bytes.min(total - self.offset);
        self.req += 1;
        let me = ctx.me();
        ctx.send(
            self.client,
            DfsRead {
                req: self.req,
                reply_to: me,
                path: self.table.clone(),
                offset: self.offset,
                len,
                pread: false,
            },
        );
        self.offset += len;
    }
}

impl Actor for HiveQuery {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            let vcpu = self.vcpu(ctx);
            let me = ctx.me();
            ctx.chain(
                Stage::cpu(vcpu, self.cfg.setup_cycles, CpuCategory::MapReduce),
                me,
                SetupDone,
            );
            return;
        }
        if msg.is::<SetupDone>() {
            self.issue(ctx);
            return;
        }
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                // row count from cumulative bytes so buffer boundaries
                // that split rows are not dropped
                let before = self.bytes_seen / self.cfg.row_bytes;
                self.bytes_seen += d.bytes;
                let rows = self.bytes_seen / self.cfg.row_bytes - before;
                let vcpu = self.vcpu(ctx);
                let me = ctx.me();
                ctx.chain(
                    Stage::cpu(vcpu, rows * self.cfg.row_cycles, CpuCategory::MapReduce),
                    me,
                    FilterDone {
                        rows,
                        bytes: d.bytes,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        if let Ok(f) = downcast::<FilterDone>(msg) {
            ctx.metrics().add("hive_rows", f.rows as f64);
            if let Some(j) = self.job {
                ctx.job_progress(j, f.bytes, f.rows);
            }
            self.issue(ctx);
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
    fn query_scans_all_rows() {
        let mut w = World::new(31);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let cvm = cl.add_vm(&mut w, h, "client");
        let dvm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        let (_, dns) = deploy_hdfs(&mut w, cvm, &[dvm]);
        let cfg = HiveConfig::default();
        let rows = 100_000u64;
        populate_file(
            &mut w,
            "/hive/test",
            HiveQuery::table_bytes(rows, &cfg),
            &Placement::One(dns[0]),
        );
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let job = w.register_job("hive");
        let q = HiveQuery::new(client, cvm, "/hive/test".into(), rows, cfg).with_job(job);
        let a = w.add_actor("hive", q);
        w.send_now(a, Start);
        w.run();
        assert_eq!(w.metrics.counter("hive_rows"), rows as f64);
        assert!(w.jobs.elapsed(job).expect("hive job ran") > SimDuration::ZERO);
    }
}
