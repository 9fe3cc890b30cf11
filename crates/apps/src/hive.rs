//! Hive select query (the paper's Table 3, left column).
//!
//! `select * from test where id >= x and id <= y` over a 30-million-row
//! table stored in HDFS: a Map/Reduce scan that streams the table files
//! and filters each row. Per-row parse/filter CPU runs in the client VM;
//! the bytes come through the genuine `DfsClient` path.

use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

/// Serialized row size (the paper's user-info rows).
pub const ROW_BYTES: u64 = 100;
/// Cycles to deserialize + filter one row.
const ROW_CYCLES: u64 = 560;
/// Scan buffer per read.
const BUFFER_BYTES: u64 = 1 << 20;
/// Query plan setup cost.
pub const SETUP_CYCLES: u64 = 400_000_000;

/// A Hive select-scan query actor.
///
/// Metrics: none. Start, bytes scanned, rows and completion are recorded
/// only in the job table, on the job given to [`HiveQuery::new`].
pub struct HiveQuery {
    client: ActorId,
    vm: VmId,
    table: String,
    rows: u64,
    offset: u64,
    bytes_seen: u64,
    req: u64,
    job: JobHandle,
}

struct SetupDone;
struct FilterDone {
    rows: u64,
    bytes: u64,
}

impl HiveQuery {
    /// Creates a query scanning `rows` rows of `table`, reporting on
    /// `job`.
    pub fn new(client: ActorId, vm: VmId, table: String, rows: u64, job: JobHandle) -> Self {
        HiveQuery {
            client,
            vm,
            table,
            rows,
            offset: 0,
            bytes_seen: 0,
            req: 0,
            job,
        }
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
        let total = self.rows * ROW_BYTES;
        if self.offset >= total {
            ctx.job_completed(self.job);
            return;
        }
        let len = BUFFER_BYTES.min(total - self.offset);
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
            ctx.job_started(self.job);
            let vcpu = self.vcpu(ctx);
            let me = ctx.me();
            ctx.chain(
                Stage::cpu(vcpu, SETUP_CYCLES, CpuCategory::MapReduce),
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
                let before = self.bytes_seen / ROW_BYTES;
                self.bytes_seen += d.bytes;
                let rows = self.bytes_seen / ROW_BYTES - before;
                let vcpu = self.vcpu(ctx);
                let me = ctx.me();
                ctx.chain(
                    Stage::cpu(vcpu, rows * ROW_CYCLES, CpuCategory::MapReduce),
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
            ctx.job_progress(self.job, f.bytes, f.rows);
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
        let rows = 100_000u64;
        populate_file(
            &mut w,
            "/hive/test",
            rows * ROW_BYTES,
            &Placement::One(dns[0]),
        );
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let job = w.register_job("hive");
        let q = HiveQuery::new(client, cvm, "/hive/test".into(), rows, job);
        let a = w.add_actor("hive", q);
        w.send_now(a, Start);
        w.run();
        assert_eq!(w.jobs.ops(job), rows);
        assert!(w.jobs.elapsed(job).expect("hive job ran") > SimDuration::ZERO);
    }
}
