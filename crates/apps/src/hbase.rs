//! HBase PerformanceEvaluation — scan / sequentialRead / randomRead
//! (the paper's Table 2).
//!
//! HBase stores its regions as HFiles on HDFS; every operation ends up
//! reading HFile blocks (64 KB) through the HDFS client. The model
//! charges HBase's per-row CPU (KeyValue decode, comparator walks, RPC
//! machinery) on the client VM and drives real `DfsClient` block reads:
//!
//! * **scan** — forward scan over the whole table: sequential block
//!   reads, cheap per-row work;
//! * **sequentialRead** — row-by-row `get`s in key order: the block
//!   cache makes one HDFS block read serve ~64 consecutive rows, but the
//!   per-get path is much heavier;
//! * **randomRead** — `get`s of uniformly random rows: nearly every get
//!   misses the block cache and pays an HDFS block read.

use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

/// PerformanceEvaluation operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbaseOp {
    /// Whole-table scan.
    Scan,
    /// Gets in key order.
    SequentialRead,
    /// Gets of uniformly random rows.
    RandomRead,
}

/// Value size per row (PerformanceEvaluation writes 1000-byte values).
pub const ROW_BYTES: u64 = 1000;
/// HFile block size.
const BLOCK_BYTES: u64 = 64 * 1024;
/// Per-row CPU on a scan.
const SCAN_ROW_CYCLES: u64 = 230_000;
/// Per-row CPU on a get (seek + RPC path).
const GET_ROW_CYCLES: u64 = 700_000;
/// Probability a random get hits the HBase block cache.
const RANDOM_CACHE_HIT: f64 = 0.95;
/// HFile rows per block.
const ROWS_PER_BLOCK: u64 = BLOCK_BYTES / ROW_BYTES;
/// Rows per sequentialRead fetch: get-style fetches of a quarter block.
const ROWS_PER_GET: u64 = ROWS_PER_BLOCK / 4;

/// The PerformanceEvaluation client actor.
///
/// Metrics: none. Start, row bytes, rows and completion are recorded
/// only in the job table, on the job bound with
/// [`HbaseClient::with_job`].
pub struct HbaseClient {
    client: ActorId,
    vm: VmId,
    op: HbaseOp,
    table: String,
    rows: u64,
    rows_done: u64,
    cached_block: Option<u64>,
    rng: SimRng,
    req: u64,
    job: Option<JobHandle>,
}

struct RowsCpuDone {
    rows: u64,
}

impl HbaseClient {
    /// Creates a PerformanceEvaluation client running `op` over `rows`
    /// rows of `table` (an HDFS file holding the region's HFile).
    pub fn new(
        client: ActorId,
        vm: VmId,
        op: HbaseOp,
        table: String,
        rows: u64,
        seed: u64,
    ) -> Self {
        HbaseClient {
            client,
            vm,
            op,
            table,
            rows,
            rows_done: 0,
            cached_block: None,
            rng: SimRng::new(seed),
            req: 0,
            job: None,
        }
    }

    /// Binds a completion token: the client signals start, per-batch
    /// progress and completion on `job`.
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

    fn block_of_row(row: u64) -> u64 {
        row * ROW_BYTES / BLOCK_BYTES
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.rows_done >= self.rows {
            if let Some(j) = self.job {
                ctx.job_completed(j);
            }
            return;
        }
        let me = ctx.me();
        match self.op {
            HbaseOp::Scan | HbaseOp::SequentialRead => {
                // scan: one sequential stream, a block of rows per fetch
                let per_fetch = match self.op {
                    HbaseOp::Scan => ROWS_PER_BLOCK,
                    _ => ROWS_PER_GET,
                };
                let batch = per_fetch.min(self.rows - self.rows_done);
                let block = Self::block_of_row(self.rows_done);
                self.req += 1;
                let (offset, len) = match self.op {
                    HbaseOp::Scan => (block * BLOCK_BYTES, BLOCK_BYTES),
                    _ => (self.rows_done * ROW_BYTES, batch * ROW_BYTES),
                };
                ctx.send(
                    self.client,
                    DfsRead {
                        req: self.req,
                        reply_to: me,
                        path: self.table.clone(),
                        offset,
                        len,
                        // every PE operation goes through scanner/get
                        // RPCs: each batch is a positional read
                        pread: true,
                    },
                );
            }
            HbaseOp::RandomRead => {
                let row = self.rng.below(self.rows);
                let block = Self::block_of_row(row);
                let hit = self.cached_block == Some(block) || self.rng.chance(RANDOM_CACHE_HIT);
                if hit {
                    self.charge_rows(ctx, 1, 0);
                } else {
                    self.cached_block = Some(block);
                    self.req += 1;
                    ctx.send(
                        self.client,
                        DfsRead {
                            req: self.req,
                            reply_to: me,
                            path: self.table.clone(),
                            offset: block * BLOCK_BYTES,
                            len: BLOCK_BYTES,
                            pread: true,
                        },
                    );
                }
            }
        }
    }

    fn charge_rows(&mut self, ctx: &mut Ctx<'_>, rows: u64, _bytes_from_hdfs: u64) {
        let per_row = match self.op {
            HbaseOp::Scan => SCAN_ROW_CYCLES,
            HbaseOp::SequentialRead | HbaseOp::RandomRead => GET_ROW_CYCLES,
        };
        let vcpu = self.vcpu(ctx);
        let me = ctx.me();
        ctx.chain(
            Stage::cpu(vcpu, rows * per_row, CpuCategory::ClientApp),
            me,
            RowsCpuDone { rows },
        );
    }
}

impl Actor for HbaseClient {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            self.step(ctx);
            return;
        }
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                let rows = match self.op {
                    HbaseOp::Scan => ROWS_PER_BLOCK.min(self.rows - self.rows_done),
                    HbaseOp::SequentialRead => ROWS_PER_GET.min(self.rows - self.rows_done),
                    HbaseOp::RandomRead => 1,
                };
                self.charge_rows(ctx, rows, d.bytes);
                return;
            }
            Err(m) => m,
        };
        if let Ok(rc) = downcast::<RowsCpuDone>(msg) {
            self.rows_done += rc.rows;
            if let Some(j) = self.job {
                ctx.job_progress(j, rc.rows * ROW_BYTES, rc.rows);
            }
            self.step(ctx);
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

    fn bed() -> (World, ActorId, VmId) {
        let mut w = World::new(19);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let cvm = cl.add_vm(&mut w, h, "client");
        let dvm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        let (_, dns) = deploy_hdfs(&mut w, cvm, &[dvm]);
        let rows = 20_000u64;
        populate_file(
            &mut w,
            "/hbase/t1",
            rows * ROW_BYTES,
            &Placement::One(dns[0]),
        );
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        (w, client, cvm)
    }

    fn run_op(op: HbaseOp) -> (f64, f64) {
        let (mut w, client, cvm) = bed();
        let job = w.register_job("hbase");
        let hb = HbaseClient::new(client, cvm, op, "/hbase/t1".into(), 20_000, 3).with_job(job);
        let a = w.add_actor("hbase", hb);
        w.send_now(a, Start);
        w.run();
        assert_eq!(w.jobs.ops(job), 20_000);
        let secs = w.jobs.elapsed(job).expect("hbase job ran").as_secs_f64();
        let mbps = w.jobs.bytes(job) as f64 / 1e6 / secs;
        (secs, mbps)
    }

    #[test]
    fn scan_fastest_gets_close_together() {
        let (_, scan) = run_op(HbaseOp::Scan);
        let (_, seq) = run_op(HbaseOp::SequentialRead);
        let (_, rand) = run_op(HbaseOp::RandomRead);
        // scans stream; gets pay the heavy per-row get path
        assert!(scan > seq * 1.5, "scan {scan} MB/s vs seq {seq} MB/s");
        assert!(scan > rand * 1.5, "scan {scan} MB/s vs random {rand} MB/s");
        // the two get-based modes land in the same ballpark (paper: 3.01
        // vs 2.48 MB/s)
        let ratio = seq / rand;
        assert!((0.7..1.5).contains(&ratio), "seq/random ratio {ratio}");
    }
}
