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

/// HBase cost knobs.
#[derive(Debug, Clone)]
pub struct HbaseConfig {
    /// Value size per row (PerformanceEvaluation writes 1000-byte values).
    pub row_bytes: u64,
    /// HFile block size.
    pub block_bytes: u64,
    /// Per-row CPU on a scan.
    pub scan_row_cycles: u64,
    /// Per-row CPU on a get (seek + RPC path).
    pub get_row_cycles: u64,
    /// Probability a random get hits the HBase block cache.
    pub random_cache_hit: f64,
}

impl Default for HbaseConfig {
    fn default() -> Self {
        HbaseConfig {
            row_bytes: 1000,
            block_bytes: 64 * 1024,
            scan_row_cycles: 230_000,
            get_row_cycles: 700_000,
            random_cache_hit: 0.95,
        }
    }
}

/// The PerformanceEvaluation client actor.
///
/// Metrics: `hbase_rows` and `hbase_bytes`. Start and completion
/// instants are recorded only in the job table, on the job bound with
/// [`HbaseClient::with_job`].
pub struct HbaseClient {
    client: ActorId,
    vm: VmId,
    op: HbaseOp,
    table: String,
    rows: u64,
    cfg: HbaseConfig,
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
        cfg: HbaseConfig,
        seed: u64,
    ) -> Self {
        HbaseClient {
            client,
            vm,
            op,
            table,
            rows,
            cfg,
            rows_done: 0,
            cached_block: None,
            rng: SimRng::new(seed),
            req: 0,
            job: None,
        }
    }

    /// Binds a completion token: the client signals start, per-batch
    /// progress and completion on `job` in addition to its metrics.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    /// Total table size in bytes.
    pub fn table_bytes(rows: u64, cfg: &HbaseConfig) -> u64 {
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

    fn rows_per_block(&self) -> u64 {
        (self.cfg.block_bytes / self.cfg.row_bytes).max(1)
    }

    fn block_of_row(&self, row: u64) -> u64 {
        row * self.cfg.row_bytes / self.cfg.block_bytes
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
                // scan: one sequential stream, a block of rows per fetch;
                // sequentialRead: get-style fetches of a quarter block
                let per_fetch = match self.op {
                    HbaseOp::Scan => self.rows_per_block(),
                    _ => (self.rows_per_block() / 4).max(1),
                };
                let batch = per_fetch.min(self.rows - self.rows_done);
                let block = self.block_of_row(self.rows_done);
                self.req += 1;
                let (offset, len) = match self.op {
                    HbaseOp::Scan => (block * self.cfg.block_bytes, self.cfg.block_bytes),
                    _ => (
                        self.rows_done * self.cfg.row_bytes,
                        batch * self.cfg.row_bytes,
                    ),
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
                let block = self.block_of_row(row);
                let hit =
                    self.cached_block == Some(block) || self.rng.chance(self.cfg.random_cache_hit);
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
                            offset: block * self.cfg.block_bytes,
                            len: self.cfg.block_bytes,
                            pread: true,
                        },
                    );
                }
            }
        }
    }

    fn charge_rows(&mut self, ctx: &mut Ctx<'_>, rows: u64, _bytes_from_hdfs: u64) {
        let per_row = match self.op {
            HbaseOp::Scan => self.cfg.scan_row_cycles,
            HbaseOp::SequentialRead | HbaseOp::RandomRead => self.cfg.get_row_cycles,
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
                    HbaseOp::Scan => self.rows_per_block().min(self.rows - self.rows_done),
                    HbaseOp::SequentialRead => (self.rows_per_block() / 4)
                        .max(1)
                        .min(self.rows - self.rows_done),
                    HbaseOp::RandomRead => 1,
                };
                self.charge_rows(ctx, rows, d.bytes);
                return;
            }
            Err(m) => m,
        };
        if let Ok(rc) = downcast::<RowsCpuDone>(msg) {
            self.rows_done += rc.rows;
            ctx.metrics().add("hbase_rows", rc.rows as f64);
            ctx.metrics()
                .add("hbase_bytes", (rc.rows * self.cfg.row_bytes) as f64);
            if let Some(j) = self.job {
                ctx.job_progress(j, rc.rows * self.cfg.row_bytes, rc.rows);
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
        let cfg = HbaseConfig::default();
        let rows = 20_000u64;
        populate_file(
            &mut w,
            "/hbase/t1",
            HbaseClient::table_bytes(rows, &cfg),
            &Placement::One(dns[0]),
        );
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        (w, client, cvm)
    }

    fn run_op(op: HbaseOp) -> (f64, f64) {
        let (mut w, client, cvm) = bed();
        let job = w.register_job("hbase");
        let hb = HbaseClient::new(
            client,
            cvm,
            op,
            "/hbase/t1".into(),
            20_000,
            HbaseConfig::default(),
            3,
        )
        .with_job(job);
        let a = w.add_actor("hbase", hb);
        w.send_now(a, Start);
        w.run();
        assert_eq!(w.metrics.counter("hbase_rows"), 20_000.0);
        let secs = w.jobs.elapsed(job).expect("hbase job ran").as_secs_f64();
        let mbps = w.metrics.counter("hbase_bytes") / 1e6 / secs;
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
