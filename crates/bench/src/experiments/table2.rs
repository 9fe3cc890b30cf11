//! Table 2 — HBase PerformanceEvaluation: scan / sequential read /
//! random read throughput (MB/s), vanilla vs vRead, on the hybrid 4-VM
//! setup at 2.0 GHz.

use vread_apps::driver::run_job;
use vread_apps::hbase::{self, HbaseClient, HbaseOp};

use crate::report::{improvement_pct, Table};
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::CAP;

/// Rows scaled from the paper's 5 million.
const SCAN_ROWS: u64 = 120_000;
const RANDOM_ROWS: u64 = 15_000;

fn mbps(path: ReadPath, op: HbaseOp) -> f64 {
    let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(path));
    let rows = match op {
        HbaseOp::RandomRead => RANDOM_ROWS,
        _ => SCAN_ROWS,
    };
    tb.populate("/hbase/t1", SCAN_ROWS * hbase::ROW_BYTES, Locality::Hybrid);
    let client = tb.make_client();
    let (vm, seed) = (tb.client_vm, tb.opts.seed);
    let job = run_job(&mut tb.w, "hbase", CAP, |w, job| {
        let hb = HbaseClient::new(client, vm, op, "/hbase/t1".into(), rows, seed);
        w.add_actor("hbase", hb.with_job(job))
    })
    .expect("hbase run did not finish");
    let elapsed = tb.w.jobs.elapsed(job).expect("hbase started");
    tb.w.jobs.bytes(job) as f64 / 1e6 / elapsed.as_secs_f64().max(1e-9)
}

/// Runs Table 2.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "table2",
        "HBase PerformanceEvaluation throughput (MB/s)",
        &["operation", "vanilla", "vRead", "improvement %"],
    );
    for (op, label, paper) in [
        (HbaseOp::Scan, "Scan", 27.3),
        (HbaseOp::SequentialRead, "SequentialRead", 23.6),
        (HbaseOp::RandomRead, "RandomRead", 17.3),
    ] {
        let vanilla = mbps(ReadPath::Vanilla, op);
        let vread = mbps(ReadPath::VreadRdma, op);
        let imp = improvement_pct(vanilla, vread);
        t.row(
            format!("{label} (paper +{paper}%)"),
            vec![vanilla, vread, imp],
        );
    }
    t.note("hybrid 4-VM setup, 2.0 GHz; rows scaled from the paper's 5 million");
    t.note("paper: vanilla 6.26 / 3.01 / 2.48 MB/s; improvements 27.3 / 23.6 / 17.3 %");
    vec![t]
}
