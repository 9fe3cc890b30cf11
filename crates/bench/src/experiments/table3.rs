//! Table 3 — Hive select query time and Sqoop export time, vanilla vs
//! vRead, on the hybrid 4-VM setup at 2.0 GHz.

use vread_apps::driver::run_job;
use vread_apps::hive::{self, HiveQuery};
use vread_apps::sqoop::{self, deploy_sqoop_with_job};

use crate::report::{reduction_pct, Table};
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::CAP;

/// Rows scaled from the paper's 30 million; results are projected back.
const ROWS: u64 = 1_500_000;
const PAPER_ROWS: u64 = 30_000_000;

fn hive_secs(path: ReadPath) -> f64 {
    let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(path));
    tb.populate("/hive/test", ROWS * hive::ROW_BYTES, Locality::Hybrid);
    let client = tb.make_client();
    let vm = tb.client_vm;
    let job = run_job(&mut tb.w, "hive", CAP, |w, job| {
        w.add_actor(
            "hive",
            HiveQuery::new(client, vm, "/hive/test".into(), ROWS, job),
        )
    })
    .expect("hive query did not finish");
    let secs = tb.w.jobs.elapsed(job).expect("hive started").as_secs_f64();
    // Project to the paper's 30M rows: scan scales, plan setup does not.
    let setup_secs = hive::SETUP_CYCLES as f64 / (tb.opts.ghz * 1e9);
    setup_secs + (secs - setup_secs) * (PAPER_ROWS as f64 / ROWS as f64)
}

fn sqoop_secs(path: ReadPath) -> f64 {
    let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(path));
    tb.populate("/export/t", ROWS * sqoop::ROW_BYTES, Locality::Hybrid);
    let client = tb.make_client();
    let db_host = tb.hosts.1; // MySQL on the other physical machine
    let vm = tb.client_vm;
    let job = run_job(&mut tb.w, "sqoop", CAP, |w, job| {
        let path = "/export/t".into();
        deploy_sqoop_with_job(w, vm, db_host, client, path, ROWS, job)
    })
    .expect("sqoop export did not finish");
    let secs = tb.w.jobs.elapsed(job).expect("sqoop started").as_secs_f64();
    secs * (PAPER_ROWS as f64 / ROWS as f64)
}

/// Runs Table 3.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "table3",
        "Hive select & Sqoop export completion time (s, projected to 30M rows)",
        &["job", "vanilla", "vRead", "reduction %"],
    );
    let hv = hive_secs(ReadPath::Vanilla);
    let hr = hive_secs(ReadPath::VreadRdma);
    t.row(
        "Hive select (paper 17.9 -> 14.1s, -21.3%)",
        vec![hv, hr, reduction_pct(hv, hr)],
    );
    let sv = sqoop_secs(ReadPath::Vanilla);
    let sr = sqoop_secs(ReadPath::VreadRdma);
    t.row(
        "Sqoop export (paper 385 -> 343s, -11.3%)",
        vec![sv, sr, reduction_pct(sv, sr)],
    );
    t.note("hybrid 4-VM setup, 2.0 GHz; 1.5M simulated rows projected to the paper's 30M");
    t.note("paper: Sqoop gains less because MySQL insert throughput bounds the export");
    vec![t]
}
