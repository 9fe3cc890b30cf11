//! Figure 13 — HDFS write throughput with and without vRead: the mount
//! refresh (`vRead_update`) triggered by every finalized block must not
//! hurt the write path.

use vread_apps::dfsio::DfsioMode;
use vread_hdfs::HdfsMeta;

use crate::report::Table;
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::dfsio_pass;

const FILES: usize = 4;
const FILE_BYTES: u64 = 64 << 20; // 256 MB total, scaled from 5 GB

fn write_mbps(path: ReadPath, locality: Locality) -> f64 {
    let mut tb = Testbed::build(TestbedOpts::new().path(path));
    // Small blocks so several finalizations (and hence mount refreshes)
    // happen per file.
    tb.w.ext.get_mut::<HdfsMeta>().expect("meta").block_bytes = 32 << 20;
    let client = tb.make_client();
    tb.configure_write_locality(locality);
    let files: Vec<String> = (0..FILES).map(|i| format!("/out/{i}")).collect();
    let (w, vm) = (&mut tb.w, tb.client_vm);
    dfsio_pass(w, vm, client, DfsioMode::Write, &files, FILE_BYTES).mbps
}

/// Runs Figure 13.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "fig13",
        "TestDFSIO write throughput (MB/s), 2.0 GHz",
        &["scenario", "vanilla", "vRead", "overhead %"],
    );
    for locality in [Locality::CoLocated, Locality::Remote, Locality::Hybrid] {
        let vanilla = write_mbps(ReadPath::Vanilla, locality);
        let vread = write_mbps(ReadPath::VreadRdma, locality);
        t.row(
            locality.label(),
            vec![vanilla, vread, (1.0 - vread / vanilla) * 100.0],
        );
    }
    t.note("256 MB per run (scaled from 5 GB); vRead deployed => every block finalization triggers a daemon mount refresh");
    t.note("paper: the mount-refresh overhead is negligible");
    vec![t]
}
