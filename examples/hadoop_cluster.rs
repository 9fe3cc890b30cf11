//! The paper's full testbed (Figure 10): two hosts, client + two
//! datanodes, optional lookbusy background VMs — driving a TestDFSIO
//! read + re-read job over the hybrid data layout and printing
//! throughput and client CPU time for vanilla vs vRead.
//!
//! ```text
//! cargo run --release --example hadoop_cluster
//! ```

use vread::apps::dfsio::DfsioMode;
use vread::bench::experiments::dfsio_pass;
use vread::bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

const FILES: usize = 4;
const FILE_BYTES: u64 = 64 << 20;

fn main() {
    println!("TestDFSIO on the Figure-10 testbed (hybrid layout, 2.0 GHz, 4 VMs/host):");
    println!(
        "{:10} {:>12} {:>14} {:>12} {:>14}",
        "path", "read MB/s", "read CPU ms", "reread MB/s", "reread CPU ms"
    );
    for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
        let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(path));
        let files: Vec<String> = (0..FILES).map(|i| format!("/io/{i}")).collect();
        for f in &files {
            tb.populate(f, FILE_BYTES, Locality::Hybrid);
        }
        let client = tb.make_client();
        let mut pass = || {
            let (w, vm) = (&mut tb.w, tb.client_vm);
            dfsio_pass(w, vm, client, DfsioMode::Read, &files, FILE_BYTES)
        };
        let (read, reread) = (pass(), pass());
        println!(
            "{:10} {:>12.1} {:>14.0} {:>12.1} {:>14.0}",
            path.label(),
            read.mbps,
            read.cpu_ms,
            reread.mbps,
            reread.cpu_ms
        );
    }
}
