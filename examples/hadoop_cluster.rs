//! The paper's full testbed (Figure 10): two hosts, client + two
//! datanodes, optional lookbusy background VMs — driving a TestDFSIO
//! read + re-read job over the hybrid data layout and printing
//! throughput and client CPU time for vanilla vs vRead.
//!
//! ```text
//! cargo run --release --example hadoop_cluster
//! ```

use vread::apps::dfsio::{DfsioConfig, DfsioMode, TestDfsio};
use vread::apps::driver::run_jobs;
use vread::bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use vread::sim::prelude::*;

const FILES: usize = 4;
const FILE_BYTES: u64 = 64 << 20;

fn dfsio(tb: &mut Testbed, client: ActorId, files: &[String]) -> (f64, f64) {
    tb.w.metrics.reset();
    let vcpu = {
        let cl = tb.w.ext.get::<vread::host::Cluster>().unwrap();
        cl.vm(tb.client_vm).vcpu
    };
    let busy0 = tb.w.acct.busy_ns(vcpu.index());
    let job = tb.w.register_job("dfsio");
    let app = TestDfsio::new(
        client,
        tb.client_vm,
        DfsioMode::Read,
        files.to_vec(),
        FILE_BYTES,
        DfsioConfig::default(),
    )
    .with_job(job);
    let a = tb.w.add_actor("dfsio", app);
    tb.w.send_now(a, Start);
    assert!(run_jobs(&mut tb.w, SimDuration::from_secs(600)));
    let secs = tb.w.metrics.mean("dfsio_done_at_s") - tb.w.metrics.mean("dfsio_start_at_s");
    let mbps = tb.w.metrics.counter("dfsio_bytes") / 1e6 / secs;
    let cpu_ms = (tb.w.acct.busy_ns(vcpu.index()) - busy0) as f64 / 1e6;
    (mbps, cpu_ms)
}

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
        let (read_mbps, read_cpu) = dfsio(&mut tb, client, &files);
        let (reread_mbps, reread_cpu) = dfsio(&mut tb, client, &files);
        println!(
            "{:10} {:>12.1} {:>14.0} {:>12.1} {:>14.0}",
            path.label(),
            read_mbps,
            read_cpu,
            reread_mbps,
            reread_cpu
        );
    }
}
