//! Remote vRead reads: RDMA/RoCE daemons vs the user-space TCP fallback
//! (the comparison behind the paper's Figures 7 and 8).
//!
//! ```text
//! cargo run --release --example remote_rdma
//! ```

use vread::apps::driver::run_jobs;
use vread::apps::java_reader::{JavaReader, ReaderMode};
use vread::bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use vread::core::VreadRegistry;
use vread::sim::prelude::*;

const FILE: u64 = 128 << 20;

fn main() {
    println!("remote read of 128 MB through the vRead daemons (2.0 GHz):");
    println!(
        "{:12} {:>10} {:>16} {:>18}",
        "transport", "MB/s", "daemon cyc/B", "daemon categories"
    );
    for path in [ReadPath::VreadRdma, ReadPath::VreadTcp] {
        let mut tb = Testbed::build(TestbedOpts::new().path(path));
        tb.populate("/remote", FILE, Locality::Remote);
        let client = tb.make_client();
        let job = tb.w.register_job("reader");
        let reader = JavaReader::new(
            tb.client_vm,
            ReaderMode::Dfs {
                client,
                path: "/remote".into(),
            },
            1 << 20,
            FILE,
        )
        .with_job(job);
        let a = tb.w.add_actor("reader", reader);
        tb.w.send_now(a, Start);
        assert!(run_jobs(&mut tb.w, SimDuration::from_secs(600)));
        let secs = tb.w.metrics.mean("reader_done_at_s") - tb.w.metrics.mean("reader_start_at_s");

        let (d1, d2) = {
            let reg = tb.w.ext.get::<VreadRegistry>().unwrap();
            (reg.daemons[&0].1, reg.daemons[&1].1)
        };
        let daemon_cycles = tb.w.acct.total_cycles(d1.index()) + tb.w.acct.total_cycles(d2.index());
        let rdma = tb.w.acct.cycles(d2.index(), CpuCategory::Rdma);
        let vnet = tb.w.acct.cycles(d2.index(), CpuCategory::VreadNet);
        println!(
            "{:12} {:>10.1} {:>16.3} {:>10.0} rdma / {:.0} vread-net",
            path.label(),
            FILE as f64 / 1e6 / secs,
            daemon_cycles / FILE as f64,
            rdma,
            vnet
        );
    }
    println!("(RDMA moves the payload with near-zero daemon CPU; the TCP fallback pays per byte)");
}
