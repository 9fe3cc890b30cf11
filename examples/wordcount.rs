//! WordCount over virtualized HDFS: the intro's motivating MapReduce
//! workload, run over vanilla and vRead read paths under background load.
//!
//! ```text
//! cargo run --release --example wordcount
//! ```

use vread::apps::driver::run_job;
use vread::apps::wordcount::WordCount;
use vread::bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use vread::sim::prelude::*;

const INPUT: u64 = 256 << 20;

fn main() {
    println!("WordCount over 256 MB of HDFS input (hybrid layout, 2.0 GHz, 4 VMs/host):");
    println!(
        "{:10} {:>12} {:>12} {:>12}",
        "path", "job secs", "map secs", "MB/s in"
    );
    for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
        let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(path));
        tb.populate("/corpus", INPUT, Locality::Hybrid);
        let client = tb.make_client();
        let (vm, start) = (tb.client_vm, tb.w.now().as_secs_f64());
        let cap = SimDuration::from_secs(600);
        let job = run_job(&mut tb.w, "wordcount", cap, |w, job| {
            let wc = WordCount::new(client, vm, "/corpus".into(), INPUT, job);
            w.add_actor("wc", wc)
        })
        .expect("job ran");
        let secs = tb.w.jobs.elapsed(job).expect("job started").as_secs_f64();
        let map_done = tb.w.metrics.mean("wc_map_done_at_s");
        println!(
            "{:10} {:>12.2} {:>12.2} {:>12.1}",
            path.label(),
            secs,
            map_done - start,
            INPUT as f64 / 1e6 / secs
        );
    }
    println!("(the job is map-CPU heavy, so the read-path gain is diluted but still visible)");
}
