//! Figure 2 — motivation: inter-VM HDFS read delay vs local-filesystem
//! read, with and without caches, for 64 KB / 1 MB / 4 MB requests.

use vread_apps::java_reader::{JavaReader, ReaderMode};

use crate::report::Table;
use crate::scenarios::{Locality, Testbed, TestbedOpts};

use super::reader_pass;

/// Scaled file size (the paper reads a 1 GB file).
const FILE: u64 = 256 << 20;
const REQUESTS: [(u64, &str); 3] = [(64 << 10, "64KB"), (1 << 20, "1MB"), (4 << 20, "4MB")];

/// Runs Figure 2 (a: without cache, b: with cache).
pub fn run() -> Vec<Table> {
    let mut a = Table::new(
        "fig2a",
        "HDFS (inter-VM) vs local read delay, without cache (ms per request)",
        &["request", "inter-VM", "local"],
    );
    let mut b = Table::new(
        "fig2b",
        "HDFS (inter-VM) vs local read delay, with cache / re-read (ms per request)",
        &["request", "inter-VM", "local"],
    );
    for (req, label) in REQUESTS {
        let delay = |tb: &mut Testbed, mode: &ReaderMode| {
            tb.w.metrics.reset();
            reader_pass(&mut tb.w, tb.client_vm, mode.clone(), req, FILE).0
        };
        // inter-VM: vanilla HDFS from the co-located datanode VM
        let mut tb = Testbed::build(TestbedOpts::new());
        tb.populate("/f", FILE, Locality::CoLocated);
        let client = tb.make_client();
        let path = "/f".to_owned();
        let dfs = ReaderMode::Dfs { client, path };
        let (cold_inter, warm_inter) = (delay(&mut tb, &dfs), delay(&mut tb, &dfs));

        // local: a plain file in the reader's own VM
        let mut tl = Testbed::build(TestbedOpts::new());
        JavaReader::create_local_file(&mut tl.w, tl.client_vm, "/local", FILE);
        let path = "/local".to_owned();
        let local = ReaderMode::Local { path };
        let (cold_local, warm_local) = (delay(&mut tl, &local), delay(&mut tl, &local));

        a.row(label, vec![cold_inter, cold_local]);
        b.row(label, vec![warm_inter, warm_local]);
    }
    a.note(format!(
        "file size scaled to {} MB (paper: 1 GB); 2.0 GHz, no background VMs",
        FILE >> 20
    ));
    a.note("paper shape: inter-VM delay is a multiple of the local read at every request size");
    b.note("re-read pass of the same file (page caches warm)");
    vec![a, b]
}
