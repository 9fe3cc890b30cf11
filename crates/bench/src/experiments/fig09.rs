//! Figure 9 — data access delay of virtual HDFS reads, vanilla vs vRead,
//! 2 VMs vs 4 VMs, with and without caches.

use vread_apps::java_reader::ReaderMode;

use crate::report::Table;
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::reader_pass;

const FILE: u64 = 256 << 20; // scaled from 1 GB
const REQUESTS: [(u64, &str); 3] = [(64 << 10, "64KB"), (1 << 20, "1MB"), (4 << 20, "4MB")];

fn delays(path: ReadPath, four_vms: bool, request: u64) -> (f64, f64) {
    let mut tb = Testbed::build(TestbedOpts::new().four_vms(four_vms).path(path));
    tb.populate("/f", FILE, Locality::CoLocated);
    let client = tb.make_client();
    let mut delay = || {
        tb.w.metrics.reset();
        let path = "/f".to_owned();
        let mode = ReaderMode::Dfs { client, path };
        reader_pass(&mut tb.w, tb.client_vm, mode, request, FILE).0
    };
    (delay(), delay())
}

/// Runs Figure 9 (a: without cache, b: with cache).
pub fn run() -> Vec<Table> {
    let cols = [
        "request",
        "vanilla-2vms",
        "vRead-2vms",
        "vanilla-4vms",
        "vRead-4vms",
    ];
    let mut a = Table::new("fig9a", "HDFS data access delay without cache (ms)", &cols);
    let mut b = Table::new("fig9b", "HDFS data access delay with cache (ms)", &cols);
    for (req, label) in REQUESTS {
        let (va2c, va2w) = delays(ReadPath::Vanilla, false, req);
        let (vr2c, vr2w) = delays(ReadPath::VreadRdma, false, req);
        let (va4c, va4w) = delays(ReadPath::Vanilla, true, req);
        let (vr4c, vr4w) = delays(ReadPath::VreadRdma, true, req);
        a.row(label, vec![va2c, vr2c, va4c, vr4c]);
        b.row(label, vec![va2w, vr2w, va4w, vr4w]);
    }
    for t in [&mut a, &mut b] {
        t.note("co-located read, 2.0 GHz, 256 MB file (scaled from 1 GB)");
        t.note("paper: vRead cuts delay up to 40% (2vms) / 50% (4vms); gap widens at 4vms");
    }
    vec![a, b]
}
