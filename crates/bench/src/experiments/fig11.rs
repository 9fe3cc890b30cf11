//! Figures 11 & 12 — TestDFSIO read/re-read throughput and CPU running
//! time: {co-located, remote, hybrid} × {1.6, 2.0, 3.2 GHz} × {2, 4 VMs}
//! × {vanilla, vRead}. Both figures come from the same runs, so they are
//! computed once and cached per process.

use std::sync::OnceLock;

use vread_apps::dfsio::DfsioMode;

use crate::report::Table;
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::{dfsio_pass, DfsioResult};

/// 5 files (map tasks); total scaled from the paper's 5 GB.
const FILES: usize = 5;
const FILE_BYTES: u64 = 96 << 20; // 480 MB total
/// CPU-time scale factor back to the paper's 5 GB.
const CPU_SCALE: f64 = 5.0 * 1024.0 / 480.0;

const FREQS: [f64; 3] = [1.6, 2.0, 3.2];
const LOCALITIES: [Locality; 3] = [Locality::CoLocated, Locality::Remote, Locality::Hybrid];

#[derive(Debug, Clone, Copy)]
struct Cell {
    read: DfsioResult,
    reread: DfsioResult,
}

/// One full matrix of results, keyed `[locality][freq][four_vms][path]`.
type Matrix = Vec<((Locality, f64, bool, ReadPath), Cell)>;

fn compute() -> Matrix {
    let mut out = Vec::new();
    for locality in LOCALITIES {
        for ghz in FREQS {
            for four_vms in [false, true] {
                for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
                    let mut tb =
                        Testbed::build(TestbedOpts::new().ghz(ghz).four_vms(four_vms).path(path));
                    let files: Vec<String> = (0..FILES).map(|i| format!("/dfsio/{i}")).collect();
                    for f in &files {
                        tb.populate(f, FILE_BYTES, locality);
                    }
                    let client = tb.make_client();
                    let mut pass = || {
                        tb.w.metrics.reset();
                        let (w, vm) = (&mut tb.w, tb.client_vm);
                        dfsio_pass(w, vm, client, DfsioMode::Read, &files, FILE_BYTES)
                    };
                    let (read, reread) = (pass(), pass());
                    out.push(((locality, ghz, four_vms, path), Cell { read, reread }));
                }
            }
        }
    }
    out
}

fn matrix() -> &'static Matrix {
    static M: OnceLock<Matrix> = OnceLock::new();
    M.get_or_init(compute)
}

fn cell(m: &Matrix, locality: Locality, ghz: f64, four: bool, path: ReadPath) -> Cell {
    m.iter()
        .find(|((l, g, f, p), _)| *l == locality && *g == ghz && *f == four && *p == path)
        .map(|(_, c)| *c)
        .expect("matrix cell missing")
}

fn panels(value: impl Fn(&Cell, bool) -> f64, id_prefix: &str, unit: &str) -> Vec<Table> {
    let m = matrix();
    let mut tables = Vec::new();
    for (panel, locality, reread) in [
        ("a", Locality::CoLocated, false),
        ("b", Locality::Remote, false),
        ("c", Locality::Hybrid, false),
        ("d", Locality::CoLocated, true),
        ("e", Locality::Remote, true),
        ("f", Locality::Hybrid, true),
    ] {
        let kind = if reread { "re-read" } else { "read" };
        let mut t = Table::new(
            &format!("{id_prefix}{panel}"),
            &format!("TestDFSIO {unit}, {} {kind}", locality.label()),
            &[
                "freq",
                "vanilla-2vms",
                "vRead-2vms",
                "vanilla-4vms",
                "vRead-4vms",
            ],
        );
        for ghz in FREQS {
            t.row(
                format!("{ghz:.1}GHz"),
                vec![
                    value(&cell(m, locality, ghz, false, ReadPath::Vanilla), reread),
                    value(&cell(m, locality, ghz, false, ReadPath::VreadRdma), reread),
                    value(&cell(m, locality, ghz, true, ReadPath::Vanilla), reread),
                    value(&cell(m, locality, ghz, true, ReadPath::VreadRdma), reread),
                ],
            );
        }
        tables.push(t);
    }
    tables
}

/// Figure 11 — DFSIO throughput (MB/s), six panels.
pub fn run_fig11() -> Vec<Table> {
    let mut ts = panels(
        |c, reread| if reread { c.reread.mbps } else { c.read.mbps },
        "fig11",
        "throughput (MB/s)",
    );
    if let Some(first) = ts.first_mut() {
        first.note("480 MB per run (scaled from 5 GB), 1 MB buffer");
        first.note("paper: ~20% gain at 3.2 GHz growing to ~41% at 1.6 GHz (2vms), up to 65% at 4vms; up to 150% on re-read");
    }
    ts
}

/// Figure 12 — DFSIO CPU running time (ms, scaled to the paper's 5 GB).
pub fn run_fig12() -> Vec<Table> {
    let mut ts = panels(
        |c, reread| {
            let v = if reread {
                c.reread.cpu_ms
            } else {
                c.read.cpu_ms
            };
            v * CPU_SCALE
        },
        "fig12",
        "CPU running time (ms, scaled to 5 GB)",
    );
    if let Some(first) = ts.first_mut() {
        first.note("client-VM vCPU busy time over the pass, scaled to the paper's 5 GB data set");
        first.note("paper: vRead saves significant CPU cycles in every configuration");
    }
    ts
}
