//! Figures 6–8 — CPU-utilization breakdowns for a 1 GB HDFS read
//! (request size 1 MB): co-located (Fig 6), remote over RDMA (Fig 7),
//! remote over the daemon TCP fallback (Fig 8). Utilization is reported
//! as percent of one core over the transfer, stacked by the paper's
//! legend categories.

use std::collections::BTreeMap;

use vread_apps::java_reader::ReaderMode;
use vread_sim::cpu::CpuCategory;
use vread_sim::prelude::*;

use crate::report::Table;
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};

use super::reader_pass;

const FILE: u64 = 256 << 20; // scaled from 1 GB
const REQUEST: u64 = 1 << 20;

/// Per-bucket utilization (% of one core) for a set of threads.
fn breakdown(
    tb: &Testbed,
    before: &vread_sim::cpu::CpuAccounting,
    threads: &[ThreadId],
    elapsed_ns: f64,
) -> BTreeMap<&'static str, f64> {
    let ghz = tb.opts.ghz;
    let diff = tb.w.acct.diff(before);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &t in threads {
        for cat in CpuCategory::ALL {
            let cycles = diff.cycles(t.index(), cat);
            if cycles > 0.0 && cat != CpuCategory::Lookbusy {
                let pct = cycles / ghz / elapsed_ns * 100.0;
                *out.entry(cat.figure_bucket()).or_insert(0.0) += pct;
            }
        }
    }
    out
}

/// Runs one CPU-breakdown measurement; returns (client-side map,
/// datanode-side map).
fn measure(
    path: ReadPath,
    locality: Locality,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let mut tb = Testbed::build(TestbedOpts::new().path(path));
    tb.populate("/f", FILE, locality);
    let client = tb.make_client();
    let (cvcpu, cvhost, dvcpu, dvhost) = tb.key_threads();
    let serving_dn_threads = match locality {
        Locality::CoLocated | Locality::Hybrid => (dvcpu, dvhost),
        Locality::Remote => {
            let cl = tb.w.ext.get::<vread_host::Cluster>().expect("cluster");
            (cl.vm(tb.dn_vms.1).vcpu, cl.vm(tb.dn_vms.1).vhost)
        }
    };
    let daemons = tb.daemon_threads();

    let before = tb.w.acct.snapshot();
    tb.w.metrics.reset();
    let mode = ReaderMode::Dfs {
        client,
        path: "/f".to_owned(),
    };
    let (_, elapsed) = reader_pass(&mut tb.w, tb.client_vm, mode, REQUEST, FILE);
    let elapsed_ns = elapsed.as_nanos() as f64;

    let (client_threads, dn_threads): (Vec<ThreadId>, Vec<ThreadId>) = match path {
        ReadPath::Vanilla => (
            vec![cvcpu, cvhost],
            vec![serving_dn_threads.0, serving_dn_threads.1],
        ),
        ReadPath::VreadRdma | ReadPath::VreadTcp => {
            let (d1, d2) = daemons.expect("vread deployed");
            match locality {
                // Local reads: the host1 daemon IS the datanode side
                // (Fig 6b compares "vRead-daemon" vs "vanilla-datanode").
                Locality::CoLocated | Locality::Hybrid => (vec![cvcpu, cvhost], vec![d1]),
                // Remote: the local daemon's work shows on the client
                // side, the remote daemon is the datanode side.
                Locality::Remote => (vec![cvcpu, cvhost, d1], vec![d2]),
            }
        }
    };
    (
        breakdown(&tb, &before, &client_threads, elapsed_ns),
        breakdown(&tb, &before, &dn_threads, elapsed_ns),
    )
}

fn build_table(id: &str, title: &str, locality: Locality, vread_kind: ReadPath) -> Table {
    let (vr_client, vr_dn) = measure(vread_kind, locality);
    let (va_client, va_dn) = measure(ReadPath::Vanilla, locality);
    let mut t = Table::new(
        id,
        title,
        &[
            "category",
            "vRead-client",
            "vanilla-client",
            "vRead-dnside",
            "vanilla-dnside",
        ],
    );
    let mut cats: Vec<&'static str> = vr_client
        .keys()
        .chain(va_client.keys())
        .chain(vr_dn.keys())
        .chain(va_dn.keys())
        .copied()
        .collect();
    cats.sort_unstable();
    cats.dedup();
    let mut totals = [0.0f64; 4];
    for c in cats {
        let vals = [
            vr_client.get(c).copied().unwrap_or(0.0),
            va_client.get(c).copied().unwrap_or(0.0),
            vr_dn.get(c).copied().unwrap_or(0.0),
            va_dn.get(c).copied().unwrap_or(0.0),
        ];
        for (t, v) in totals.iter_mut().zip(vals) {
            *t += v;
        }
        t.row(c, vals.to_vec());
    }
    t.row("TOTAL", totals.to_vec());
    t.note("percent of one core during the transfer; 2.0 GHz, 1 MB requests, 256 MB file");
    t
}

/// Figure 6 — co-located read.
pub fn run_fig6() -> Vec<Table> {
    let mut t = build_table(
        "fig6",
        "CPU utilization, co-located 1 GB read (scaled)",
        Locality::CoLocated,
        ReadPath::VreadRdma,
    );
    t.note("paper: vRead saves ~40% of client-side and ~65% of datanode-side CPU");
    vec![t]
}

/// Figure 7 — remote read, RDMA daemons.
pub fn run_fig7() -> Vec<Table> {
    let mut t = build_table(
        "fig7",
        "CPU utilization, remote read with RDMA",
        Locality::Remote,
        ReadPath::VreadRdma,
    );
    t.note(
        "paper: ~45% client-side / >50% datanode-side CPU savings; rdma cost far below vhost-net",
    );
    vec![t]
}

/// Figure 8 — remote read, user-space TCP daemons.
pub fn run_fig8() -> Vec<Table> {
    let mut t = build_table(
        "fig8",
        "CPU utilization, remote read with the TCP fallback",
        Locality::Remote,
        ReadPath::VreadTcp,
    );
    t.note("paper: total still slightly below vanilla, but vRead-net costs more than vhost-net");
    vec![t]
}
