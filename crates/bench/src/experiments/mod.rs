//! One module per table/figure of the paper's evaluation (§5), plus the
//! design ablations called out in DESIGN.md §7.
//!
//! Every experiment returns [`Table`]s; the `repro` binary prints them
//! and writes JSON next to EXPERIMENTS.md. The harness scales data sizes
//! down from the paper's (5 GB → hundreds of MB, 30 M rows → 1–2 M);
//! every scaled quantity is reported as a *rate* (MB/s, transactions/s)
//! or projected back, with a note in the table.

pub mod ablate;
pub mod fig02;
pub mod fig03;
pub mod fig06;
pub mod fig09;
pub mod fig11;
pub mod fig13;
pub mod table2;
pub mod table3;

use vread_apps::dfsio::{DfsioConfig, DfsioMode, TestDfsio};
use vread_apps::driver::run_jobs;
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_sim::prelude::*;

use crate::report::Table;
use crate::scenarios::Testbed;

/// An experiment entry point: renders one or more [`Table`]s.
pub type Runner = fn() -> Vec<Table>;

/// All experiments, in paper order: `(id, runner)`.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig2", fig02::run as Runner),
        ("fig3", fig03::run),
        ("fig6", fig06::run_fig6),
        ("fig7", fig06::run_fig7),
        ("fig8", fig06::run_fig8),
        ("fig9", fig09::run),
        ("fig11", fig11::run_fig11),
        ("fig12", fig11::run_fig12),
        ("fig13", fig13::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("ablate-ring", ablate::run_ring),
        ("ablate-bypass", ablate::run_bypass),
        ("ablate-hve", ablate::run_hve),
        ("ablate-sriov", ablate::run_sriov),
        ("ablate-cas", ablate::run_cas),
    ]
}

/// Simulated-time cap for any single measurement (generous; experiments
/// report a failure note instead of hanging if it is ever hit).
pub(crate) const CAP: SimDuration = SimDuration::from_secs(3_000);

/// Runs a [`JavaReader`] pass over an HDFS file; returns the mean
/// per-request delay in ms. Resets metrics before the pass.
pub(crate) fn reader_pass(
    tb: &mut Testbed,
    client: ActorId,
    path: &str,
    request: u64,
    total: u64,
) -> f64 {
    tb.w.metrics.reset();
    let job = tb.w.register_job("reader");
    let reader = JavaReader::new(
        tb.client_vm,
        ReaderMode::Dfs {
            client,
            path: path.to_owned(),
        },
        request,
        total,
    )
    .with_job(job);
    let a = tb.w.add_actor("reader", reader);
    tb.w.send_now(a, Start);
    let ok = run_jobs(&mut tb.w, CAP);
    assert!(ok, "reader pass did not finish within the cap");
    tb.w.metrics.mean("reader_delay_ms")
}

/// Runs a local-filesystem [`JavaReader`] pass; returns mean delay (ms).
pub(crate) fn local_reader_pass(tb: &mut Testbed, path: &str, request: u64, total: u64) -> f64 {
    tb.w.metrics.reset();
    let job = tb.w.register_job("reader");
    let reader = JavaReader::new(
        tb.client_vm,
        ReaderMode::Local {
            path: path.to_owned(),
        },
        request,
        total,
    )
    .with_job(job);
    let a = tb.w.add_actor("reader", reader);
    tb.w.send_now(a, Start);
    let ok = run_jobs(&mut tb.w, CAP);
    assert!(ok, "local reader pass did not finish within the cap");
    tb.w.metrics.mean("reader_delay_ms")
}

/// Result of one TestDFSIO pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DfsioResult {
    /// Application-level throughput in MB/s.
    pub mbps: f64,
    /// Client-VM vCPU busy time during the pass, in ms.
    pub cpu_ms: f64,
}

/// Runs one TestDFSIO pass over `files` of `file_bytes` each.
pub(crate) fn dfsio_pass(
    tb: &mut Testbed,
    client: ActorId,
    mode: DfsioMode,
    files: &[String],
    file_bytes: u64,
) -> DfsioResult {
    tb.w.metrics.reset();
    let (client_vcpu, ..) = tb.key_threads();
    let busy0 = tb.w.acct.busy_ns(client_vcpu.index());
    let job = tb.w.register_job("dfsio");
    let d = TestDfsio::new(
        client,
        tb.client_vm,
        mode,
        files.to_vec(),
        file_bytes,
        DfsioConfig::default(),
    )
    .with_job(job);
    let a = tb.w.add_actor("dfsio", d);
    tb.w.send_now(a, Start);
    let ok = run_jobs(&mut tb.w, CAP);
    assert!(ok, "dfsio pass did not finish within the cap");
    let secs = tb.w.metrics.mean("dfsio_done_at_s") - tb.w.metrics.mean("dfsio_start_at_s");
    let bytes = tb.w.metrics.counter("dfsio_bytes");
    let busy1 = tb.w.acct.busy_ns(client_vcpu.index());
    DfsioResult {
        mbps: bytes / 1e6 / secs.max(1e-9),
        cpu_ms: (busy1 - busy0) as f64 / 1e6,
    }
}
