//! One module per table/figure of the paper's evaluation (§5), plus the
//! design ablations called out in DESIGN.md §7.
//!
//! Every experiment returns [`Table`]s; the `repro` binary prints them
//! and writes JSON next to EXPERIMENTS.md. Each measurement is one timed
//! job through [`vread_apps::driver::run_job`]: the reader and TestDFSIO
//! passes are [`reader_pass`] and [`dfsio_pass`] (public, so tests and
//! examples time their passes the same way), and the HBase, Hive and
//! Sqoop tables call `run_job` directly. The harness scales data sizes
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
use vread_apps::driver::run_job;
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

use crate::report::Table;

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

/// Simulated-time cap for any single measurement (generous; a pass that
/// hits it panics instead of hanging).
pub(crate) const CAP: SimDuration = SimDuration::from_secs(3_000);

/// Runs one [`JavaReader`] pass in `vm` through [`run_job`]: an HDFS
/// read ([`ReaderMode::Dfs`]) or a read of the VM's own filesystem
/// ([`ReaderMode::Local`]). Returns the mean `reader_delay_ms` since the
/// last metrics reset (callers reset first to measure one pass alone)
/// and the pass's elapsed time from the job table.
///
/// # Panics
///
/// If the pass does not finish within 3,000 simulated seconds.
pub fn reader_pass(
    w: &mut World,
    vm: VmId,
    mode: ReaderMode,
    request: u64,
    total: u64,
) -> (f64, SimDuration) {
    let elapsed = run_job(w, "reader", CAP, |w, job| {
        let reader = JavaReader::new(vm, mode, request, total).with_job(job);
        w.add_actor("reader", reader)
    })
    .expect("reader pass did not finish within the cap");
    (w.metrics.mean("reader_delay_ms"), elapsed)
}

/// Result of one TestDFSIO pass.
#[derive(Debug, Clone, Copy)]
pub struct DfsioResult {
    /// Application-level throughput in MB/s: `dfsio_bytes` since the last
    /// metrics reset over the pass's elapsed time.
    pub mbps: f64,
    /// Client-VM vCPU busy time during the pass, in ms.
    pub cpu_ms: f64,
}

/// Runs one [`TestDfsio`] pass by `client` in `vm` over `files` of
/// `file_bytes` each, through [`run_job`]. Metrics are not reset.
///
/// # Panics
///
/// If the pass does not finish within 3,000 simulated seconds.
pub fn dfsio_pass(
    w: &mut World,
    vm: VmId,
    client: ActorId,
    mode: DfsioMode,
    files: &[String],
    file_bytes: u64,
) -> DfsioResult {
    let vcpu = w.ext.get::<Cluster>().expect("cluster").vm(vm).vcpu;
    let busy0 = w.acct.busy_ns(vcpu.index());
    let elapsed = run_job(w, "dfsio", CAP, |w, job| {
        let cfg = DfsioConfig::default();
        let d = TestDfsio::new(client, vm, mode, files.to_vec(), file_bytes, cfg);
        w.add_actor("dfsio", d.with_job(job))
    })
    .expect("dfsio pass did not finish within the cap");
    DfsioResult {
        mbps: w.metrics.counter("dfsio_bytes") / 1e6 / elapsed.as_secs_f64().max(1e-9),
        cpu_ms: (w.acct.busy_ns(vcpu.index()) - busy0) as f64 / 1e6,
    }
}
