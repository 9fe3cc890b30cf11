//! Figure 3 — netperf TCP_RR transaction rate between two VMs, with and
//! without two 85%-lookbusy background VMs on the same quad-core host.

use vread_apps::netperf::deploy_netperf;
use vread_sim::prelude::*;

use crate::deploy::{DeployPlan, Deployment};
use crate::report::{reduction_pct, Table};
use crate::spec::VmRole;

const REQUESTS: [(u64, &str); 3] = [(32 << 10, "32KB"), (64 << 10, "64KB"), (128 << 10, "128KB")];
const WARMUP: SimDuration = SimDuration::from_millis(100);
const MEASURE: SimDuration = SimDuration::from_secs(1);

fn rate(request: u64, background: usize) -> f64 {
    let mut plan = DeployPlan::new(77)
        .host("h", 4, 3.2)
        .vm("netperf-client", "h", VmRole::Peer, None)
        .vm("netperf-server", "h", VmRole::Peer, None);
    for i in 0..background {
        plan = plan.vm(&format!("bg{i}"), "h", VmRole::Lookbusy, None);
    }
    let mut d = Deployment::build(plan).expect("netperf plan is well-formed");
    d.start_background();
    let (vma, vmb) = (d.vm_ids["netperf-client"], d.vm_ids["netperf-server"]);
    let job = d.w.register_job("netperf");
    let client = deploy_netperf(&mut d.w, vma, vmb, request, SimTime::ZERO + WARMUP, job);
    d.w.send_now(client, Start);
    // a fixed measurement window: run to its end, not to job completion
    d.w.run_until(SimTime::ZERO + WARMUP + MEASURE);
    d.w.jobs.ops(job) as f64 / MEASURE.as_secs_f64()
}

/// Runs Figure 3.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "fig3",
        "netperf TCP_RR transaction rate (per second)",
        &["request", "2vms", "4vms", "drop %"],
    );
    for (req, label) in REQUESTS {
        let quiet = rate(req, 0);
        let busy = rate(req, 2);
        t.row(label, vec![quiet, busy, reduction_pct(quiet, busy)]);
    }
    t.note("paper: ~20% rate drop with two 85% lookbusy VMs; rate decreases with request size");
    vec![t]
}
