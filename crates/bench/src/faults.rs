//! Typed fault plans for scenarios: what breaks, when, and how the run
//! degraded.
//!
//! A fault plan is a list of [`FaultSpec`]s — each a simulated instant
//! plus a [`FaultKind`] naming its target symbolically (host/VM names
//! from the scenario). `ScenarioSpec::run` resolves the names against the
//! assembled cluster, lowers each kind to the matching
//! [`vread_sim::fault::FaultAction`] from the subsystem crates, and arms
//! them with [`vread_sim::fault::schedule_faults`]. Because the
//! actions fire through ordinary timers, a fault run is exactly as
//! deterministic as a fault-free one.
//!
//! After the workload finishes, [`collect_fault_report`] condenses the
//! degradation metrics (fallback reads, replica failovers, recovery
//! latency, throughput inside the fault window) into a [`FaultReport`]
//! appended to the scenario report.

use std::collections::{HashMap, HashSet};

use crate::json::{n, obj, Json};
use crate::spec::{check_keys, check_ms, opt_u64, parse_err, req, req_str, req_u64, SpecError};

use vread_core::{CrashDaemon, CrashDatanodeVm, RestartDaemon};
use vread_host::cluster::{Cluster, HostIx, VmId};
use vread_host::fault::DropHostCache;
use vread_net::fault::DegradeLink;
use vread_sim::fault::{FaultAction, SlowDisk, StallThread};
use vread_sim::prelude::*;

/// What breaks. Targets are symbolic scenario names, resolved when the
/// scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill the vRead daemon on a host (clients fall back to vanilla).
    DaemonCrash {
        /// Host name.
        host: String,
    },
    /// Restart a previously crashed daemon (re-registration +
    /// `RemountAll`).
    DaemonRestart {
        /// Host name.
        host: String,
    },
    /// Degrade a host's NIC: divide bandwidth by `factor` and add ~1 ms
    /// latency for `duration_ms` (RDMA/RoCE link flap).
    LinkFlap {
        /// Host name.
        host: String,
        /// Bandwidth divisor (≥ 1).
        factor: f64,
        /// Flap length in simulated milliseconds.
        duration_ms: u64,
    },
    /// Divide a host's disk bandwidth by `factor` for `duration_ms`.
    DiskSlow {
        /// Host name.
        host: String,
        /// Bandwidth divisor (≥ 1).
        factor: f64,
        /// Slowdown length in simulated milliseconds.
        duration_ms: u64,
    },
    /// Drop the host page cache (and the guest caches of its VMs).
    CacheDrop {
        /// Host name.
        host: String,
    },
    /// Monopolize a VM's vhost thread with a synthetic burst.
    VhostStall {
        /// VM name.
        vm: String,
        /// Stall length in simulated milliseconds.
        duration_ms: u64,
    },
    /// Crash a datanode VM's server process (vanilla readers fail over
    /// to replicas; vRead keeps serving through the host mounts).
    VmCrash {
        /// Datanode VM name.
        vm: String,
    },
}

impl FaultKind {
    /// The JSON `kind` string.
    pub fn kind_str(&self) -> &'static str {
        match self {
            FaultKind::DaemonCrash { .. } => "daemon-crash",
            FaultKind::DaemonRestart { .. } => "daemon-restart",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::DiskSlow { .. } => "disk-slow",
            FaultKind::CacheDrop { .. } => "cache-drop",
            FaultKind::VhostStall { .. } => "vhost-stall",
            FaultKind::VmCrash { .. } => "vm-crash",
        }
    }

    /// For transient faults, how long until the restore fires.
    pub fn duration_ms(&self) -> Option<u64> {
        match self {
            FaultKind::LinkFlap { duration_ms, .. }
            | FaultKind::DiskSlow { duration_ms, .. }
            | FaultKind::VhostStall { duration_ms, .. } => Some(*duration_ms),
            FaultKind::DaemonCrash { .. }
            | FaultKind::DaemonRestart { .. }
            | FaultKind::CacheDrop { .. }
            | FaultKind::VmCrash { .. } => None,
        }
    }
}

/// Window tail of a fault with no restore delay (crashes, restarts,
/// cache drops), so throughput-during-fault still has a window to
/// integrate over.
const NO_RESTORE_TAIL_MS: u64 = 2_000;

/// One planned fault: a simulated instant plus what happens then.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Fire time in simulated milliseconds from scenario start.
    pub at_ms: u64,
    /// The fault.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Parses one entry of a scenario's `"faults"` array.
    pub(crate) fn from_json(j: &Json) -> Result<FaultSpec, SpecError> {
        let ctx = "fault";
        let host = || req_str(j, "host", ctx);
        let vm = || req_str(j, "vm", ctx);
        let factor = || {
            req(j, "factor", ctx)?
                .as_f64()
                .ok_or_else(|| parse_err("fault: field \"factor\" must be a number"))
        };
        let duration_ms = || opt_u64(j, "duration_ms", 100, ctx);
        let (kind, keys): (FaultKind, &[&str]) = match req_str(j, "kind", ctx)?.as_str() {
            "daemon-crash" => (FaultKind::DaemonCrash { host: host()? }, &["host"]),
            "daemon-restart" => (FaultKind::DaemonRestart { host: host()? }, &["host"]),
            "link-flap" => (
                FaultKind::LinkFlap {
                    host: host()?,
                    factor: factor()?,
                    duration_ms: duration_ms()?,
                },
                &["host", "factor", "duration_ms"],
            ),
            "disk-slow" => (
                FaultKind::DiskSlow {
                    host: host()?,
                    factor: factor()?,
                    duration_ms: duration_ms()?,
                },
                &["host", "factor", "duration_ms"],
            ),
            "cache-drop" => (FaultKind::CacheDrop { host: host()? }, &["host"]),
            "vhost-stall" => (
                FaultKind::VhostStall {
                    vm: vm()?,
                    duration_ms: duration_ms()?,
                },
                &["vm", "duration_ms"],
            ),
            "vm-crash" => (FaultKind::VmCrash { vm: vm()? }, &["vm"]),
            other => return Err(parse_err(format!("fault: unknown kind {other:?}"))),
        };
        check_keys(j, ctx, &[&["at_ms", "kind"], keys].concat())?;
        Ok(FaultSpec {
            at_ms: req_u64(j, "at_ms", ctx)?,
            kind,
        })
    }

    /// Where this fault's window ends, in ms: the fire time plus the
    /// restore delay, or plus [`NO_RESTORE_TAIL_MS`] for a fault without
    /// one. `None` when the sum overflows.
    pub(crate) fn window_end_ms(&self) -> Option<u64> {
        self.at_ms
            .checked_add(self.kind.duration_ms().unwrap_or(NO_RESTORE_TAIL_MS))
    }
}

/// Name-resolution context handed to [`build_fault_actions`] by the
/// scenario runner.
pub(crate) struct FaultTargets<'a> {
    /// Host name → index.
    pub hosts: &'a HashMap<String, HostIx>,
    /// VM name → id.
    pub vms: &'a HashMap<String, VmId>,
    /// VMs that run a datanode (the only valid `vm-crash` targets).
    pub datanodes: &'a HashSet<VmId>,
}

/// Armed plan: instants paired with the action each fires.
pub(crate) type FaultSchedule = Vec<(SimTime, Box<dyn FaultAction>)>;

/// Resolves a plan against the assembled cluster, lowering each
/// [`FaultKind`] to the subsystem-level action it injects.
pub(crate) fn build_fault_actions(
    faults: &[FaultSpec],
    w: &World,
    targets: &FaultTargets<'_>,
) -> Result<FaultSchedule, SpecError> {
    let cl = w.ext.get::<Cluster>().expect("cluster");
    let host = |name: &str| -> Result<HostIx, SpecError> {
        targets
            .hosts
            .get(name)
            .copied()
            .ok_or_else(|| SpecError::Unresolved(format!("fault host {name}")))
    };
    let vm = |name: &str| -> Result<VmId, SpecError> {
        targets
            .vms
            .get(name)
            .copied()
            .ok_or_else(|| SpecError::Unresolved(format!("fault vm {name}")))
    };
    let mut plan: Vec<(SimTime, Box<dyn FaultAction>)> = Vec::with_capacity(faults.len());
    for f in faults {
        let at = SimTime::ZERO + SimDuration::from_millis(f.at_ms);
        let action: Box<dyn FaultAction> = match &f.kind {
            FaultKind::DaemonCrash { host: h } => Box::new(CrashDaemon { host: host(h)? }),
            FaultKind::DaemonRestart { host: h } => Box::new(RestartDaemon { host: host(h)? }),
            FaultKind::LinkFlap {
                host: h,
                factor,
                duration_ms,
            } => Box::new(DegradeLink {
                link: cl.hosts[host(h)?.0].nic,
                factor: *factor,
                extra_latency: SimDuration::from_millis(1),
                duration: SimDuration::from_millis(*duration_ms),
            }),
            FaultKind::DiskSlow {
                host: h,
                factor,
                duration_ms,
            } => Box::new(SlowDisk {
                dev: cl.hosts[host(h)?.0].dev,
                factor: *factor,
                duration: SimDuration::from_millis(*duration_ms),
            }),
            FaultKind::CacheDrop { host: h } => Box::new(DropHostCache { host: host(h)? }),
            FaultKind::VhostStall { vm: v, duration_ms } => Box::new(StallThread {
                thread: cl.vm(vm(v)?).vhost,
                duration: SimDuration::from_millis(*duration_ms),
            }),
            FaultKind::VmCrash { vm: v } => {
                let id = vm(v)?;
                if !targets.datanodes.contains(&id) {
                    return Err(SpecError::Invalid(format!(
                        "vm-crash target {v} is not a datanode VM"
                    )));
                }
                Box::new(CrashDatanodeVm { vm: id })
            }
        };
        plan.push((at, action));
    }
    Ok(plan)
}

/// Rejects a plan whose fire times, restore delays or window ends would
/// overflow simulated time (a window end bounds both its fire time and
/// its restore delay, so it is the one value checked), or whose
/// `link-flap` or `disk-slow` factor lies outside [1, 1e5].
pub(crate) fn check_faults(faults: &[FaultSpec]) -> Result<(), SpecError> {
    for f in faults {
        check_ms(
            &format!("fault at_ms {} plus its window tail", f.at_ms),
            f.window_end_ms(),
        )?;
        if let FaultKind::LinkFlap { factor, .. } | FaultKind::DiskSlow { factor, .. } = f.kind {
            if !(1.0..=100_000.0).contains(&factor) {
                return Err(SpecError::Invalid(format!(
                    "{} factor {factor} (must be in [1, 1e5])",
                    f.kind.kind_str()
                )));
            }
        }
    }
    Ok(())
}

/// The fault window `[start, end]` of a plan in simulated time,
/// extending past the last fire time by each fault's
/// [`FaultSpec::window_end_ms`] tail. The plan must have passed
/// [`check_faults`].
///
/// [`crate::Deployment::arm_faults`] installs this window as the run's
/// [`FaultTrace`](vread_sim::fault::FaultTrace), replacing the narrower
/// one `schedule_faults` stored. The DFS client's window byte counter
/// reads it during the run and [`collect_fault_report`] divides that
/// counter by its length, so both see the same window.
pub(crate) fn plan_window(faults: &[FaultSpec]) -> (SimTime, SimTime) {
    let start_ms = faults.iter().map(|f| f.at_ms).min().unwrap_or(0);
    let end_ms = faults
        .iter()
        .map(|f| f.window_end_ms().expect("fault times checked"))
        .max()
        .unwrap_or(0);
    (
        SimTime::ZERO + SimDuration::from_millis(start_ms),
        SimTime::ZERO + SimDuration::from_millis(end_ms),
    )
}

/// How a fault run degraded and recovered.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Fault actions fired (including restores).
    pub events: u64,
    /// Block reads the vRead path served through the vanilla fallback.
    pub fallback_reads: u64,
    /// Vanilla-path failovers to a surviving replica.
    pub failovers: u64,
    /// Timed-out reads retried on the same replica (degraded path).
    pub path_retries: u64,
    /// Daemon restarts observed.
    pub daemon_restarts: u64,
    /// Seconds from the last daemon restart to the next successful
    /// vRead read (`None` when either never happened).
    pub recovery_s: Option<f64>,
    /// Application throughput inside the fault window, MB/s (`None`
    /// when no chunk landed inside it).
    pub during_fault_mbs: Option<f64>,
}

impl FaultReport {
    /// JSON object with a fixed field order.
    pub(crate) fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, n);
        obj(vec![
            ("events", n(self.events as f64)),
            ("fallback_reads", n(self.fallback_reads as f64)),
            ("failovers", n(self.failovers as f64)),
            ("path_retries", n(self.path_retries as f64)),
            ("daemon_restarts", n(self.daemon_restarts as f64)),
            ("recovery_s", opt(self.recovery_s)),
            ("during_fault_mbs", opt(self.during_fault_mbs)),
        ])
    }
}

/// Condenses the degradation metrics of a finished fault run.
pub fn collect_fault_report(w: &World) -> FaultReport {
    let c = |k: &str| w.metrics.counter(k) as u64;
    let recovery_s = (|| {
        let restart = *w.metrics.samples("daemon_restart_at_s")?.values().last()?;
        let ok = w
            .metrics
            .samples("vread_ok_at_s")?
            .values()
            .iter()
            .copied()
            .find(|&t| t >= restart)?;
        Some(ok - restart)
    })();
    let during_fault_mbs = (|| {
        let trace = w.ext.get::<vread_sim::fault::FaultTrace>()?;
        let (start, end) = (
            trace.window_start.as_secs_f64(),
            trace.window_end.as_secs_f64(),
        );
        if end <= start {
            return None;
        }
        let inside = w.metrics.counter("fault_window_read_bytes");
        if inside == 0.0 {
            return None;
        }
        Some(inside / 1e6 / (end - start))
    })();
    FaultReport {
        events: c("fault_events"),
        fallback_reads: c("vread_fallbacks"),
        failovers: c("dfs_read_failovers"),
        path_retries: c("dfs_read_path_retries"),
        daemon_restarts: c("fault_daemon_restarts"),
        recovery_s,
        during_fault_mbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse_from_json() {
        let j = Json::parse(
            r#"[
                { "at_ms": 100, "kind": "daemon-crash", "host": "h1" },
                { "at_ms": 600, "kind": "daemon-restart", "host": "h1" },
                { "at_ms": 50, "kind": "link-flap", "host": "h2", "factor": 8.0 },
                { "at_ms": 70, "kind": "disk-slow", "host": "h2", "factor": 4.0, "duration_ms": 250 },
                { "at_ms": 90, "kind": "cache-drop", "host": "h1" },
                { "at_ms": 110, "kind": "vhost-stall", "vm": "dn1", "duration_ms": 40 },
                { "at_ms": 130, "kind": "vm-crash", "vm": "dn2" }
            ]"#,
        )
        .unwrap();
        let faults: Vec<FaultSpec> = j
            .as_array()
            .unwrap()
            .iter()
            .map(FaultSpec::from_json)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(faults.len(), 7);
        assert_eq!(
            faults[2].kind,
            FaultKind::LinkFlap {
                host: "h2".to_owned(),
                factor: 8.0,
                duration_ms: 100
            },
            "duration defaults to 100 ms"
        );
        assert_eq!(faults[6].kind.kind_str(), "vm-crash");
        let (start, end) = plan_window(&faults);
        assert_eq!(start.as_secs_f64(), 0.05);
        assert_eq!(end.as_secs_f64(), 2.6, "crash extends 2 s past fire");
    }

    #[test]
    fn unknown_kind_is_a_parse_error() {
        let j = Json::parse(r#"{ "at_ms": 1, "kind": "meteor-strike", "host": "h1" }"#).unwrap();
        assert!(matches!(FaultSpec::from_json(&j), Err(SpecError::Parse(_))));
    }
}
