//! Property tests of the fault-injection subsystem: any random
//! `FaultPlan` — whatever it crashes, stalls, or slows — must leave a
//! scenario that (a) terminates, (b) conserves every payload byte, and
//! (c) is bit-for-bit deterministic when replayed.

use proptest::prelude::*;
use vread_bench::{FaultKind, FaultSpec, ReadPath, ScenarioSpec, WorkloadSpec};
use vread_sim::SimRng;

const FILE_MB: u64 = 64;

/// A seeded random fault plan over the given targets, restricted to
/// shapes that must terminate: at most one `vm-crash` (always against a
/// datanode), bounded factors/durations.
fn random_plan(seed: u64, hosts: &[&str], datanode_vms: &[&str], events: usize) -> Vec<FaultSpec> {
    assert!(!hosts.is_empty(), "random_plan needs at least one host");
    let mut rng = SimRng::new(seed ^ 0x000F_A171_7E57);
    let mut plan = Vec::with_capacity(events);
    let mut vm_crashed = false;
    for _ in 0..events {
        let at_ms = 5 + rng.below(800);
        let host = hosts[rng.below(hosts.len() as u64) as usize].to_owned();
        let factor = 2.0 + rng.next_f64() * 30.0;
        let duration_ms = 20 + rng.below(380);
        let kind = match rng.below(7) {
            0 => FaultKind::DaemonCrash { host },
            1 => FaultKind::DaemonRestart { host },
            2 => FaultKind::LinkFlap {
                host,
                factor,
                duration_ms,
            },
            3 => FaultKind::DiskSlow {
                host,
                factor,
                duration_ms,
            },
            4 => FaultKind::CacheDrop { host },
            5 if !datanode_vms.is_empty() => FaultKind::VhostStall {
                vm: datanode_vms[rng.below(datanode_vms.len() as u64) as usize].to_owned(),
                duration_ms,
            },
            6 if !datanode_vms.is_empty() && !vm_crashed => {
                vm_crashed = true;
                FaultKind::VmCrash {
                    vm: datanode_vms[rng.below(datanode_vms.len() as u64) as usize].to_owned(),
                }
            }
            _ => FaultKind::CacheDrop { host },
        };
        plan.push(FaultSpec { at_ms, kind });
    }
    plan
}

#[test]
fn random_plans_are_seed_deterministic_and_bounded() {
    let a = random_plan(9, &["h1", "h2"], &["dn1", "dn2"], 12);
    let b = random_plan(9, &["h1", "h2"], &["dn1", "dn2"], 12);
    assert_eq!(a, b);
    let crashes = a
        .iter()
        .filter(|f| matches!(f.kind, FaultKind::VmCrash { .. }))
        .count();
    assert!(crashes <= 1, "at most one vm-crash per plan");
    assert_ne!(a, random_plan(10, &["h1", "h2"], &["dn1", "dn2"], 12));
}

/// Builds the canonical two-host faulted scenario for one plan seed.
fn faulted_spec(plan_seed: u64, path: ReadPath) -> ScenarioSpec {
    let plan = random_plan(plan_seed, &["h1", "h2"], &["dn1", "dn2"], 4);
    let mut b = ScenarioSpec {
        seed: 7,
        ..ScenarioSpec::builder()
    }
    .path(path)
    .host("h1", 4, 2.0)
    .host("h2", 4, 2.0)
    .client("client", "h1")
    .datanode("dn1", "h1")
    .datanode("dn2", "h2")
    .replicated_file("/d", FILE_MB, &["dn1", "dn2"])
    .workload(WorkloadSpec::Reader {
        path: "/d".into(),
        request_kb: 1024,
    });
    for f in plan {
        b = b.fault(f.at_ms, f.kind);
    }
    b.build().expect("random plans always build a valid spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every random fault plan terminates with all bytes delivered and a
    /// deterministic fingerprint (same plan → byte-identical report).
    #[test]
    fn random_fault_plans_terminate_conserve_bytes_and_replay(
        plan_seed in 0u64..1_000_000,
        path_ix in 0usize..3,
    ) {
        let path = ReadPath::ALL[path_ix];
        let spec = faulted_spec(plan_seed, path);
        let a = spec.run().expect("faulted scenario terminates");
        let b = spec.run().expect("replay terminates");
        prop_assert_eq!(a.bytes, FILE_MB << 20, "no byte lost to faults");
        prop_assert_eq!(b.bytes, FILE_MB << 20);
        prop_assert_eq!(a.to_json(), b.to_json(), "replay is bit-identical");
    }
}
