//! The workload generator is a pure function of its seed, and every
//! document it makes is a scenario the simulator accepts and deploys.

use vread_bench::{Deployment, ScenarioSpec};
use vread_benchmark::layered::plan_of;
use vread_benchmark::workloads::{generate, traced, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

#[test]
fn generation_is_deterministic_per_seed() {
    for w in WORKLOADS {
        for seed in [0, DEFAULT_SEED, HELD_OUT_SEED, u64::MAX] {
            let a = generate(w, seed).expect("known workload");
            let b = generate(w, seed).expect("known workload");
            assert_eq!(a.json, b.json, "{w} at seed {seed}");
            assert_eq!(a.expect, b.expect);
        }
    }
}

#[test]
fn default_and_held_out_seeds_differ() {
    for w in WORKLOADS {
        let a = generate(w, DEFAULT_SEED).unwrap();
        let b = generate(w, HELD_OUT_SEED).unwrap();
        assert_ne!(
            a.json, b.json,
            "{w}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} agree"
        );
        assert_eq!(a.expect, b.expect, "{w}: the seed must not change the work");
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(generate("hit", 1).is_none());
}

#[test]
fn every_spec_parses_and_builds() {
    for w in WORKLOADS {
        for seed in 1..=10 {
            let g = generate(w, seed).unwrap();
            let spec = ScenarioSpec::from_json(&g.json)
                .unwrap_or_else(|e| panic!("{w} seed {seed}: {e}\n{}", g.json));
            assert!(spec.workloads.len() >= 2, "{w}: drives through run_jobs");
            let total: u64 = spec.files.iter().map(|f| f.mb << 20).sum();
            assert!(total > 0, "{w} reads populated files");
            Deployment::build(plan_of(&spec))
                .unwrap_or_else(|e| panic!("{w} seed {seed} does not deploy: {e}"));
            let t = ScenarioSpec::from_json(&traced(&g.json).unwrap()).unwrap();
            assert!(t.spans && t.timeline.is_some(), "{w}: traced variant");
        }
    }
}
