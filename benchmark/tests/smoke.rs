//! One iteration of each workload through every output check: the
//! untraced and traced reports, their simulated values, and the layered
//! replay the traced run times layer by layer.

use vread_bench::ScenarioSpec;
use vread_benchmark::checks::{check_report, same_sim, SimKey};
use vread_benchmark::layered;
use vread_benchmark::workloads::{generate, traced};

fn smoke(workload: &str) {
    let g = generate(workload, 1).unwrap();
    let spec = ScenarioSpec::from_json(&g.json).unwrap();
    let plain = spec.run().unwrap();
    check_report(&plain, &g.expect, false).unwrap();
    let again = ScenarioSpec::from_json(&g.json).unwrap().run().unwrap();
    assert_eq!(again.to_json(), plain.to_json(), "report bytes repeat");

    let t = ScenarioSpec::from_json(&traced(&g.json).unwrap())
        .unwrap()
        .run()
        .unwrap();
    check_report(&t, &g.expect, true).unwrap();
    let key = SimKey::of_report(&plain);
    same_sim(&SimKey::of_report(&t), &key, "traced run").unwrap();

    let f = layered::run_all(&spec).unwrap();
    let o = layered::outcome(&f.d, &f.armed).unwrap();
    same_sim(&SimKey::of_outcome(&o), &key, "layered replay").unwrap();
    let reads = f.d.w.metrics.samples("reader_delay_ms").unwrap().count();
    assert!(reads >= 1000, "{workload}: {reads} reads for the p99");
}

#[test]
fn contended_vanilla() {
    smoke("contended-vanilla");
}

#[test]
fn remote_vread() {
    smoke("remote-vread");
}

#[test]
fn write_read_mix() {
    smoke("write-read-mix");
}

#[test]
fn cluster_scale() {
    smoke("cluster-scale");
}
