//! Cross-run determinism: the same seed must reproduce the same world
//! bit-for-bit — event count, clock, and every recorded metric — and a
//! whole experiment must render byte-identical tables on every run.
//! This is what makes the parallel `repro --jobs N` runner safe: each
//! experiment builds its own `World`, so the job count cannot change
//! any output.

use vread_apps::driver::run_jobs;
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_bench::experiments;
use vread_bench::{Locality, Testbed, TestbedOpts};
use vread_sim::prelude::*;

/// Full observable state of one finished fig2-style reader pass.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events_processed: u64,
    now_ns: u64,
    metrics: Vec<(String, String)>,
}

fn fig2_pass(seed: u64) -> Fingerprint {
    let mut tb = Testbed::build(TestbedOpts::new().seed(seed));
    let file = 32 << 20;
    tb.populate("/f", file, Locality::CoLocated);
    let client = tb.make_client();
    let job = tb.w.register_job("reader");
    let reader = JavaReader::new(
        tb.client_vm,
        ReaderMode::Dfs {
            client,
            path: "/f".to_owned(),
        },
        1 << 20,
        file,
    )
    .with_job(job);
    let a = tb.w.add_actor("reader", reader);
    tb.w.send_now(a, Start);
    let ok = run_jobs(&mut tb.w, SimDuration::from_secs(300));
    assert!(ok, "reader pass did not finish");

    let mut metrics: Vec<(String, String)> = Vec::new();
    for k in tb.w.metrics.counter_keys() {
        // Debug-format f64: captures every bit, not a rounded view.
        metrics.push((k.to_owned(), format!("{:?}", tb.w.metrics.counter(k))));
    }
    let sample_keys: Vec<String> = tb.w.metrics.sample_keys().map(str::to_owned).collect();
    for k in &sample_keys {
        let s = tb.w.metrics.samples(k).expect("non-empty sample key");
        metrics.push((k.clone(), format!("{:?}", s.values())));
    }
    Fingerprint {
        events_processed: tb.w.events_processed(),
        now_ns: tb.w.now().as_nanos(),
        metrics,
    }
}

#[test]
fn fig2_scenario_same_seed_same_world() {
    let a = fig2_pass(42);
    let b = fig2_pass(42);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.now_ns, b.now_ns);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn fig2_experiment_tables_are_byte_identical_across_runs() {
    let registry = experiments::registry();
    let (_, runner) = registry
        .iter()
        .find(|(id, _)| *id == "fig2")
        .expect("fig2 registered");
    let a: Vec<String> = runner().iter().map(|t| t.to_json()).collect();
    let b: Vec<String> = runner().iter().map(|t| t.to_json()).collect();
    assert_eq!(a, b);
}
