//! Cross-run determinism: the same seed must reproduce the same world
//! bit-for-bit — event count, clock, and every recorded metric — and a
//! whole experiment must render byte-identical tables on every run.
//! This is what makes the parallel `repro --jobs N` runner safe: each
//! experiment builds its own `World`, so the job count cannot change
//! any output.

use vread_apps::java_reader::ReaderMode;
use vread_bench::experiments::{self, reader_pass};
use vread_bench::{Locality, Testbed, TestbedOpts};

/// Full observable state of one finished fig2-style reader pass.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events_processed: u64,
    now_ns: u64,
    /// The whole registry, Debug-formatted: every counter, sample and
    /// gauge, with f64s in a form that captures every bit.
    metrics: String,
}

fn fig2_pass(seed: u64) -> Fingerprint {
    let mut tb = Testbed::build(TestbedOpts {
        seed,
        ..TestbedOpts::new()
    });
    let file = 32 << 20;
    tb.populate("/f", file, Locality::CoLocated);
    let client = tb.make_client();
    let path = "/f".to_owned();
    let mode = ReaderMode::Dfs { client, path };
    reader_pass(&mut tb.w, tb.client_vm, mode, 1 << 20, file);
    Fingerprint {
        events_processed: tb.w.events_processed(),
        now_ns: tb.w.now().as_nanos(),
        metrics: format!("{:?}", tb.w.metrics),
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
