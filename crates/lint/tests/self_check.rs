//! The workspace must be lint-clean — this is the load-bearing test
//! behind the determinism guarantees in DESIGN.md §11: any new
//! wall-clock read, unordered iteration over sim-visible hash state,
//! entropy source, narrowing accounting cast, or float reduction fails
//! `cargo test` here before it can break replay-based tests.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn workspace_is_lint_clean() {
    let report = vread_lint::run_workspace(workspace_root()).expect("walk workspace");
    assert!(report.files_scanned > 50, "walk found the workspace");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.render_human()
    );
}

#[test]
fn removing_an_allow_fails_the_run() {
    // The in-tree allow annotations are load-bearing: stripping any
    // one of them re-surfaces its violation. Spot-check the wall-clock
    // allows in the repro binary.
    let path = workspace_root().join("crates/bench/src/bin/repro.rs");
    let src = std::fs::read_to_string(&path).expect("read repro.rs");
    assert!(
        src.contains("vread-lint: allow(wall-clock"),
        "repro.rs carries its wall-clock allows"
    );
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("vread-lint: allow(wall-clock"))
        .map(|l| format!("{l}\n"))
        .collect();
    let violations = vread_lint::lint_source_counted("crates/bench/src/bin/repro.rs", &stripped).0;
    assert!(
        violations.iter().any(|v| v.rule == "wall-clock"),
        "stripping the allows must re-surface the wall-clock violations, got {violations:?}"
    );
}

#[test]
fn workspace_holds_the_committed_baseline() {
    // The suppression ratchet, run the way CI runs it: current per-rule
    // violation/allow counts may not exceed the committed
    // lint-baseline.json. A shrink is fine (re-anchor the baseline when
    // convenient); growth must be a conscious `--update-baseline`.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    let baseline = vread_lint::baseline::Baseline::parse(&text).expect("baseline parses");
    let report = vread_lint::run_workspace(root).expect("walk workspace");
    let regressions = baseline.regressions(&report.rule_counts());
    assert!(
        regressions.is_empty(),
        "suppression ratchet regressed: {regressions:?}\n\
         fix the new site, or consciously run `vread-lint --update-baseline`"
    );
}

#[test]
fn json_report_is_byte_stable() {
    let a = vread_lint::run_workspace(workspace_root()).expect("walk");
    let b = vread_lint::run_workspace(workspace_root()).expect("walk");
    assert_eq!(a.render_json(), b.render_json());
}

#[test]
fn benchmark_files_alone_report_nothing() {
    // The benchmark lints its own sources with `run_files`; the
    // whole-tree rule must stay out of that partial scan.
    let root = workspace_root();
    let files = vread_lint::collect_rs_files(&root.join("benchmark")).expect("walk benchmark");
    assert!(files.len() >= 10, "walk found the benchmark: {files:?}");
    let report = vread_lint::run_files(root, &files).expect("lint benchmark");
    assert!(report.is_clean(), "{}", report.render_human());
}
