//! The benchmark's sources pass the workspace determinism lint with no
//! violations and no allow annotations, so the repository's suppression
//! ratchet does not move: host time comes only from the criterion shim.

use std::path::Path;

#[test]
fn benchmark_sources_are_lint_clean_without_allows() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = dir
        .parent()
        .expect("the benchmark sits inside the repository");
    let files = vread_lint::collect_rs_files(dir).expect("walk the benchmark");
    assert!(files.len() >= 10, "walk found the sources: {files:?}");
    let report = vread_lint::run_files(root, &files).expect("lint the benchmark");
    assert!(
        report.is_clean(),
        "lint violations:\n{}",
        report.render_human()
    );
    assert!(
        report.allow_counts.is_empty(),
        "allow annotations: {:?}",
        report.allow_counts
    );
}
