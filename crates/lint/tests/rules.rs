//! Fixture-based rule tests.
//!
//! Each fixture under `tests/fixtures/` marks its expected violations
//! with a trailing `//~ rule-id` comment (compiletest style); negative
//! fixtures carry no markers and must produce nothing. Fixtures are
//! plain text to the linter — they are never compiled, and the
//! workspace walk skips `fixtures/` directories so the deliberate
//! violations inside them cannot fail the self-check.

use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(rule, line)` pairs from `//~ rule` markers.
fn expected(src: &str) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("//~").nth(1).map(|r| {
                (
                    r.trim().to_owned(),
                    u32::try_from(i + 1).expect("fixture line fits u32"),
                )
            })
        })
        .collect();
    out.sort();
    out
}

/// Lints `name` under `virtual_path` and compares against the markers.
fn check(name: &str, virtual_path: &str) {
    let src = fixture(name);
    let want = expected(&src);
    let mut got: Vec<(String, u32)> = vread_lint::lint_source_counted(virtual_path, &src)
        .0
        .into_iter()
        .map(|v| {
            assert_eq!(v.file, virtual_path, "violation carries the linted path");
            (v.rule, v.line)
        })
        .collect();
    got.sort();
    assert_eq!(got, want, "fixture {name} under {virtual_path}");
}

#[test]
fn wall_clock_fixtures() {
    check("wall_clock_pos.rs", "crates/core/src/fixture.rs");
    check("wall_clock_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn unordered_iter_fixtures() {
    check("unordered_iter_pos.rs", "crates/core/src/fixture.rs");
    check("unordered_iter_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn unordered_iter_flags_seedless_hasher_maps() {
    check(
        "unordered_iter_seedless_pos.rs",
        "crates/core/src/fixture.rs",
    );
}

#[test]
fn ambient_entropy_fixtures() {
    check("ambient_entropy_pos.rs", "crates/core/src/fixture.rs");
    check("ambient_entropy_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn checked_cast_fixtures() {
    // In scope: the cycle/byte accounting crates.
    check("checked_cast_pos.rs", "crates/sim/src/fixture.rs");
    check("checked_cast_neg.rs", "crates/sim/src/fixture.rs");
}

#[test]
fn checked_cast_out_of_scope_is_silent() {
    // The same narrowing casts outside crates/sim//crates/host do not
    // fire — but the now-unused allow annotation does.
    let src = fixture("checked_cast_pos.rs");
    let v = vread_lint::lint_source_counted("crates/apps/src/fixture.rs", &src).0;
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "unused-allow");
}

#[test]
fn threading_fixtures() {
    check("threading_pos.rs", "crates/core/src/fixture.rs");
    check("threading_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn float_accum_fixtures() {
    check("float_accum_pos.rs", "crates/core/src/fixture.rs");
    check("float_accum_neg.rs", "crates/core/src/fixture.rs");
}

#[test]
fn charge_confine_fixtures() {
    check("charge_confine_pos.rs", "crates/sim/src/daemon.rs");
    check("charge_confine_neg.rs", "crates/sim/src/daemon.rs");
}

#[test]
fn charge_confine_sanctioned_paths_are_silent() {
    // The same raw charges inside the wrapper's own files are the point
    // of those files, not violations.
    let src = fixture("charge_confine_pos.rs");
    for path in ["crates/sim/src/sched.rs", "crates/sim/src/cpu.rs"] {
        let v = vread_lint::lint_source_counted(path, &src).0;
        assert!(v.is_empty(), "{path}: {v:?}");
    }
}

#[test]
fn timeline_confine_fixtures() {
    check("timeline_confine_pos.rs", "crates/hdfs/src/client.rs");
    check("timeline_confine_neg.rs", "crates/hdfs/src/client.rs");
}

#[test]
fn timeline_confine_sanctioned_path_is_silent() {
    // The raw sinks inside the timeline module itself are the sampler
    // and observe_read — the sanctioned implementation, not violations.
    let src = fixture("timeline_confine_pos.rs");
    let v = vread_lint::lint_source_counted("crates/sim/src/timeline.rs", &src).0;
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn sealed_match_fixtures() {
    check("sealed_match_pos.rs", "crates/core/src/fixture.rs");
    check("sealed_match_neg.rs", "crates/core/src/fixture.rs");
}

/// Writes a throwaway tree with fixture `name` as `crates/fx/src/lib.rs`
/// beside the callers the test-only-pub fixtures describe, and returns
/// its root and the paths of its `.rs` files. The tree's directory is
/// keyed by the calling `test` too, so tests running in parallel never
/// delete each other's trees.
fn fixture_tree(test: &str, name: &str) -> (std::path::PathBuf, Vec<std::path::PathBuf>) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tree-{test}-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        ("crates/fx/src/lib.rs", fixture(name)),
        (
            "crates/fx/src/other.rs",
            "use crate::parse;\nfn go() -> u32 {\n    parse::<u32>()\n}\n".to_owned(),
        ),
        (
            "crates/fx/tests/calls.rs",
            "#[test]\nfn calls() {\n    fx::only_tests_call_me();\n    fx::const_too();\n    \
             fx::Meter.unread();\n    fx::Meter.generic::<u8>();\n    fx::Meter::zero();\n    \
             fx::rng();\n    fx::kept();\n}\n"
                .to_owned(),
        ),
        (
            "examples/demo.rs",
            "fn main() {\n    fx::listed();\n}\n".to_owned(),
        ),
        (
            "benchmark/src/main.rs",
            "fn main() {\n    fx::bench_only();\n}\n".to_owned(),
        ),
    ];
    for (rel, src) in &files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    let paths = vread_lint::collect_rs_files(&root).unwrap();
    (root, paths)
}

#[test]
fn test_only_pub_fixtures() {
    for name in ["test_only_pub_pos.rs", "test_only_pub_neg.rs"] {
        let (root, _) = fixture_tree("test_only_pub_fixtures", name);
        let report = vread_lint::run_workspace(&root).unwrap();
        let mut got: Vec<(String, u32)> = report
            .violations
            .into_iter()
            .map(|v| {
                assert_eq!(v.file, "crates/fx/src/lib.rs", "{v:?}");
                (v.rule, v.line)
            })
            .collect();
        got.sort();
        assert_eq!(got, expected(&fixture(name)), "fixture {name}");
    }
    let (root, _) = fixture_tree("test_only_pub_fixtures", "test_only_pub_pos.rs");
    let report = vread_lint::run_workspace(&root).unwrap();
    assert_eq!(report.allow_counts.get("test-only-pub"), Some(&1));
}

#[test]
fn test_only_pub_needs_the_whole_tree() {
    // A partial scan cannot see every caller: it neither runs the rule
    // nor calls its allows unused.
    let (root, paths) = fixture_tree("test_only_pub_needs_the_whole_tree", "test_only_pub_pos.rs");
    let report = vread_lint::run_files(&root, &paths).unwrap();
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(report.allow_counts.is_empty(), "{:?}", report.allow_counts);
}
