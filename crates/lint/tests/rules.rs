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
    let mut got: Vec<(String, u32)> = vread_lint::lint_source(virtual_path, &src)
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
    let v = vread_lint::lint_source("crates/apps/src/fixture.rs", &src);
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
        let v = vread_lint::lint_source(path, &src);
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
    let v = vread_lint::lint_source("crates/sim/src/timeline.rs", &src);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn sealed_match_fixtures() {
    check("sealed_match_pos.rs", "crates/core/src/fixture.rs");
    check("sealed_match_neg.rs", "crates/core/src/fixture.rs");
}
