//! The `repro` binary's command line.
//!
//! Every usage error here is rejected while the arguments are parsed,
//! so each run exits 2 with a message on stderr, prints nothing on
//! stdout and builds no world. The `--trace-out` cases also run two
//! tiny scenarios end to end to check where their traces land, and the
//! fault matrix is checked against its committed golden.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run the repro binary")
}

/// Asserts `args` is a usage error whose stderr contains `message`.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(
        stderr.contains(message),
        "repro {args:?}: stderr {stderr:?} lacks {message:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn bad_jobs_values_are_usage_errors_everywhere() {
    // Top level (flags may follow experiment names), then after each
    // subcommand that takes `--jobs`. No file is read and no world runs.
    let prefixes: [&[&str]; 3] = [
        &["fig2"],
        &["scenario", "scenarios/example.json"],
        &["fault-matrix"],
    ];
    for prefix in prefixes {
        let with = |tail: &[&'static str]| [prefix, tail].concat();
        assert_usage_error(
            &with(&["--jobs", "0"]),
            "--jobs needs a positive integer, got \"0\"",
        );
        assert_usage_error(
            &with(&["--jobs", "abc"]),
            "--jobs needs a positive integer, got \"abc\"",
        );
        assert_usage_error(&with(&["--jobs"]), "--jobs needs a thread-count argument");
    }
}

#[test]
fn removed_subcommands_are_unknown_experiments() {
    for name in ["bench-engine", "lint", "trace", "timeline"] {
        assert_usage_error(&[name], &format!("unknown experiment: {name}"));
    }
}

#[test]
fn list_names_only_live_subcommands() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for sub in ["scenario", "fault-matrix"] {
        assert!(names.contains(&sub), "list lacks {sub}: {stdout}");
    }
    for gone in ["bench-engine", "lint", "trace", "timeline"] {
        assert!(!names.contains(&gone), "list still names {gone}: {stdout}");
    }
}

/// A 2 MB co-located vRead read: the smallest scenario with spans.
const TINY: &str = r#"{
  "path": "vread-rdma",
  "hosts": [ { "name": "h1", "cores": 2, "ghz": 2.0 } ],
  "vms": [
    { "name": "client", "host": "h1", "role": "client" },
    { "name": "dn1", "host": "h1", "role": "datanode" }
  ],
  "files": [ { "path": "/d", "mb": 2, "placement": ["dn1"] } ],
  "workload": { "kind": "reader", "path": "/d", "request_kb": 1024 }
}"#;

/// A fresh directory under the test target's scratch space.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trace_out_splits_the_extension_off_the_file_name_only() {
    // A dot in a directory name is not an extension: several scenarios
    // traced to `<dir>/x.d/trace` land in `<dir>/x.d/trace-<stem>`.
    let dir = scratch_dir("trace_out_names");
    let out_dir = dir.join("x.d");
    std::fs::create_dir_all(&out_dir).expect("create x.d");
    let mut files = Vec::new();
    for stem in ["first", "second"] {
        let file = dir.join(format!("{stem}.json"));
        std::fs::write(&file, TINY).expect("write scenario");
        files.push(file.to_str().expect("UTF-8 path").to_owned());
    }
    let base = out_dir.join("trace");
    let base = base.to_str().expect("UTF-8 path");
    let out = repro(&["scenario", &files[0], &files[1], "--trace-out", base]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for stem in ["first", "second"] {
        let trace = out_dir.join(format!("trace-{stem}"));
        let json = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{} not written: {e}", trace.display()));
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    }
}

#[test]
fn trace_out_with_repeated_file_stems_is_a_usage_error() {
    // Two files in different directories share a stem, so both runs
    // would write the same trace file.
    let dir = scratch_dir("trace_out_repeats");
    let mut files = Vec::new();
    for sub in ["a", "b"] {
        std::fs::create_dir_all(dir.join(sub)).expect("create subdir");
        let file = dir.join(sub).join("same.json");
        std::fs::write(&file, TINY).expect("write scenario");
        files.push(file.to_str().expect("UTF-8 path").to_owned());
    }
    let base = dir.join("t.json");
    let base = base.to_str().expect("UTF-8 path");
    assert_usage_error(
        &["scenario", &files[0], &files[1], "--trace-out", base],
        "--trace-out needs distinct file stems, \"same\" repeats",
    );
    assert!(!dir.join("t-same.json").exists(), "no trace is written");
}

/// Every fault kind against every read path, byte for byte as committed
/// in `tests/golden/fault-matrix.txt`, so a model change cannot move a
/// fallback, failover or copy count unseen. A change meant to move one
/// regenerates the golden with
/// `repro fault-matrix > crates/bench/tests/golden/fault-matrix.txt`.
#[test]
fn fault_matrix_matches_its_golden() {
    let out = repro(&["fault-matrix", "--jobs", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, include_str!("golden/fault-matrix.txt"));
}
