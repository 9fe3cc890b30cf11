//! Usage errors of the `repro` binary.
//!
//! Every case here is rejected while the arguments are parsed, so each
//! run exits 2 with a message on stderr, prints nothing on stdout and
//! builds no world.

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
    let prefixes: [&[&str]; 5] = [
        &["fig2"],
        &["scenario", "scenarios/example.json"],
        &["trace", "vanilla"],
        &["timeline", "ramp"],
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
    for name in ["bench-engine", "lint"] {
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
    for sub in ["scenario", "trace", "timeline", "fault-matrix"] {
        assert!(names.contains(&sub), "list lacks {sub}: {stdout}");
    }
    for gone in ["bench-engine", "lint"] {
        assert!(!names.contains(&gone), "list still names {gone}: {stdout}");
    }
}

#[test]
fn sample_ms_past_simulated_time_is_a_usage_error() {
    // 18446744073710 ms is one past the largest millisecond count whose
    // nanoseconds fit in `u64`.
    assert_usage_error(
        &["timeline", "--sample-ms", "18446744073710"],
        "--sample-ms overflows simulated time (at most 18446744073709 ms)",
    );
    assert_usage_error(
        &["timeline", "--sample-ms", "0"],
        "--sample-ms needs a positive integer",
    );
}
