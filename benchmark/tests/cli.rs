//! Malformed invocations exit with status 2 and print no result line.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vread-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn malformed_invocations_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "remote-vread", "--trace", "2"],
        &["--workload", "remote-vread", "--seconds", "0"],
        &["--workload", "remote-vread", "--bogus", "1"],
        &["--seed"],
        &["stray"],
        &["compare", "only-one.json"],
        &["--child=nope"],
    ] {
        let (code, stdout) = run(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}

#[test]
fn compare_of_missing_files_is_an_error() {
    let (code, _) = run(&["compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(code, Some(2));
}
