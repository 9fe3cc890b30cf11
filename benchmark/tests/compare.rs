//! `compare` verdicts against hand-made result files.

use vread_benchmark::compare::{bounds, compare, judge, Verdict};

const SPEC: &str = r#"{"end_to_end": [
    {"name": "wall_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "sim_throughput_mbps", "unit": "MB/s", "better": "higher", "bound": 0.02}
]}"#;

fn results(wall: f64, spread: f64, mbps: f64) -> String {
    format!(
        r#"{{"workloads": [{{"name": "w", "rounds": 4, "metrics": [
            {{"name": "wall_ms", "value": {wall}, "spread": {spread}}},
            {{"name": "sim_throughput_mbps", "value": {mbps}, "spread": 0}}
        ]}}]}}"#
    )
}

#[test]
fn verdicts_follow_direction_and_bound() {
    assert_eq!(judge(100.0, 100.0, 0.5, "lower", 0.1), Verdict::Within);
    assert_eq!(judge(100.0, 109.0, 0.02, "lower", 0.1), Verdict::Within);
    assert_eq!(judge(100.0, 111.0, 0.02, "lower", 0.1), Verdict::Regressed);
    assert_eq!(judge(100.0, 89.0, 0.02, "lower", 0.1), Verdict::Improved);
    assert_eq!(judge(100.0, 89.0, 0.02, "higher", 0.1), Verdict::Regressed);
    assert_eq!(judge(100.0, 111.0, 0.02, "higher", 0.1), Verdict::Improved);
    assert_eq!(judge(100.0, 150.0, 0.2, "lower", 0.1), Verdict::Unresolved);
    assert_eq!(judge(0.0, 1.0, 0.0, "lower", 0.1), Verdict::Unresolved);
}

#[test]
fn bit_identical_values_are_within_even_when_noisy() {
    assert_eq!(judge(3.25, 3.25, 0.9, "lower", 0.01), Verdict::Within);
}

#[test]
fn bounds_come_from_the_benchmark_file() {
    let b = bounds(SPEC).unwrap();
    assert_eq!(b.len(), 2);
    assert_eq!(b[1].name, "sim_throughput_mbps");
    assert_eq!(b[1].better, "higher");
    assert_eq!(b[1].bound, 0.02);
    assert!(bounds("{}").is_err());
    assert!(bounds("not json").is_err());
}

#[test]
fn compare_judges_every_metric_of_every_workload() {
    let rows = compare(
        SPEC,
        &results(100.0, 0.01, 500.0),
        &results(120.0, 0.01, 500.0),
    )
    .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].verdict, Verdict::Regressed);
    assert_eq!(rows[1].verdict, Verdict::Within);

    // a 30% round spread over 4 rounds: the median moves by about 15%
    let rows = compare(
        SPEC,
        &results(100.0, 0.3, 500.0),
        &results(120.0, 0.01, 480.0),
    )
    .unwrap();
    assert_eq!(rows[0].verdict, Verdict::Unresolved, "noisy baseline");
    assert!((rows[0].spread - 0.15).abs() < 1e-12);
    assert_eq!(rows[1].verdict, Verdict::Regressed, "throughput fell 4%");

    // a 16% round spread over 4 rounds still resolves a 10% bound
    let rows = compare(
        SPEC,
        &results(100.0, 0.16, 500.0),
        &results(120.0, 0.16, 500.0),
    )
    .unwrap();
    assert_eq!(rows[0].verdict, Verdict::Regressed);
}

#[test]
fn a_missing_metric_counts_as_regressed() {
    let empty = r#"{"workloads": [{"name": "w", "metrics": []}]}"#;
    let rows = compare(SPEC, &results(100.0, 0.0, 1.0), empty).unwrap();
    assert!(rows.iter().all(|r| r.verdict == Verdict::Regressed));
    assert!(compare(SPEC, "nope", empty).is_err());
}
