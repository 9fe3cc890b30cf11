//! `BENCHMARK.json` at the repository root describes this benchmark:
//! its workloads and metrics must match the code, and its fields must
//! stay within the schema's limits.

use std::path::Path;

use vread_bench::json::Json;
use vread_benchmark::metrics::{end_to_end, per_layer, Metric};
use vread_benchmark::workloads::WORKLOADS;

fn load() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {j:?}"),
    }
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} in {j:?}"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(list: &Json, want: &[Metric], with_bound: bool) {
    let list = list.as_array().unwrap();
    assert_eq!(list.len(), want.len());
    for (j, m) in list.iter().zip(want) {
        let mut expected_keys = vec!["name", "unit", "better"];
        if with_bound {
            expected_keys.push("bound");
            let b = j.get("bound").and_then(Json::as_f64).unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert_eq!(keys(j), expected_keys, "{}", m.name);
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(str_of(j, "better"), m.better, "{}", m.name);
        assert!(valid_name(&m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}", m.unit);
    }
}

#[test]
fn schema_matches_the_code() {
    let j = load();
    assert_eq!(
        keys(&j),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = j.get("command").and_then(Json::as_array).unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    for c in command {
        let c = c.as_str().unwrap();
        assert!(
            c.len() <= 200 && !c.starts_with('/') && !c.contains(".."),
            "{c}"
        );
    }
    let paths = j.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let secs = j.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&secs));

    let workloads = j.get("workloads").and_then(Json::as_array).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    check_metrics(j.get("end_to_end").unwrap(), &end_to_end(), true);
    check_metrics(j.get("per_layer").unwrap(), &per_layer(), false);

    let mut all: Vec<String> = names.iter().map(|s| (*s).to_owned()).collect();
    all.extend(end_to_end().into_iter().chain(per_layer()).map(|m| m.name));
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "every name is used once");
}

#[test]
fn setup_time_has_the_largest_bound() {
    let j = load();
    let e2e = j.get("end_to_end").and_then(Json::as_array).unwrap();
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    let setup = e2e.iter().find(|m| str_of(m, "name") == "setup_s").unwrap();
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));
}
