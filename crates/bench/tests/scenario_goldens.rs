//! Report goldens for the shipped scenarios: every `scenarios/*.json`
//! must render byte for byte the report committed under
//! `scenarios/golden/<name>.report.json`, which is exactly what
//! `repro scenario scenarios/<name>.json` prints.
//!
//! A change that is meant to alter a report regenerates its golden with
//! `repro scenario scenarios/<name>.json > scenarios/golden/<name>.report.json`
//! and says why in its description.

use std::path::{Path, PathBuf};

use vread_bench::ScenarioSpec;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The shipped scenario files, in name order.
fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_scenario_has_a_golden() {
    let files = scenario_files();
    assert!(
        files.len() >= 6,
        "expected the shipped scenarios, found {files:?}"
    );
    let mut goldens: Vec<String> = std::fs::read_dir(scenarios_dir().join("golden"))
        .expect("scenarios/golden/ is readable")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    goldens.sort();
    let expected: Vec<String> = files
        .iter()
        .map(|p| format!("{}.report.json", p.file_stem().unwrap().to_string_lossy()))
        .collect();
    assert_eq!(goldens, expected, "one golden per scenario, nothing else");
}

#[test]
fn scenario_reports_match_goldens() {
    let mut diverged = Vec::new();
    for file in scenario_files() {
        let name = file.file_stem().unwrap().to_string_lossy().into_owned();
        let json = std::fs::read_to_string(&file).expect("scenario is readable");
        let report = ScenarioSpec::from_json(&json)
            .and_then(|s| s.run())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // `repro scenario` prints the report with a trailing newline.
        let got = format!("{}\n", report.to_json());
        let golden = scenarios_dir().join(format!("golden/{name}.report.json"));
        let want = std::fs::read_to_string(&golden).expect("golden is readable");
        if got != want {
            diverged.push(name);
        }
    }
    assert!(
        diverged.is_empty(),
        "reports differ from scenarios/golden/ for {diverged:?}"
    );
}
