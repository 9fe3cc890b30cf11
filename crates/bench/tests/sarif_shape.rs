//! SARIF 2.1.0 shape validation for the linter's `--format sarif`.
//!
//! vread-lint renders SARIF by hand (the crate is dependency-free by
//! design), so nothing inside it ever re-parses the output. This test
//! closes the loop from the bench side: parse the log with the bench
//! crate's JSON parser and check the 2.1.0 skeleton that code-scanning
//! consumers (GitHub, SARIF viewers) rely on.

use vread_bench::json::Json;
use vread_lint::LintReport;

/// A report with at least one real violation, produced by the actual
/// rule engine rather than hand-built structs.
fn report() -> LintReport {
    let src = "fn f(acct: &mut CpuAccounting) {\n    acct.add(1);\n}\n";
    let violations = vread_lint::lint_source_counted("crates/sim/src/daemon.rs", src).0;
    assert!(
        violations.iter().any(|v| v.rule == "charge-confine"),
        "fixture must violate charge-confine: {violations:?}"
    );
    LintReport {
        violations,
        files_scanned: 1,
        ..Default::default()
    }
}

fn parse(report: &LintReport) -> Json {
    let log = vread_lint::sarif::render_sarif(report);
    Json::parse(&log).expect("linter SARIF must be valid JSON")
}

#[test]
fn sarif_has_the_2_1_0_skeleton() {
    let j = parse(&report());
    assert_eq!(j.get("version").and_then(Json::as_str), Some("2.1.0"));
    let schema = j.get("$schema").and_then(Json::as_str).expect("$schema");
    assert!(schema.contains("sarif-2.1.0"), "{schema}");
    let runs = j.get("runs").and_then(Json::as_array).expect("runs[]");
    assert_eq!(runs.len(), 1, "one run per invocation");
    let driver = runs[0]
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("runs[0].tool.driver");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("vread-lint")
    );
    assert!(driver
        .get("informationUri")
        .and_then(Json::as_str)
        .is_some());
    let rules = driver.get("rules").and_then(Json::as_array).expect("rules");
    assert!(!rules.is_empty(), "driver must declare its rule catalog");
}

#[test]
fn sarif_results_reference_declared_rules() {
    let j = parse(&report());
    let run = &j.get("runs").and_then(Json::as_array).unwrap()[0];
    let rules = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .and_then(|d| d.get("rules"))
        .and_then(Json::as_array)
        .unwrap();
    let ids: Vec<&str> = rules
        .iter()
        .map(|r| r.get("id").and_then(Json::as_str).expect("rule.id"))
        .collect();
    let results = run
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert!(!results.is_empty());
    for r in results {
        let rule_id = r.get("ruleId").and_then(Json::as_str).expect("ruleId");
        let ix = r
            .get("ruleIndex")
            .and_then(Json::as_u64)
            .expect("ruleIndex");
        assert_eq!(
            ids.get(usize::try_from(ix).unwrap()).copied(),
            Some(rule_id),
            "ruleIndex must point at the declared rule"
        );
        assert_eq!(r.get("level").and_then(Json::as_str), Some("error"));
        let text = r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .expect("message.text");
        assert!(!text.is_empty());
    }
}

#[test]
fn sarif_locations_carry_relative_uri_and_region() {
    let rep = report();
    let j = parse(&rep);
    let results = j.get("runs").and_then(Json::as_array).unwrap()[0]
        .get("results")
        .and_then(Json::as_array)
        .unwrap();
    let v = &rep.violations[0];
    let loc = results[0]
        .get("locations")
        .and_then(Json::as_array)
        .expect("locations")[0]
        .get("physicalLocation")
        .expect("physicalLocation");
    let uri = loc
        .get("artifactLocation")
        .and_then(|a| a.get("uri"))
        .and_then(Json::as_str)
        .expect("artifactLocation.uri");
    assert_eq!(uri, v.file, "uri is the root-relative path");
    assert!(!uri.starts_with('/'), "SARIF uris must stay relative");
    let region = loc.get("region").expect("region");
    assert_eq!(
        region.get("startLine").and_then(Json::as_u64),
        Some(u64::from(v.line))
    );
    assert_eq!(
        region.get("startColumn").and_then(Json::as_u64),
        Some(u64::from(v.col))
    );
}
