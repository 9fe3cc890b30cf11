//! Shape of the telemetry timeline report block.
//!
//! A scenario with a `timeline` block reports per-window latency quantiles and
//! sampled series that re-parse as JSON and splice into the Perfetto
//! trace as counter tracks; scenarios without a `timeline` block must
//! serialize exactly as they did before the timeline existed.

use vread_bench::spec::{TimelineSpec, WorkloadBinding, WorkloadSpec};
use vread_bench::{ReadPath, ScenarioSpec};

/// A multi-workload scenario with overlapping staggered readers: enough
/// concurrency that per-window latency sets see interleaved completions
/// from several jobs.
fn staggered(timeline: bool) -> ScenarioSpec {
    staggered_on("h1", timeline)
}

/// [`staggered`] with its first host named `h1`.
fn staggered_on(h1: &str, timeline: bool) -> ScenarioSpec {
    let mut b = ScenarioSpec {
        seed: 7,
        timeline: timeline.then_some(TimelineSpec { sample_ms: 10 }),
        ..ScenarioSpec::builder()
    }
    .path(ReadPath::VreadRdma)
    .host(h1, 4, 2.0)
    .host("h2", 4, 2.0)
    .datanode("dn1", h1)
    .datanode("dn2", "h2")
    .file("/a", 16, &["dn1"])
    .file("/b", 8, &["dn2"]);
    for (i, path) in ["/a", "/b", "/a"].iter().enumerate() {
        let client = format!("c{i}");
        let host = if i % 2 == 0 { h1 } else { "h2" };
        b = b.client(&client, host);
        b.workloads.push(WorkloadBinding {
            client: Some(client),
            start_ms: i as u64 * 25,
            kind: WorkloadSpec::Reader {
                path: (*path).to_owned(),
                request_kb: 1024,
            },
        });
    }
    b
}

#[test]
fn timeline_report_and_spliced_trace_reparse() {
    use vread_bench::json::Json;
    let report = staggered(true)
        .spans(true)
        .build()
        .expect("spec builds")
        .run()
        .expect("run");
    let parsed = Json::parse(&report.to_json()).expect("report JSON re-parses");
    let tl = parsed.get("timeline").expect("timeline block");
    assert_eq!(tl.get("sample_ms").and_then(Json::as_u64), Some(10));
    assert!(!tl.get("windows").unwrap().as_array().unwrap().is_empty());
    assert!(!tl.get("series").unwrap().as_array().unwrap().is_empty());

    let summary = report.timeline.as_ref().expect("summary collected");
    assert!(summary.reads > 0, "readers were observed");
    assert!(summary.ticks > 0, "sampler ticked");

    let sp = report.spans.as_ref().expect("spans enabled");
    let trace = summary.splice_into_chrome_trace(&sp.report.chrome_trace_json());
    let parsed = Json::parse(&trace).expect("spliced Perfetto trace is valid JSON");
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .count();
    assert!(counters > 0, "counter tracks were spliced in");
}

#[test]
fn series_are_change_only_and_end_at_the_last_tick() {
    let report = staggered(true)
        .build()
        .expect("spec builds")
        .run()
        .expect("run");
    let summary = report.timeline.as_ref().expect("summary collected");
    let last_tick_ms = (summary.ticks * summary.sample_ms) as f64;
    assert!(summary.ticks > 1);
    assert!(!summary.series.is_empty());
    for sr in &summary.series {
        let pts = &sr.points;
        assert_eq!(
            pts.last().map(|p| p.0),
            Some(last_tick_ms),
            "{} ends at the last tick",
            sr.name
        );
        // Every stored point is a change of value; only the closing
        // point at the last tick may repeat the value before it.
        let changes = &pts[..pts.len() - 1];
        for w in changes.windows(2) {
            assert!(
                w[0].1.to_bits() != w[1].1.to_bits(),
                "{}: consecutive equal values {w:?}",
                sr.name
            );
        }
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0), "{}", sr.name);
    }
}

#[test]
fn spliced_trace_escapes_spec_host_names() {
    use vread_bench::json::Json;
    let host = "h\"1\\x";
    let report = staggered_on(host, true)
        .spans(true)
        .build()
        .expect("spec builds")
        .run()
        .expect("run");
    let summary = report.timeline.as_ref().expect("summary collected");
    let sp = report.spans.as_ref().expect("spans enabled");
    let trace = summary.splice_into_chrome_trace(&sp.report.chrome_trace_json());
    let parsed = Json::parse(&trace).expect("spliced Perfetto trace is valid JSON");
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let want = format!("sched.{host}.runq");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(want.as_str())),
        "the counter track keeps the host name exactly"
    );
}

#[test]
fn timeline_off_report_has_no_block() {
    let report = staggered(false)
        .build()
        .expect("spec builds")
        .run()
        .expect("run");
    assert!(report.timeline.is_none());
    assert!(
        !report.to_json().contains("\"timeline\""),
        "timeline-off reports serialize exactly as before the feature"
    );
}

/// The timeline keeps exact read latencies, so it joins the span ledger
/// read for read: on every shipped timeline scenario, it counts one read
/// per root `read` span, and its slowest read is the longest root span
/// to the nanosecond.
#[test]
fn timeline_reads_join_the_root_read_spans() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for name in ["timeline-example", "ramp-vanilla", "ramp-vread"] {
        let json = std::fs::read_to_string(dir.join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = ScenarioSpec::from_json(&json)
            .expect("scenario parses")
            .spans(true)
            .run()
            .expect("run");
        let summary = report.timeline.as_ref().expect("timeline block");
        let spans = &report.spans.as_ref().expect("spans enabled").report.spans;
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "read" && s.parent.is_none())
            .map(|s| s.end_time().since(s.begin).as_nanos())
            .collect();
        assert_eq!(summary.reads, roots.len() as u64, "{name}: reads");
        let longest = roots.iter().copied().max().expect("reads ran");
        assert_eq!(
            (summary.max_ms * 1e6).round() as u64,
            longest,
            "{name}: max_ms is the longest root read span"
        );
    }
}
