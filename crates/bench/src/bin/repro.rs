//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro [--json DIR] [--jobs N] <experiment>... | all | list
//! repro scenario <file.json> [--spans] [--jobs N]
//! repro trace [vanilla|vread-rdma|vread-tcp|cas-dedup|all] [--trace-out FILE] [--jobs N]
//! repro timeline [<file.json>... | ramp] [--sample-ms N] [--trace-out FILE] [--jobs N]
//! repro fault-matrix [--jobs N]
//! ```
//!
//! Experiments run in parallel across `--jobs` worker threads (default:
//! available cores), fanned out through the engine's deterministic
//! `run_indexed` pool. Every world builds from a fixed seed and runs on
//! one worker, so results — and the JSON written with `--json` — are
//! byte-identical at any job count. The subcommands default to one
//! worker; a `--jobs` given before the subcommand carries over.
//!
//! Every usage error exits 2 before any world runs.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use vread_bench::experiments;
use vread_sim::par::{run_indexed, run_indexed_streamed};

fn main() {
    let registry = experiments::registry();
    let mut args = std::env::args().skip(1);

    let mut json_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut wanted: Vec<String> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_dir = Some(flag_value(&mut args, "--json", "a directory")),
            "--jobs" => jobs = Some(parse_jobs(&mut args)),
            "list" => {
                for (id, _) in &registry {
                    println!("{id}");
                }
                println!("scenario <file.json> [--spans] [--jobs N]");
                println!(
                    "trace [vanilla|vread-rdma|vread-tcp|cas-dedup|all] [--trace-out FILE] [--jobs N]"
                );
                println!(
                    "timeline [<file.json>... | ramp] [--sample-ms N] [--trace-out FILE] [--jobs N]"
                );
                println!("fault-matrix [--jobs N]");
                return;
            }
            "scenario" => return scenario_args(args, jobs.unwrap_or(1)),
            "trace" => return trace_args(args, jobs.unwrap_or(1)),
            "timeline" => return timeline_args(args, jobs.unwrap_or(1)),
            "fault-matrix" => return fault_matrix_args(args, jobs.unwrap_or(1)),
            other if other.starts_with("--") => usage_error(&format!("unknown option {other:?}")),
            _ => wanted.push(a),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: repro [--json DIR] [--jobs N] <experiment>... | all | list");
        usage_error(&format!(
            "experiments: {}",
            registry
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = registry.iter().map(|(id, _)| (*id).to_owned()).collect();
    }

    // Resolve every name up front so an unknown experiment fails fast.
    let runners: Vec<(&str, experiments::Runner)> = wanted
        .iter()
        .map(|want| match registry.iter().find(|(id, _)| id == want) {
            Some(&(id, runner)) => (id, runner),
            None => usage_error(&format!("unknown experiment: {want}")),
        })
        .collect();

    let jobs = jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(runners.len())
        .max(1);
    let failed = run_parallel(&runners, jobs, json_dir.as_deref());
    if failed > 0 {
        eprintln!("{failed} experiment(s) failed");
        std::process::exit(1);
    }
}

/// Prints `msg` and exits 2, the code of every usage error.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The argument that follows `flag`, or a usage error naming `what` the
/// flag needs.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs {what} argument")))
}

/// The worker-thread count that follows `--jobs`: a positive integer.
fn parse_jobs(args: &mut impl Iterator<Item = String>) -> usize {
    let v = flag_value(args, "--jobs", "a thread-count");
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("--jobs needs a positive integer, got {v:?}")),
    }
}

/// Runs `runners` across `jobs` worker threads (the engine's
/// deterministic `run_indexed` pool), printing each experiment's tables
/// (and writing JSON) strictly in input order as soon as its prefix is
/// complete. Returns the number of failures.
fn run_parallel(
    runners: &[(&str, experiments::Runner)],
    jobs: usize,
    json_dir: Option<&str>,
) -> usize {
    let mut failed = 0usize;
    run_indexed_streamed(
        runners.len(),
        jobs,
        |i| {
            // vread-lint: allow(wall-clock, "host elapsed-time progress reporting on stderr; never enters sim state or JSON output")
            let started = std::time::Instant::now();
            let tables = catch_unwind(AssertUnwindSafe(runners[i].1)).ok();
            (tables, started.elapsed().as_secs_f64())
        },
        |i, (tables, secs)| {
            let id = runners[i].0;
            match tables {
                Some(tables) => {
                    for t in &tables {
                        println!("{}", t.render());
                        if let Some(dir) = json_dir {
                            std::fs::create_dir_all(dir).expect("create json dir");
                            let path = format!("{dir}/{}.json", t.id);
                            let mut f = std::fs::File::create(&path).expect("create json file");
                            f.write_all(t.to_json().as_bytes()).expect("write json");
                        }
                    }
                    eprintln!("[{id} done in {secs:.1}s]");
                }
                None => {
                    failed += 1;
                    eprintln!("[{id} FAILED after {secs:.1}s]");
                }
            }
        },
    );
    failed
}

// ---------------------------------------------------------------------------
// scenario: run declarative scenario files and print their reports.
// ---------------------------------------------------------------------------

/// Parses `scenario`'s arguments, then runs it.
fn scenario_args(mut args: impl Iterator<Item = String>, mut jobs: usize) {
    let mut files: Vec<String> = Vec::new();
    let mut spans = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--spans" => spans = true,
            "--jobs" => jobs = parse_jobs(&mut args),
            other if other.starts_with("--") => {
                usage_error(&format!("scenario: unknown argument {other:?}"))
            }
            _ => files.push(a),
        }
    }
    if files.is_empty() {
        usage_error("scenario needs a JSON file argument");
    }
    scenario_cmd(&files, spans, jobs);
}

/// Runs every scenario file across `jobs` worker threads and prints the
/// reports strictly in input order — each world is independent, so the
/// job count cannot change any output. A single file prints just its
/// report; multiple files are separated by `== <file> ==` headers.
fn scenario_cmd(files: &[String], spans: bool, jobs: usize) {
    let run_one = |file: &str| -> Result<String, String> {
        let json = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let report = vread_bench::ScenarioSpec::from_json(&json)
            .and_then(|mut s| {
                s.spans |= spans;
                s.run()
            })
            .map_err(|e| format!("scenario failed: {e}"))?;
        Ok(report.to_json())
    };

    let n = files.len();
    let results = run_indexed(n, jobs, |i| {
        catch_unwind(AssertUnwindSafe(|| run_one(&files[i])))
            .unwrap_or_else(|_| Err("scenario panicked".to_owned()))
    });

    let mut failed = 0usize;
    for (file, result) in files.iter().zip(results) {
        if n > 1 {
            println!("== {file} ==");
        }
        match result {
            Ok(report) => println!("{report}"),
            Err(e) => {
                failed += 1;
                eprintln!("{e}");
            }
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// trace: the observability gate. Runs the standard co-located reader
// scenario per read path with the span flight recorder on, prints the
// per-layer cycle/copy table and the copies-per-read ledger, asserts
// the paper's copy invariant (vanilla ≥5, vRead =2 copies/read), and
// optionally exports Chrome trace-event JSON for Perfetto.
// ---------------------------------------------------------------------------

/// One cell of the trace gate: a read path's standard co-located
/// reader, or the content-addressed dedup demonstration.
#[derive(Clone, Copy)]
enum TraceCell {
    Path(vread_bench::ReadPath),
    CasDedup,
}

impl TraceCell {
    /// Every cell: each read path, then the dedup demonstration.
    fn all() -> impl Iterator<Item = TraceCell> {
        vread_bench::ReadPath::ALL
            .map(TraceCell::Path)
            .into_iter()
            .chain([TraceCell::CasDedup])
    }

    fn as_str(self) -> &'static str {
        match self {
            TraceCell::Path(p) => p.as_str(),
            TraceCell::CasDedup => "cas-dedup",
        }
    }
}

/// Parses `trace`'s arguments, then runs it. No path means every cell.
fn trace_args(mut args: impl Iterator<Item = String>, mut jobs: usize) {
    let mut which: Vec<TraceCell> = Vec::new();
    let mut trace_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => trace_out = Some(flag_value(&mut args, "--trace-out", "a file")),
            "--jobs" => jobs = parse_jobs(&mut args),
            "all" => which.extend(TraceCell::all()),
            "cas-dedup" => which.push(TraceCell::CasDedup),
            other => match vread_bench::ReadPath::parse(other) {
                Some(p) => which.push(TraceCell::Path(p)),
                None => usage_error(&format!(
                    "trace: unknown path {other:?} \
                     (expected vanilla|vread-rdma|vread-tcp|cas-dedup|all)"
                )),
            },
        }
    }
    if which.is_empty() {
        which.extend(TraceCell::all());
    }
    trace_cmd(&which, trace_out.as_deref(), jobs);
}

/// The standard trace scenario: two hosts, client + dn1 on h1, data
/// co-located with the client, 16 MB read in 1 MB requests.
fn trace_spec(path: vread_bench::ReadPath) -> vread_bench::ScenarioSpec {
    use vread_bench::spec::WorkloadSpec;
    vread_bench::ScenarioSpec::builder()
        .path(path)
        .spans(true)
        .host("h1", 4, 2.0)
        .host("h2", 4, 2.0)
        .client("client", "h1")
        .datanode("dn1", "h1")
        .datanode("dn2", "h2")
        .file("/d", 16, &["dn1"])
        .workload(WorkloadSpec::Reader {
            path: "/d".to_owned(),
            request_kb: 1024,
        })
        .build()
        .expect("trace scenario is statically valid")
}

/// Runs one trace cell: returns (pass, report text, chrome JSON).
fn trace_one(cell: TraceCell) -> (bool, String, String) {
    use std::fmt::Write as _;
    let path = match cell {
        TraceCell::Path(p) => p,
        TraceCell::CasDedup => return trace_cas_one(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace {} — co-located 16 MB reader, 1 MB requests ==",
        path.as_str()
    );
    let report = match trace_spec(path).run() {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "FAILED: {e}");
            return (false, out, String::new());
        }
    };
    let sp = report.spans.as_ref().expect("trace scenarios enable spans");
    out.push_str(&sp.render());
    let agg = sp.reads();
    // The paper's invariant (§2): every vanilla read moves the payload
    // at least 5 times; vRead moves it exactly twice (shared ring).
    let (ok_copies, expect) = match path {
        vread_bench::ReadPath::Vanilla => (agg.min_copies_per_read >= 5.0 - 1e-9, ">=5"),
        vread_bench::ReadPath::VreadRdma | vread_bench::ReadPath::VreadTcp => (
            (agg.min_copies_per_read - 2.0).abs() < 1e-9
                && (agg.max_copies_per_read - 2.0).abs() < 1e-9,
            "=2",
        ),
    };
    let ok = agg.reads > 0 && ok_copies && sp.conserves_cycles();
    let _ = writeln!(
        out,
        "copy ledger [expected {} copies/read]: {}",
        expect,
        if ok { "PASS" } else { "FAIL" },
    );
    (ok, out, sp.report.chrome_trace_json())
}

/// The cas-dedup trace cell: two co-located tenants over a 2-way
/// replicated file through the content-addressed host store
/// (DESIGN.md §15). Tenant 1 reads cold through the ring (2
/// copies/read); every block's replica list is then rotated and tenant
/// 2 reads through the *sibling* replicas, which the store recognizes
/// as resident content and serves by page mapping — the ledger must
/// show those reads at 1 copy/read, strictly below vread-local's 2.
fn trace_cas_one() -> (bool, String, String) {
    use std::fmt::Write as _;
    use vread_apps::driver::run_jobs;
    use vread_apps::java_reader::{JavaReader, ReaderMode};
    use vread_bench::spec::{FileSpec, HostCacheSpec, VmRole};
    use vread_bench::SpanSummary;
    use vread_hdfs::HdfsMeta;
    use vread_host::cluster::HostCacheMode;
    use vread_sim::prelude::{ActorId, SimDuration, Start};

    const FILE: u64 = 16 << 20;
    fn pass(d: &mut vread_bench::Deployment, client: ActorId, vm: vread_host::cluster::VmId) {
        let job = d.w.register_job("reader");
        let rdr = JavaReader::new(
            vm,
            ReaderMode::Dfs {
                client,
                path: "/f".to_owned(),
            },
            1 << 20,
            FILE,
        )
        .with_job(job);
        let a = d.w.add_actor("reader", rdr);
        d.w.send_now(a, Start);
        let ok = run_jobs(&mut d.w, SimDuration::from_secs(3_000));
        assert!(ok, "cas trace pass did not finish within the cap");
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== trace cas-dedup — two tenants, 2-way co-located replicas, 16 MB reads =="
    );
    let plan = vread_bench::DeployPlan::new(42)
        .path(vread_bench::ReadPath::VreadRdma)
        .spans(true)
        .host("h1", 8, 2.0)
        .vm("t1", "h1", VmRole::Client, None)
        .vm("t2", "h1", VmRole::Client, None)
        .vm("dn1", "h1", VmRole::Datanode, None)
        .vm("dn2", "h1", VmRole::Datanode, None)
        .file(FileSpec {
            path: "/f".to_owned(),
            mb: FILE >> 20,
            placement: vec!["dn1".to_owned(), "dn2".to_owned()],
            replicate: true,
        })
        .host_cache(HostCacheSpec {
            mode: HostCacheMode::Cas,
            capacity_mb: None,
            chunk_kb: None,
        });
    let mut d = vread_bench::Deployment::build(plan).expect("cas trace deploys");
    let vm1 = d.client_vm(Some("t1")).expect("t1 exists");
    let vm2 = d.client_vm(Some("t2")).expect("t2 exists");
    let c1 = d.make_client(vm1);
    let c2 = d.add_client_on(vm2);
    pass(&mut d, c1, vm1);
    // Send tenant 2's reads to each block's sibling replica — the
    // other image holding the same bytes.
    let meta = d.w.ext.get_mut::<HdfsMeta>().expect("meta");
    for f in meta.files.values_mut() {
        for b in &mut f.blocks {
            b.replicas.rotate_left(1);
        }
    }
    pass(&mut d, c2, vm2);
    let sp = SpanSummary::collect(&mut d.w);
    out.push_str(&sp.render());
    let agg = sp.reads();
    let ok = agg.reads > 0
        && (agg.min_copies_per_read - 1.0).abs() < 1e-9
        && (agg.max_copies_per_read - 2.0).abs() < 1e-9
        && agg.mapped_bytes > 0
        && sp.conserves_cycles();
    let _ = writeln!(
        out,
        "copy ledger [expected dedup serves =1 copy/read, cold =2]: {}",
        if ok { "PASS" } else { "FAIL" },
    );
    (ok, out, sp.report.chrome_trace_json())
}

/// `--trace-out` file name for one path: the base name as-is for a
/// single-path run, `<stem>-<path>.<ext>` when tracing several.
fn trace_out_name(base: &str, path: &str, multi: bool) -> String {
    if !multi {
        return base.to_owned();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-{path}.{ext}"),
        None => format!("{base}-{path}"),
    }
}

fn trace_cmd(which: &[TraceCell], trace_out: Option<&str>, jobs: usize) {
    let n = which.len();
    let cells = run_indexed(n, jobs, |i| trace_one(which[i]));
    let mut failed = 0usize;
    for (i, cell) in cells.into_iter().enumerate() {
        let (ok, text, chrome) = cell;
        print!("{text}");
        if !ok {
            failed += 1;
        }
        if let Some(base) = trace_out {
            if !chrome.is_empty() {
                let file = trace_out_name(base, which[i].as_str(), n > 1);
                std::fs::write(&file, &chrome).unwrap_or_else(|e| {
                    eprintln!("cannot write {file}: {e}");
                    std::process::exit(1);
                });
                println!("[chrome trace written to {file}]");
            }
        }
        println!();
    }
    if failed > 0 {
        eprintln!("{failed} trace cell(s) failed");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// timeline: the telemetry gate. Runs scenarios with the deterministic
// sampler on, prints the per-window tail-latency table plus the
// saturation verdict, and optionally exports the sampled series as
// Perfetto counter tracks spliced into the Chrome trace. The built-in
// `ramp` cells stagger readers onto one shared host so vanilla's p99
// visibly saturates while vRead's stays flat.
// ---------------------------------------------------------------------------

/// One cell of the timeline gate: a scenario file, or a built-in
/// staggered-reader ramp on one read path.
#[derive(Clone)]
enum TimelineCell {
    File(String),
    Ramp(vread_bench::ReadPath),
}

impl TimelineCell {
    fn name(&self) -> String {
        match self {
            TimelineCell::File(f) => f.clone(),
            TimelineCell::Ramp(p) => format!("ramp-{}", p.as_str()),
        }
    }
}

/// Parses `timeline`'s arguments, then runs it. No cell means both
/// ramps.
fn timeline_args(mut args: impl Iterator<Item = String>, mut jobs: usize) {
    const RAMPS: [TimelineCell; 2] = [
        TimelineCell::Ramp(vread_bench::ReadPath::Vanilla),
        TimelineCell::Ramp(vread_bench::ReadPath::VreadRdma),
    ];
    let mut cells: Vec<TimelineCell> = Vec::new();
    let mut sample_ms: Option<u64> = None;
    let mut trace_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sample-ms" => {
                let ms = match args.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_error("--sample-ms needs a positive integer"),
                };
                // The same bound a scenario's `timeline.sample_ms` gets.
                if let Err(e) = vread_bench::spec::check_ms("--sample-ms", Some(ms)) {
                    usage_error(&e.to_string());
                }
                sample_ms = Some(ms);
            }
            "--trace-out" => trace_out = Some(flag_value(&mut args, "--trace-out", "a file")),
            "--jobs" => jobs = parse_jobs(&mut args),
            "ramp" => cells.extend(RAMPS),
            other if other.starts_with("--") => {
                usage_error(&format!("timeline: unknown argument {other:?}"))
            }
            _ => cells.push(TimelineCell::File(a)),
        }
    }
    if cells.is_empty() {
        cells.extend(RAMPS);
    }
    timeline_cmd(&cells, sample_ms, trace_out.as_deref(), jobs);
}

/// The ramp scenario: six reader clients start 150 ms apart on one
/// shared 4-core host, each reading the same co-located 32 MB file in
/// 1 MB requests. Rising concurrency drives the vanilla path's
/// per-window p99 past the saturation multiplier; vRead's shared-ring
/// path absorbs the same offered load.
fn ramp_spec(path: vread_bench::ReadPath) -> vread_bench::ScenarioSpec {
    use vread_bench::spec::WorkloadSpec;
    let mut b = vread_bench::ScenarioSpec::builder()
        .path(path)
        .timeline_sample_ms(50)
        .host("h1", 2, 2.0)
        .datanode("dn1", "h1")
        .file("/d", 32, &["dn1"]);
    for i in 0..8 {
        let client = format!("c{i}");
        b = b.client(&client, "h1").workload_on(
            &client,
            i * 60,
            WorkloadSpec::Reader {
                path: "/d".to_owned(),
                request_kb: 1024,
            },
        );
    }
    b.build().expect("ramp scenario is statically valid")
}

/// Runs one timeline cell: returns (report text, chrome JSON — empty
/// unless tracing was requested).
fn timeline_one(
    cell: &TimelineCell,
    sample_ms: Option<u64>,
    want_trace: bool,
) -> Result<(String, String), String> {
    use std::fmt::Write as _;
    use vread_bench::TimelineSpec;
    let mut spec = match cell {
        TimelineCell::File(file) => {
            let json =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            vread_bench::ScenarioSpec::from_json(&json).map_err(|e| format!("{file}: {e}"))?
        }
        TimelineCell::Ramp(path) => ramp_spec(*path),
    };
    match sample_ms {
        Some(ms) => spec.timeline = Some(TimelineSpec { sample_ms: ms }),
        None => {
            if spec.timeline.is_none() {
                spec.timeline = Some(TimelineSpec { sample_ms: 10 });
            }
        }
    }
    spec.spans |= want_trace;
    let report = spec.run().map_err(|e| format!("scenario failed: {e}"))?;
    let tl = report
        .timeline
        .as_ref()
        .expect("timeline enabled by the subcommand");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bytes={} elapsed_s={:.3} rate={:.2}",
        report.bytes, report.elapsed_s, report.rate
    );
    out.push_str(&tl.render());
    let chrome = match (&report.spans, want_trace) {
        (Some(sp), true) => tl.splice_into_chrome_trace(&sp.report.chrome_trace_json()),
        _ => String::new(),
    };
    Ok((out, chrome))
}

fn timeline_cmd(
    cells: &[TimelineCell],
    sample_ms: Option<u64>,
    trace_out: Option<&str>,
    jobs: usize,
) {
    let n = cells.len();
    let results = run_indexed(n, jobs, |i| {
        catch_unwind(AssertUnwindSafe(|| {
            timeline_one(&cells[i], sample_ms, trace_out.is_some())
        }))
        .unwrap_or_else(|_| Err("timeline cell panicked".to_owned()))
    });
    let mut failed = 0usize;
    for (i, result) in results.into_iter().enumerate() {
        let name = cells[i].name();
        if n > 1 {
            println!("== timeline {name} ==");
        }
        match result {
            Ok((text, chrome)) => {
                print!("{text}");
                if let Some(base) = trace_out {
                    if !chrome.is_empty() {
                        let safe = name.replace(['/', '\\'], "_");
                        let file = trace_out_name(base, &safe, n > 1);
                        std::fs::write(&file, &chrome).unwrap_or_else(|e| {
                            eprintln!("cannot write {file}: {e}");
                            std::process::exit(1);
                        });
                        println!("[chrome trace written to {file}]");
                    }
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("{e}");
            }
        }
        if n > 1 {
            println!();
        }
    }
    if failed > 0 {
        eprintln!("{failed} timeline cell(s) failed");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// fault-matrix: the reliability smoke gate. Every fault kind crossed
// with every read path on a short replicated-read scenario; one
// deterministic summary line per cell, diffable across --jobs counts.
// ---------------------------------------------------------------------------

/// The 7 planned-fault timelines of the matrix, over the fixed two-host
/// cell topology (client + dn1 on h1, dn2 on h2).
fn fault_timelines() -> Vec<(&'static str, Vec<(u64, vread_bench::FaultKind)>)> {
    use vread_bench::FaultKind;
    let h1 = || "h1".to_owned();
    vec![
        (
            "daemon-crash",
            vec![(100, FaultKind::DaemonCrash { host: h1() })],
        ),
        (
            "daemon-restart",
            vec![
                (100, FaultKind::DaemonCrash { host: h1() }),
                (600, FaultKind::DaemonRestart { host: h1() }),
            ],
        ),
        (
            "link-flap",
            vec![(
                100,
                FaultKind::LinkFlap {
                    host: "h2".to_owned(),
                    factor: 20.0,
                    duration_ms: 300,
                },
            )],
        ),
        (
            "disk-slow",
            vec![(
                100,
                FaultKind::DiskSlow {
                    host: h1(),
                    factor: 8.0,
                    duration_ms: 300,
                },
            )],
        ),
        (
            "cache-drop",
            vec![(100, FaultKind::CacheDrop { host: h1() })],
        ),
        (
            "vhost-stall",
            vec![(
                100,
                FaultKind::VhostStall {
                    vm: "dn1".to_owned(),
                    duration_ms: 200,
                },
            )],
        ),
        (
            "vm-crash",
            vec![(
                100,
                FaultKind::VmCrash {
                    vm: "dn1".to_owned(),
                },
            )],
        ),
    ]
}

/// Parses `fault-matrix`'s arguments, then runs it.
fn fault_matrix_args(mut args: impl Iterator<Item = String>, mut jobs: usize) {
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => jobs = parse_jobs(&mut args),
            other => usage_error(&format!("fault-matrix: unknown argument {other:?}")),
        }
    }
    fault_matrix(jobs);
}

fn fault_cell(
    path: vread_bench::ReadPath,
    name: &str,
    faults: &[(u64, vread_bench::FaultKind)],
) -> String {
    use vread_bench::spec::WorkloadSpec;
    let mut b = vread_bench::ScenarioSpec::builder()
        .path(path)
        .spans(true)
        .host("h1", 4, 2.0)
        .host("h2", 4, 2.0)
        .client("client", "h1")
        .datanode("dn1", "h1")
        .datanode("dn2", "h2")
        .replicated_file("/d", 128, &["dn1", "dn2"])
        .workload(WorkloadSpec::Reader {
            path: "/d".to_owned(),
            request_kb: 1024,
        });
    for (at_ms, kind) in faults {
        b = b.fault(*at_ms, kind.clone());
    }
    let report = b.build().and_then(|s| s.run());
    let kind = name;
    match report {
        Ok(r) => {
            let f = r.faults.as_ref().expect("fault report");
            // The span ledger makes fallbacks visible in copy terms: a
            // vread cell whose reads fell back to vanilla shows its max
            // copies/read jump from 2 to ≥5.
            let agg = r.spans.as_ref().expect("spans enabled").reads();
            format!(
                "{:<10} {:<14} bytes={} elapsed_s={:.3} events={} fallbacks={} \
                 failovers={} retries={} restarts={} copies={:.2} max_copies={:.2}",
                path.as_str(),
                kind,
                r.bytes,
                r.elapsed_s,
                f.events,
                f.fallback_reads,
                f.failovers,
                f.path_retries,
                f.daemon_restarts,
                agg.copies_per_read(),
                agg.max_copies_per_read,
            )
        }
        Err(e) => format!("{:<10} {:<14} FAILED: {e}", path.as_str(), kind),
    }
}

fn fault_matrix(jobs: usize) {
    let timelines = fault_timelines();
    let cells: Vec<_> = vread_bench::ReadPath::ALL
        .iter()
        .flat_map(|&p| timelines.iter().map(move |(name, t)| (p, *name, t)))
        .collect();
    let lines = run_indexed(cells.len(), jobs, |i| {
        let (path, name, faults) = &cells[i];
        fault_cell(*path, name, faults)
    });
    let mut failed = 0usize;
    for line in lines {
        if line.contains("FAILED") {
            failed += 1;
        }
        println!("{line}");
    }
    if failed > 0 {
        eprintln!("{failed} fault-matrix cell(s) failed");
        std::process::exit(1);
    }
}
