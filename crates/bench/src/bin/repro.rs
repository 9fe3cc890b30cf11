//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro [--json DIR] [--jobs N] <experiment>... | all | list
//! repro scenario <file.json> [--spans] [--jobs N]
//! repro trace [vanilla|vread-rdma|vread-tcp|cas-dedup|all] [--trace-out FILE] [--jobs N]
//! repro timeline [<file.json>... | ramp] [--sample-ms N] [--trace-out FILE] [--jobs N]
//! repro fault-matrix [--jobs N]
//! repro bench-engine [--out FILE]
//! repro lint [--format text|json|sarif] [--update-baseline]
//! ```
//!
//! Experiments run in parallel across `--jobs` worker threads (default:
//! available cores), fanned out through the engine's deterministic
//! `run_indexed` pool. Every world builds from a fixed seed and runs on
//! one worker, so results — and the JSON written with `--json` — are
//! byte-identical at any job count.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use vread_bench::experiments;
use vread_sim::par::{run_indexed, run_indexed_streamed};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::registry();

    let mut json_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_dir = it.next();
                if json_dir.is_none() {
                    eprintln!("--json needs a directory argument");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                let Some(v) = it.next() else {
                    eprintln!("--jobs needs a thread-count argument");
                    std::process::exit(2);
                };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
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
                println!("bench-engine [--out FILE]");
                println!("lint [--format text|json|sarif] [--update-baseline]");
                return;
            }
            "lint" => {
                let mut format = "text".to_owned();
                let mut update_baseline = false;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--format" => match it.next().as_deref() {
                            Some("human") => format = "text".to_owned(),
                            Some(f @ ("text" | "json" | "sarif")) => format = f.to_owned(),
                            other => {
                                eprintln!(
                                    "--format needs `text`, `json` or `sarif`, got {other:?}"
                                );
                                std::process::exit(2);
                            }
                        },
                        "--update-baseline" => update_baseline = true,
                        other => {
                            eprintln!("lint: unknown argument {other:?}");
                            std::process::exit(2);
                        }
                    }
                }
                run_lint(&format, update_baseline);
                return;
            }
            "scenario" => {
                let mut files: Vec<String> = Vec::new();
                let mut spans = false;
                let mut s_jobs = jobs;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--spans" => spans = true,
                        "--jobs" => {
                            let parsed = it.next().and_then(|v| v.parse::<usize>().ok());
                            match parsed {
                                Some(n) if n >= 1 => s_jobs = Some(n),
                                _ => {
                                    eprintln!("--jobs needs a positive integer");
                                    std::process::exit(2);
                                }
                            }
                        }
                        other if other.starts_with("--") => {
                            eprintln!("scenario: unknown argument {other:?}");
                            std::process::exit(2);
                        }
                        file => files.push(file.to_owned()),
                    }
                }
                if files.is_empty() {
                    eprintln!("scenario needs a JSON file argument");
                    std::process::exit(2);
                }
                scenario_cmd(&files, spans, s_jobs.unwrap_or(1));
                return;
            }
            "trace" => {
                let mut which: Vec<TraceCell> = Vec::new();
                let mut trace_out: Option<String> = None;
                let mut t_jobs = jobs;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--trace-out" => match it.next() {
                            Some(f) => trace_out = Some(f),
                            None => {
                                eprintln!("--trace-out needs a file argument");
                                std::process::exit(2);
                            }
                        },
                        "--jobs" => {
                            let parsed = it.next().and_then(|v| v.parse::<usize>().ok());
                            match parsed {
                                Some(n) if n >= 1 => t_jobs = Some(n),
                                _ => {
                                    eprintln!("--jobs needs a positive integer");
                                    std::process::exit(2);
                                }
                            }
                        }
                        "all" => {
                            which.extend(vread_bench::ReadPath::ALL.map(TraceCell::Path));
                            which.push(TraceCell::CasDedup);
                        }
                        "cas-dedup" => which.push(TraceCell::CasDedup),
                        other => match vread_bench::ReadPath::parse(other) {
                            Some(p) => which.push(TraceCell::Path(p)),
                            None => {
                                eprintln!(
                                    "trace: unknown path {other:?} \
                                     (expected vanilla|vread-rdma|vread-tcp|cas-dedup|all)"
                                );
                                std::process::exit(2);
                            }
                        },
                    }
                }
                if which.is_empty() {
                    which.extend(vread_bench::ReadPath::ALL.map(TraceCell::Path));
                    which.push(TraceCell::CasDedup);
                }
                trace_cmd(&which, trace_out.as_deref(), t_jobs.unwrap_or(1));
                return;
            }
            "timeline" => {
                let mut cells: Vec<TimelineCell> = Vec::new();
                let mut sample_ms: Option<u64> = None;
                let mut trace_out: Option<String> = None;
                let mut tl_jobs = jobs;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--sample-ms" => {
                            let parsed = it.next().and_then(|v| v.parse::<u64>().ok());
                            match parsed {
                                Some(n) if n >= 1 => sample_ms = Some(n),
                                _ => {
                                    eprintln!("--sample-ms needs a positive integer");
                                    std::process::exit(2);
                                }
                            }
                        }
                        "--trace-out" => match it.next() {
                            Some(f) => trace_out = Some(f),
                            None => {
                                eprintln!("--trace-out needs a file argument");
                                std::process::exit(2);
                            }
                        },
                        "--jobs" => {
                            let parsed = it.next().and_then(|v| v.parse::<usize>().ok());
                            match parsed {
                                Some(n) if n >= 1 => tl_jobs = Some(n),
                                _ => {
                                    eprintln!("--jobs needs a positive integer");
                                    std::process::exit(2);
                                }
                            }
                        }
                        "ramp" => {
                            cells.push(TimelineCell::Ramp(vread_bench::ReadPath::Vanilla));
                            cells.push(TimelineCell::Ramp(vread_bench::ReadPath::VreadRdma));
                        }
                        other if other.starts_with("--") => {
                            eprintln!("timeline: unknown argument {other:?}");
                            std::process::exit(2);
                        }
                        file => cells.push(TimelineCell::File(file.to_owned())),
                    }
                }
                if cells.is_empty() {
                    cells.push(TimelineCell::Ramp(vread_bench::ReadPath::Vanilla));
                    cells.push(TimelineCell::Ramp(vread_bench::ReadPath::VreadRdma));
                }
                timeline_cmd(
                    &cells,
                    sample_ms,
                    trace_out.as_deref(),
                    tl_jobs.unwrap_or(1),
                );
                return;
            }
            "fault-matrix" => {
                let mut fm_jobs = jobs;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--jobs" => {
                            let parsed = it.next().and_then(|v| v.parse::<usize>().ok());
                            match parsed {
                                Some(n) if n >= 1 => fm_jobs = Some(n),
                                _ => {
                                    eprintln!("--jobs needs a positive integer");
                                    std::process::exit(2);
                                }
                            }
                        }
                        other => {
                            eprintln!("fault-matrix: unknown argument {other:?}");
                            std::process::exit(2);
                        }
                    }
                }
                fault_matrix(fm_jobs.unwrap_or(1));
                return;
            }
            "bench-engine" => {
                let mut out = "BENCH_engine.json".to_owned();
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--out" => match it.next() {
                            Some(f) => out = f,
                            None => {
                                eprintln!("--out needs a file argument");
                                std::process::exit(2);
                            }
                        },
                        other => {
                            eprintln!("bench-engine: unknown argument {other:?}");
                            std::process::exit(2);
                        }
                    }
                }
                bench_engine(&out);
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other:?}");
                std::process::exit(2);
            }
            _ => wanted.push(a),
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: repro [--json DIR] [--jobs N] <experiment>... | all | list");
        eprintln!(
            "experiments: {}",
            registry
                .iter()
                .map(|(i, _)| *i)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = registry.iter().map(|(id, _)| (*id).to_owned()).collect();
    }

    // Resolve every name up front so an unknown experiment fails fast.
    let runners: Vec<(&str, experiments::Runner)> = wanted
        .iter()
        .map(|want| {
            let Some(&(id, runner)) = registry.iter().find(|(id, _)| id == want) else {
                eprintln!("unknown experiment: {want}");
                std::process::exit(2);
            };
            (id, runner)
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
// lint: the determinism gate. Runs vread-lint over the workspace's own
// sources; any violation (or stale allow annotation) fails the run, and
// the suppression ratchet fails it when a per-rule violation/allow count
// grows past the committed lint-baseline.json. Exit codes are the
// linter's own: 1 violations, 2 usage/IO, 3 bad/stale allows, 4 ratchet
// regression.
// ---------------------------------------------------------------------------

fn run_lint(format: &str, update_baseline: bool) {
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let Some(root) = vread_lint::find_workspace_root(&cwd) else {
        eprintln!("lint: no workspace root found above {}", cwd.display());
        std::process::exit(2);
    };
    let report = match vread_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    };
    match format {
        "json" => print!("{}", report.render_json()),
        "sarif" => print!("{}", vread_lint::sarif::render_sarif(&report)),
        _ => print!("{}", report.render_human()),
    }

    let baseline_path = root.join("lint-baseline.json");
    let counts = report.rule_counts();
    let mut ratchet_regressed = false;
    if update_baseline {
        let b = vread_lint::baseline::Baseline::from_counts(&counts);
        if let Err(e) = std::fs::write(&baseline_path, b.render()) {
            eprintln!("lint: cannot write {}: {e}", baseline_path.display());
            std::process::exit(2);
        }
        eprintln!("lint: baseline written to {}", baseline_path.display());
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match vread_lint::baseline::Baseline::parse(&text) {
                Ok(b) => {
                    for r in b.regressions(&counts) {
                        ratchet_regressed = true;
                        eprintln!(
                            "lint: ratchet: {} {} grew {} -> {} (fix the new site or \
                             consciously run `repro lint --update-baseline`)",
                            r.rule, r.counter, r.baseline, r.current
                        );
                    }
                }
                Err(e) => {
                    eprintln!("lint: {}: {e}", baseline_path.display());
                    std::process::exit(2);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", baseline_path.display());
                std::process::exit(2);
            }
        }
    }

    match report.gate() {
        vread_lint::Gate::Violations => std::process::exit(1),
        vread_lint::Gate::BadAllow => std::process::exit(3),
        vread_lint::Gate::Clean if ratchet_regressed => std::process::exit(4),
        vread_lint::Gate::Clean => {}
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
    fn as_str(self) -> &'static str {
        match self {
            TraceCell::Path(p) => p.as_str(),
            TraceCell::CasDedup => "cas-dedup",
        }
    }
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

// ---------------------------------------------------------------------------
// bench-engine: the perf gate. Runs the hot-path engine workloads
// in-process and writes events/sec + ns/event to a JSON file.
// ---------------------------------------------------------------------------

use vread_sim::prelude::*;

struct PingPong {
    left: u32,
}
struct Ball;
impl Actor for PingPong {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if (msg.is::<Start>() || msg.is::<Ball>()) && self.left > 0 {
            self.left -= 1;
            let me = ctx.me();
            ctx.send(me, Ball);
        }
    }
}

struct Sink;
struct Fin;
impl Actor for Sink {
    fn handle(&mut self, _msg: BoxMsg, _ctx: &mut Ctx<'_>) {}
}

/// A CPU hog that runs `left` bursts back to back, then stops.
struct Spin {
    thread: ThreadId,
    burst: u64,
    left: u32,
}
impl Actor for Spin {
    fn handle(&mut self, _msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            let me = ctx.me();
            ctx.cpu(self.thread, self.burst, CpuCategory::Lookbusy, me, Fin);
        }
    }
}

struct BenchResult {
    name: &'static str,
    events: u64,
    ns_per_event: f64,
    /// Extra deterministic figures appended to the JSON entry (simulated
    /// quantities, not wall time — safe to compare across CI runs).
    extras: Vec<(&'static str, f64)>,
}

impl BenchResult {
    fn events_per_sec(&self) -> f64 {
        1e9 / self.ns_per_event
    }

    fn to_json_entry(&self) -> String {
        let mut s = format!(
            "    {{\n      \"name\": \"{}\",\n      \"events\": {},\n      \
             \"ns_per_event\": {:.2},\n      \"events_per_sec\": {:.0}",
            self.name,
            self.events,
            self.ns_per_event,
            self.events_per_sec()
        );
        for (k, v) in &self.extras {
            s.push_str(&format!(",\n      \"{k}\": {v:.2}"));
        }
        s.push_str("\n    }");
        s
    }
}

/// Best-of-`reps` wall time of `build`+run, as (events, ns/event).
fn measure(reps: usize, build: impl Fn() -> World) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..reps {
        let mut w = build();
        // vread-lint: allow(wall-clock, "bench-engine measures real host wall time of the run; the sim itself stays virtual-time only")
        let t0 = std::time::Instant::now();
        w.run();
        let dt = t0.elapsed().as_nanos() as f64;
        events = w.events_processed();
        if dt < best {
            best = dt;
        }
    }
    (events, best / events as f64)
}

/// One cold reader pass over a 2-way co-located replicated file through
/// the content-addressed host store at hash rate `hash`; returns
/// (engine events, simulated seconds). Mirrors the `ablate-cas`
/// experiment's topology at bench scale.
fn cas_cold_run(hash: f64) -> (u64, f64) {
    use vread_apps::driver::run_jobs;
    use vread_apps::java_reader::{JavaReader, ReaderMode};
    use vread_bench::spec::{FileSpec, HostCacheSpec, VmRole};
    use vread_host::cluster::HostCacheMode;
    use vread_host::costs::Costs;

    const FILE: u64 = 64 << 20;
    let costs = Costs {
        cas_hash_cyc_per_byte: hash,
        ..Default::default()
    };
    let plan = vread_bench::DeployPlan::new(42)
        .path(vread_bench::ReadPath::VreadRdma)
        .costs(costs)
        .host("h1", 8, 2.0)
        .vm("client", "h1", VmRole::Client, None)
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
    let mut d = vread_bench::Deployment::build(plan).expect("cas bench deploys");
    let vm = d.first_client().expect("client VM");
    let client = d.make_client(vm);
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
    assert!(ok, "cas cold pass did not finish within the cap");
    let secs = d.w.metrics.mean("reader_done_at_s") - d.w.metrics.mean("reader_start_at_s");
    (d.w.events_processed(), secs)
}

fn bench_engine(out: &str) {
    let (events, ns) = measure(20, || {
        let mut w = World::new(1);
        let a = w.add_actor("a", PingPong { left: 1_000_000 });
        w.send_now(a, Start);
        w
    });
    let pingpong = BenchResult {
        name: "message_pingpong_1m",
        events,
        ns_per_event: ns,
        extras: Vec::new(),
    };

    let (events, ns) = measure(20, || {
        let mut w = World::new(1);
        let h = w.add_host("h", 4, 2.0);
        let ts: Vec<ThreadId> = (0..5).map(|i| w.add_thread(h, &format!("t{i}"))).collect();
        let sink = w.add_actor("sink", Sink);
        for _ in 0..2000 {
            let st: Vec<Stage> = ts
                .iter()
                .map(|&t| Stage::cpu(t, 10_000, CpuCategory::Other))
                .collect();
            w.start_chain(st, sink, Fin);
        }
        w
    });
    let chain = BenchResult {
        name: "chain_5stage_x2000",
        events,
        ns_per_event: ns,
        extras: Vec::new(),
    };

    // Core-timer scale: 20 hosts x 4 cores, six hogs per host so every
    // core is contended and re-arms its timer on every burst end and
    // slice expiry. The cost of finding the earliest of 80 timers shows
    // up here as ns/event.
    let (events, ns) = measure(5, || {
        let mut w = World::new(1);
        for h in 0..20u64 {
            let host = w.add_host(&format!("h{h}"), 4, 2.0);
            for k in 0..6u64 {
                let thread = w.add_thread(host, &format!("hog{h}.{k}"));
                let a = w.add_actor(
                    "hog",
                    Spin {
                        thread,
                        burst: 200_000 + 10_000 * k + 1_000 * h,
                        left: 200,
                    },
                );
                w.send_now(a, Start);
            }
        }
        w
    });
    let timers = BenchResult {
        name: "core_timers_80core",
        events,
        ns_per_event: ns,
        extras: Vec::new(),
    };

    // CAS dedup ablation cell: the wall cost of driving a cold read
    // through the content-addressed host store, plus the *simulated*
    // hash-admission overhead (slowdown of the cold pass at the default
    // hash rate vs free hashing) — a deterministic number BENCH files
    // can track across commits.
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    let mut secs_hashed = 0.0;
    for _ in 0..3 {
        // vread-lint: allow(wall-clock, "bench-engine measures real host wall time of the run; the sim itself stays virtual-time only")
        let t0 = std::time::Instant::now();
        let (e, s) = cas_cold_run(0.45);
        let dt = t0.elapsed().as_nanos() as f64;
        events = e;
        secs_hashed = s;
        if dt < best {
            best = dt;
        }
    }
    let (_, secs_free) = cas_cold_run(0.0);
    let cas = BenchResult {
        name: "cas_dedup_cold_pass",
        events,
        ns_per_event: best / events as f64,
        extras: vec![(
            "hash_overhead_pct",
            (secs_hashed - secs_free) / secs_free * 100.0,
        )],
    };

    let benches = [&pingpong, &chain, &timers, &cas];
    let mut json = String::from("{\n  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        json.push_str(&b.to_json_entry());
        json.push_str(if i + 1 < benches.len() { ",\n" } else { "\n" });
        println!(
            "{:<24} {:>10.2} ns/event  {:>12.0} events/sec",
            b.name,
            b.ns_per_event,
            b.events_per_sec()
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("[bench-engine written to {out}]");
}
