//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! repro [--json DIR] [--jobs N] <experiment>... | all | list
//! repro scenario <file.json>... [--spans] [--trace-out FILE] [--jobs N]
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

use std::ffi::OsStr;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

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
                println!("scenario <file.json>... [--spans] [--trace-out FILE] [--jobs N]");
                println!("fault-matrix [--jobs N]");
                return;
            }
            "scenario" => return scenario_args(args, jobs.unwrap_or(1)),
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
    let mut trace_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--spans" => spans = true,
            "--trace-out" => trace_out = Some(flag_value(&mut args, "--trace-out", "a file")),
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
    let trace_files: Option<Vec<String>> = trace_out.map(|base| {
        if files.len() == 1 {
            return vec![base];
        }
        let stems: Vec<&str> = files
            .iter()
            .map(|f| {
                Path::new(f)
                    .file_stem()
                    .and_then(OsStr::to_str)
                    .unwrap_or(f)
            })
            .collect();
        for (i, stem) in stems.iter().enumerate() {
            if stems[..i].contains(stem) {
                usage_error(&format!(
                    "scenario: --trace-out needs distinct file stems, {stem:?} repeats"
                ));
            }
        }
        stems.iter().map(|s| trace_out_name(&base, s)).collect()
    });
    scenario_cmd(&files, spans, trace_files.as_deref(), jobs);
}

/// `--trace-out` file name for the scenario file stemmed `stem` when
/// several run: `<base stem>-<stem>.<ext>`. The extension comes off the
/// file-name part of `base` only, so a dot in a directory name stays.
fn trace_out_name(base: &str, stem: &str) -> String {
    let path = Path::new(base);
    match (path.file_stem(), path.extension()) {
        (Some(s), Some(ext)) => path
            .with_file_name(format!(
                "{}-{stem}.{}",
                s.to_string_lossy(),
                ext.to_string_lossy()
            ))
            .display()
            .to_string(),
        _ => format!("{base}-{stem}"),
    }
}

/// Runs every scenario file across `jobs` worker threads and prints the
/// reports strictly in input order — each world is independent, so the
/// job count cannot change any output. A single file prints just its
/// report; multiple files are separated by `== <file> ==` headers.
///
/// `trace_files` (one name per file) turns spans on for every file and
/// writes each run's Chrome trace there, with its timeline's counter
/// tracks spliced in when the scenario samples one.
fn scenario_cmd(files: &[String], spans: bool, trace_files: Option<&[String]>, jobs: usize) {
    let spans = spans || trace_files.is_some();
    let run_one = |file: &str| -> Result<(String, Option<String>), String> {
        let json = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let report = vread_bench::ScenarioSpec::from_json(&json)
            .and_then(|mut s| {
                s.spans |= spans;
                s.run()
            })
            .map_err(|e| format!("scenario failed: {e}"))?;
        let chrome = trace_files.and(report.spans.as_ref()).map(|sp| {
            let trace = sp.report.chrome_trace_json();
            match &report.timeline {
                Some(tl) => tl.splice_into_chrome_trace(&trace),
                None => trace,
            }
        });
        Ok((report.to_json(), chrome))
    };

    let n = files.len();
    let results = run_indexed(n, jobs, |i| {
        catch_unwind(AssertUnwindSafe(|| run_one(&files[i])))
            .unwrap_or_else(|_| Err("scenario panicked".to_owned()))
    });

    let mut failed = 0usize;
    for (i, (file, result)) in files.iter().zip(results).enumerate() {
        if n > 1 {
            println!("== {file} ==");
        }
        match result {
            Ok((report, chrome)) => {
                println!("{report}");
                if let (Some(names), Some(chrome)) = (trace_files, chrome) {
                    let out = &names[i];
                    match std::fs::write(out, chrome) {
                        Ok(()) => eprintln!("[chrome trace written to {out}]"),
                        Err(e) => {
                            failed += 1;
                            eprintln!("cannot write {out}: {e}");
                        }
                    }
                }
            }
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
