//! Runs rounds and traced runs in child processes and folds their
//! results into per-workload metrics.
//!
//! Host times vary with whatever else the machine is doing: in bursts
//! of a second or so, and in drifts over minutes that the calibration
//! (see [`crate::measure`]) scales away. A metric is therefore the
//! median of round medians, each round a fresh child process of a few
//! samples, and the all-workload run interleaves the workloads within
//! every round so a slow stretch spreads over all of them instead of
//! landing on one.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use vread_bench::json::{n, obj, s, Json};

use crate::measure::CALIBRATION_REF_MS;
use crate::metrics::{self, Metric};
use crate::stats;

/// Rounds per workload in the all-workload run.
pub const ALL_ROUNDS: usize = 10;
/// Fewest rounds a budgeted run makes, however slow.
pub const MIN_ROUNDS: usize = 3;
/// Most rounds a budgeted run makes, however fast.
pub const MAX_ROUNDS: usize = 40;

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Name, unit and direction.
    pub metric: Metric,
    /// Median over rounds (or the simulated value).
    pub value: f64,
    /// Samples behind the value.
    pub samples: f64,
    /// Round-to-round interquartile range as a share of the median.
    pub spread: f64,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Child processes run.
    pub rounds: usize,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Median host time of the calibration workload, ms (the scaled
    /// host times read as if it had taken the 25 ms reference).
    pub calibration_ms: Option<f64>,
    /// End-to-end metrics, in catalog order.
    pub metrics: Vec<Value>,
    /// Per-layer metrics, in catalog order.
    pub per_layer: Vec<Value>,
}

impl WorkloadResult {
    /// `true` when every output passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb_tally(&mut self, j: &Json) {
        self.attempted += j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        self.failed += j.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for e in j.get("errors").and_then(Json::as_array).unwrap_or(&[]) {
            if let (Some(e), true) = (e.as_str(), self.errors.len() < 8) {
                self.errors.push(e.to_owned());
            }
        }
    }
}

/// Runs this executable with `args` and parses the last line it prints.
///
/// # Errors
///
/// When the child cannot start, exits non-zero or prints no JSON.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("starting {args:?}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(3).collect();
        return Err(format!(
            "{args:?} failed ({}): {}",
            out.status,
            tail.join(" | ")
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{args:?} printed nothing"))?;
    Json::parse(line).map_err(|e| format!("{args:?} printed no JSON: {e}"))
}

/// Arguments of one end-to-end round child.
fn round_args(workload: &str, seed: u64, sim: bool) -> Vec<String> {
    vec![
        "--child=round".to_owned(),
        format!("--workload={workload}"),
        format!("--seed={seed}"),
        format!("--sim={}", u8::from(sim)),
    ]
}

/// Arguments of one traced-run child.
fn layers_args(workload: &str, seed: u64) -> Vec<String> {
    vec![
        "--child=layers".to_owned(),
        format!("--workload={workload}"),
        format!("--seed={seed}"),
    ]
}

/// Folds round results into `r`'s end-to-end metrics.
fn fold_rounds(r: &mut WorkloadResult, rounds: &[Json]) {
    let mut digests: Vec<&str> = Vec::new();
    for j in rounds {
        r.absorb_tally(j);
        if let Some(d) = j.get("digest").and_then(Json::as_str) {
            digests.push(d);
        }
    }
    r.attempted += 1;
    if digests.len() != rounds.len() || digests.windows(2).any(|w| w[0] != w[1]) {
        r.failed += 1;
        r.errors
            .push("report bytes differ between rounds".to_owned());
    }
    let cal: Vec<f64> = rounds
        .iter()
        .filter_map(|j| j.get("calibration_ms")?.as_f64())
        .collect();
    r.calibration_ms = stats::median(&cal);
    let sim = rounds.iter().find_map(|j| j.get("sim"));
    let reads = sim
        .and_then(|s| s.get("reads"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    for m in metrics::end_to_end() {
        let host: Vec<f64> = rounds
            .iter()
            .filter_map(|j| j.get("host")?.get(&m.name)?.as_f64())
            .collect();
        let value = if host.is_empty() {
            sim.and_then(|s| s.get(&m.name))
                .and_then(Json::as_f64)
                .map(|v| {
                    let samples = if m.name.starts_with("sim_read_") {
                        reads
                    } else {
                        1.0
                    };
                    (v, samples, 0.0)
                })
        } else {
            let samples = rounds
                .iter()
                .filter_map(|j| j.get("samples")?.get(&m.name)?.as_f64())
                .fold(0, |acc, v| acc + v as u64);
            stats::median(&host).map(|v| (v, samples as f64, stats::spread(&host)))
        };
        match value {
            Some((value, samples, spread)) => r.metrics.push(Value {
                metric: m,
                value,
                samples,
                spread,
            }),
            None => r.fail(format!("no value for {}", m.name)),
        }
    }
}

/// Folds traced-run results into `r`'s per-layer metrics.
fn fold_layers(r: &mut WorkloadResult, runs: &[Json]) {
    for j in runs {
        r.absorb_tally(j);
    }
    for m in metrics::per_layer() {
        let v: Vec<f64> = runs
            .iter()
            .filter_map(|j| j.get("metrics")?.get(&m.name)?.as_f64())
            .collect();
        match stats::median(&v) {
            Some(value) => r.per_layer.push(Value {
                metric: m,
                value,
                samples: v.len() as f64,
                spread: stats::spread(&v),
            }),
            None => r.fail(format!("no value for {}", m.name)),
        }
    }
}

/// Runs children made by `args_for(i)` until their measured time
/// reaches `seconds` (at least `min`, at most `max` children).
fn budgeted(
    r: &mut WorkloadResult,
    seconds: f64,
    min: usize,
    max: usize,
    args_for: impl Fn(usize) -> Vec<String>,
) -> Vec<Json> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < max && (out.len() < min || spent < seconds) {
        match child(&args_for(out.len())) {
            Ok(j) => {
                spent += j.get("spent_s").and_then(Json::as_f64).unwrap_or(0.0);
                out.push(j);
            }
            Err(e) => {
                r.fail(e);
                break;
            }
        }
    }
    r.rounds += out.len();
    out
}

/// One workload's end-to-end metrics over about `seconds` of measuring.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64) -> WorkloadResult {
    let mut r = WorkloadResult {
        name: workload.to_owned(),
        ..Default::default()
    };
    let rounds = budgeted(&mut r, seconds, MIN_ROUNDS, MAX_ROUNDS, |i| {
        round_args(workload, seed, i == 0)
    });
    fold_rounds(&mut r, &rounds);
    r
}

/// One workload's per-layer metrics over about `seconds` of measuring.
pub fn per_layer(workload: &str, seed: u64, seconds: f64) -> WorkloadResult {
    let mut r = WorkloadResult {
        name: workload.to_owned(),
        ..Default::default()
    };
    let runs = budgeted(&mut r, seconds, 1, MAX_ROUNDS, |_| {
        layers_args(workload, seed)
    });
    fold_layers(&mut r, &runs);
    r
}

/// Every workload, [`ALL_ROUNDS`] interleaved rounds each, then one
/// traced run per workload.
pub fn all(workloads: &[&str], seed: u64) -> Vec<WorkloadResult> {
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|w| WorkloadResult {
            name: (*w).to_owned(),
            ..Default::default()
        })
        .collect();
    let mut collected: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    for i in 0..ALL_ROUNDS {
        for (k, w) in workloads.iter().enumerate() {
            eprintln!("round {}/{ALL_ROUNDS}: {w}", i + 1);
            match child(&round_args(w, seed, i == 0)) {
                Ok(j) => collected[k].push(j),
                Err(e) => results[k].fail(e),
            }
        }
    }
    for (k, w) in workloads.iter().enumerate() {
        results[k].rounds = collected[k].len();
        fold_rounds(&mut results[k], &collected[k]);
        eprintln!("traced run: {w}");
        match child(&layers_args(w, seed)) {
            Ok(j) => fold_layers(&mut results[k], &[j]),
            Err(e) => results[k].fail(e),
        }
    }
    results
}

/// The human-readable table of one workload.
pub fn render(r: &WorkloadResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}: {} child runs, {} outputs checked, {} failed",
        r.name, r.rounds, r.attempted, r.failed
    );
    for e in &r.errors {
        let _ = writeln!(out, "   check failed: {e}");
    }
    if let Some(c) = r.calibration_ms {
        let _ = writeln!(
            out,
            "   host times scaled to the reference machine (calibration {c:.2} ms here, {CALIBRATION_REF_MS} ms there)"
        );
    }
    if !r.metrics.is_empty() {
        let _ = writeln!(
            out,
            "   {:<34} {:>16} {:<8} {:>8} {:>7}",
            "end-to-end metric", "value", "unit", "samples", "spread"
        );
        for v in &r.metrics {
            let _ = writeln!(
                out,
                "   {:<34} {:>16.6} {:<8} {:>8} {:>6.2}%",
                v.metric.name,
                v.value,
                v.metric.unit,
                v.samples,
                v.spread * 100.0
            );
        }
    }
    if !r.per_layer.is_empty() {
        let _ = writeln!(
            out,
            "   {:<34} {:>16} {:<8} {:>8}",
            "per-layer metric (traced run)", "value", "unit", "runs"
        );
        for v in &r.per_layer {
            let _ = writeln!(
                out,
                "   {:<34} {:>16.6} {:<8} {:>8}",
                v.metric.name, v.value, v.metric.unit, v.samples
            );
        }
    }
    out
}

fn values_json(values: &[Value], with_spread: bool) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|v| {
                let mut f = vec![
                    ("name", s(&v.metric.name)),
                    ("unit", s(v.metric.unit)),
                    ("value", n(v.value)),
                    ("samples", n(v.samples)),
                ];
                if with_spread {
                    f.push(("spread", n(v.spread)));
                }
                obj(f)
            })
            .collect(),
    )
}

/// The result file of an all-workload run (what `compare` reads).
pub fn results_json(seed: u64, results: &[WorkloadResult]) -> Json {
    obj(vec![
        ("seed", n(seed as f64)),
        (
            "workloads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("name", s(&r.name)),
                            ("rounds", n(r.rounds as f64)),
                            ("correct", Json::Bool(r.correct())),
                            ("attempted", n(r.attempted as f64)),
                            ("failed", n(r.failed as f64)),
                            ("errors", Json::Arr(r.errors.iter().map(s).collect())),
                            ("calibration_ms", r.calibration_ms.map_or(Json::Null, n)),
                            ("metrics", values_json(&r.metrics, true)),
                            ("per_layer", values_json(&r.per_layer, false)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The one-line result a single-workload run prints last: `correct`,
/// `attempted`, `failed` and every metric with its unit.
pub fn contract_line(r: &WorkloadResult, per_layer: bool) -> String {
    let values = if per_layer { &r.per_layer } else { &r.metrics };
    let metrics = Json::Obj(
        values
            .iter()
            .map(|v| {
                (
                    v.metric.name.clone(),
                    obj(vec![("value", n(v.value)), ("unit", s(v.metric.unit))]),
                )
            })
            .collect(),
    );
    obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", n(r.attempted.max(1) as f64)),
        ("failed", n(r.failed as f64)),
        ("metrics", metrics),
    ])
    .compact()
}
