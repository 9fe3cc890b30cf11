//! `compare BASE.json NEW.json`: judges every end-to-end metric of every
//! workload in a new result file against a baseline, with the direction
//! and regression bound `BENCHMARK.json` fixes for the metric.
//!
//! A metric is *unresolved* when either run's spread is wider than its
//! bound (the runs cannot tell a change of that size from noise),
//! *regressed* when it worsened by more than the bound, *improved* when
//! it got better by more than the bound, and *within* otherwise. A run's
//! spread is its round-to-round spread divided by √rounds: the median of
//! R rounds moves from run to run by about that much, while a single
//! round moves by the whole round spread.

use std::fmt::Write as _;

use vread_bench::json::Json;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound of the baseline.
    Within,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The printed form.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Largest tolerated worsening, as a share of the baseline.
    pub bound: f64,
}

/// Reads the `end_to_end` metrics of a `BENCHMARK.json` text.
///
/// # Errors
///
/// When the text is not JSON or a metric lacks a field.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let j = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = j
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or(format!("BENCHMARK.json: metric without {k:?}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name must be a string")?
                    .to_owned(),
                better: field("better")?
                    .as_str()
                    .ok_or("better must be a string")?
                    .to_owned(),
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// Judges `new` against `base` for a metric where `better` is
/// `"lower"` or `"higher"`, given the wider of the two runs' spreads.
pub fn judge(base: f64, new: f64, spread: f64, better: &str, bound: f64) -> Verdict {
    if base.to_bits() == new.to_bits() {
        return Verdict::Within;
    }
    if spread > bound || base == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = if better == "higher" {
        (base - new) / base.abs()
    } else {
        (new - base) / base.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// One judged metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the baseline lacks it).
    pub base: Option<f64>,
    /// New value (`None` when the new run lacks it).
    pub new: Option<f64>,
    /// The wider of the two runs' spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict; a metric missing on either side counts as regressed.
    pub verdict: Verdict,
}

/// `(value, run spread)` of `metric` for `workload` in a result file.
fn lookup(results: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let w = results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let rounds = w
        .get("rounds")
        .and_then(Json::as_f64)
        .unwrap_or(1.0)
        .max(1.0);
    let m = w
        .get("metrics")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    let round_spread = m.get("spread")?.as_f64()?;
    Some((m.get("value")?.as_f64()?, round_spread / rounds.sqrt()))
}

fn workload_names(results: &Json) -> Vec<String> {
    results
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect()
}

/// Compares two result files under the bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// When any input fails to parse.
pub fn compare(benchmark_json: &str, base: &str, new: &str) -> Result<Vec<Row>, String> {
    let bounds = bounds(benchmark_json)?;
    let base = Json::parse(base).map_err(|e| format!("baseline: {e}"))?;
    let new = Json::parse(new).map_err(|e| format!("new run: {e}"))?;
    let mut names = workload_names(&base);
    for w in workload_names(&new) {
        if !names.contains(&w) {
            names.push(w);
        }
    }
    let mut rows = Vec::new();
    for w in &names {
        for b in &bounds {
            let a = lookup(&base, w, &b.name);
            let c = lookup(&new, w, &b.name);
            let (verdict, spread) = match (a, c) {
                (Some((av, asp)), Some((cv, csp))) => {
                    let spread = asp.max(csp);
                    (judge(av, cv, spread, &b.better, b.bound), spread)
                }
                _ => (Verdict::Regressed, 0.0),
            };
            rows.push(Row {
                workload: w.clone(),
                metric: b.name.clone(),
                base: a.map(|v| v.0),
                new: c.map(|v| v.0),
                spread,
                bound: b.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Renders the rows as a table, with a verdict count at the end.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.6}"));
    for r in rows {
        let change = match (r.base, r.new) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a.abs() * 100.0),
            _ => "-".to_owned(),
        };
        let same = match (r.base, r.new) {
            (Some(a), Some(b)) if a.to_bits() == b.to_bits() => " (bit-identical)",
            _ => "",
        };
        let _ = writeln!(
            out,
            "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6.1}% {:>6.1}%  {}{}",
            r.workload,
            r.metric,
            fmt(r.base),
            fmt(r.new),
            change,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label(),
            same
        );
    }
    for v in [
        Verdict::Improved,
        Verdict::Within,
        Verdict::Regressed,
        Verdict::Unresolved,
    ] {
        let count = rows.iter().filter(|r| r.verdict == v).count();
        let _ = write!(out, "{}: {count}  ", v.label());
    }
    out.push('\n');
    out
}
