//! One round of the end-to-end measurement. A round runs in a child
//! process of its own, so its peak memory is its workload's alone:
//!
//! 1. `setup_s`: `Deployment::build` of the workload's plan;
//! 2. `wall_ms`: `ScenarioSpec::from_json → run → to_json`, tracing off,
//!    then `peak_rss_mb` from the process's high-water mark;
//! 3. the calibration workload (see [`crate::measure`]), whose time
//!    scales the two steps before it;
//! 4. `traced_wall_ms`: the same with spans and the timeline on, then
//!    the calibration again, scaling it;
//! 5. in the first round only, the simulated values, from one layered
//!    replay of the run (which is also checked against `run`).
//!
//! Every output is checked: report bytes identical across iterations,
//! the payload total, traced and untraced simulated values equal, span
//! cycles conserved, and the copy ledger within the workload's range.

use vread_bench::json::{n, obj, s, Json};
use vread_bench::{Deployment, ScenarioReport, ScenarioSpec};

use crate::checks::{check_report, digest, numbers, same_sim, SimKey, Tally};
use crate::layered;
use crate::measure::{calibrate, measure, peak_rss_mb};
use crate::workloads::{generate, traced, Expect};

/// Timed samples of each scenario loop and calibration.
const SAMPLES: usize = 5;

/// Timed samples of the set-up step (cheap, and noisy at its scale).
const SETUP_SAMPLES: usize = 100;

/// Checks every report of one loop: the report bytes must repeat the
/// loop's first report exactly, and the simulated values must equal the
/// reference (the first untraced run).
struct LoopCheck<'a> {
    expect: &'a Expect,
    traced: bool,
    first_json: Option<String>,
    reference: &'a mut Option<SimKey>,
    tally: &'a mut Tally,
}

impl LoopCheck<'_> {
    fn check(&mut self, out: Result<(ScenarioReport, String), String>) {
        let result = out.and_then(|(report, text)| {
            check_report(&report, self.expect, self.traced)?;
            match &self.first_json {
                None => self.first_json = Some(text),
                Some(first) if *first != text => {
                    return Err("report bytes differ between iterations".to_owned())
                }
                Some(_) => {}
            }
            let key = SimKey::of_report(&report);
            match self.reference.as_ref() {
                None => {
                    *self.reference = Some(key);
                    Ok(())
                }
                Some(want) => same_sim(&key, want, "traced vs untraced run"),
            }
        });
        self.tally.record(result);
    }
}

fn run_once(json: &str) -> Result<(ScenarioReport, String), String> {
    let report = ScenarioSpec::from_json(json)
        .and_then(|spec| spec.run())
        .map_err(|e| e.to_string())?;
    let text = report.to_json();
    Ok((report, text))
}

/// Runs one round of `workload` at `seed` and returns its result
/// object; with `sim`, the result also carries the simulated values.
///
/// # Errors
///
/// An unknown workload or a scenario that does not parse; every later
/// failure is counted in the result instead.
pub fn run(workload: &str, seed: u64, sim: bool) -> Result<Json, String> {
    let g = generate(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let spec = ScenarioSpec::from_json(&g.json).map_err(|e| e.to_string())?;
    let traced_json = traced(&g.json)?;
    let mut tally = Tally::default();

    let plan = layered::plan_of(&spec);
    let setup = measure(
        "setup",
        SETUP_SAMPLES,
        || plan.clone(),
        Deployment::build,
        |d| tally.record(d.map(drop).map_err(|e| e.to_string())),
    );

    let mut reference = None;
    let mut untraced = LoopCheck {
        expect: &g.expect,
        traced: false,
        first_json: None,
        reference: &mut reference,
        tally: &mut tally,
    };
    let wall = measure(
        "wall",
        SAMPLES,
        || g.json.clone(),
        |j| run_once(&j),
        |out| untraced.check(out),
    );
    let untraced_json = untraced.first_json.take().unwrap_or_default();
    // Read before any calibration, whose memory is not the workload's.
    let rss = peak_rss_mb();
    // Each loop is scaled by a calibration taken right after it, so the
    // pair sees the same state of the machine.
    let (cal_wall, scale_wall) = calibrate(SAMPLES);

    let mut traced_loop = LoopCheck {
        expect: &g.expect,
        traced: true,
        first_json: None,
        reference: &mut reference,
        tally: &mut tally,
    };
    let traced_wall = measure(
        "traced_wall",
        SAMPLES,
        || traced_json.clone(),
        |j| run_once(&j),
        |out| traced_loop.check(out),
    );
    let traced_text = traced_loop.first_json.take().unwrap_or_default();
    let (cal_traced, scale_traced) = calibrate(SAMPLES);
    tally.record(
        rss.map(drop)
            .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned()),
    );

    let mut fields = vec![
        (
            "host",
            numbers(&[
                ("wall_ms".to_owned(), wall.median_ms * scale_wall),
                (
                    "traced_wall_ms".to_owned(),
                    traced_wall.median_ms * scale_traced,
                ),
                ("setup_s".to_owned(), setup.median_ms * scale_wall / 1e3),
                ("peak_rss_mb".to_owned(), rss.unwrap_or(0.0)),
            ]),
        ),
        (
            "calibration_ms",
            n((cal_wall.median_ms + cal_traced.median_ms) / 2.0),
        ),
        (
            "samples",
            numbers(&[
                ("wall_ms".to_owned(), wall.samples as f64),
                ("traced_wall_ms".to_owned(), traced_wall.samples as f64),
                ("setup_s".to_owned(), setup.samples as f64),
                ("peak_rss_mb".to_owned(), 1.0),
            ]),
        ),
        (
            "spent_s",
            // the first round's layered replay costs about one more run
            n(setup.spent_s
                + wall.spent_s
                + cal_wall.spent_s
                + cal_traced.spent_s
                + traced_wall.spent_s
                + if sim { wall.median_ms / 1e3 } else { 0.0 }),
        ),
        (
            "digest",
            s(format!(
                "{}/{}",
                digest(&untraced_json),
                digest(&traced_text)
            )),
        ),
    ];
    if sim {
        let sim = simulated(&spec, &g.expect, reference.as_ref(), &mut tally);
        fields.push(("sim", numbers(&sim)));
    }
    fields.extend(tally.to_fields());
    Ok(obj(fields))
}

/// The simulated end-to-end values, from one layered replay of the run
/// (checked bit for bit against `ScenarioSpec::run`'s values).
fn simulated(
    spec: &ScenarioSpec,
    expect: &Expect,
    reference: Option<&SimKey>,
    tally: &mut Tally,
) -> Vec<(String, f64)> {
    let finished = match layered::run_all(spec) {
        Ok(f) => f,
        Err(e) => {
            tally.record(Err(format!("layered replay: {e}")));
            return Vec::new();
        }
    };
    let outcome = match layered::outcome(&finished.d, &finished.armed) {
        Ok(o) => o,
        Err(e) => {
            tally.record(Err(format!("layered replay: {e}")));
            return Vec::new();
        }
    };
    tally.record(match reference {
        Some(want) => same_sim(&SimKey::of_outcome(&outcome), want, "layered replay vs run"),
        None => Err("no reference run to compare the layered replay with".to_owned()),
    });
    tally.record(if outcome.bytes == expect.bytes {
        Ok(())
    } else {
        Err(format!("layered replay moved {} bytes", outcome.bytes))
    });
    let delays = finished.d.w.metrics.samples("reader_delay_ms");
    let (p50, p99) = delays.map_or((0.0, 0.0), |s| (s.p50(), s.p99()));
    let mb = outcome.bytes as f64 / 1e6;
    let mut cpu_ms = 0.0;
    for (_, ms) in &outcome.cpu_by_category_ms {
        cpu_ms += ms;
    }
    vec![
        ("sim_throughput_mbps".to_owned(), outcome.rate),
        ("sim_read_p50_ms".to_owned(), p50),
        ("sim_read_p99_ms".to_owned(), p99),
        ("sim_cpu_ms_per_mb".to_owned(), cpu_ms / mb),
        ("reads".to_owned(), delays.map_or(0, |s| s.count()) as f64),
    ]
}
