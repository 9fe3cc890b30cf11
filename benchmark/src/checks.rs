//! Output checks. Every simulator run the benchmark makes is checked,
//! and a failed check fails the run's `correct` flag and exit status.

use vread_bench::json::{n, s, Json};
use vread_bench::ScenarioReport;

use crate::layered::Outcome;
use crate::workloads::Expect;

/// Failed-check messages kept per process (the count is always exact).
const KEEP_ERRORS: usize = 8;

/// Counts checked outputs and failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed at least one check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one checked output: `Ok` passes, `Err` fails with its
    /// message.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// The tally as JSON fields.
    pub fn to_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("attempted", n(self.attempted as f64)),
            ("failed", n(self.failed as f64)),
            ("errors", Json::Arr(self.errors.iter().map(s).collect())),
        ]
    }
}

/// The simulated values two runs of one scenario must share bit for
/// bit: payload bytes, elapsed seconds, rate and CPU by bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimKey {
    bytes: u64,
    elapsed_s: u64,
    rate: u64,
    cpu: Vec<(String, u64)>,
}

impl SimKey {
    fn new(bytes: u64, elapsed_s: f64, rate: f64, cpu: &[(String, f64)]) -> SimKey {
        SimKey {
            bytes,
            elapsed_s: elapsed_s.to_bits(),
            rate: rate.to_bits(),
            cpu: cpu.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect(),
        }
    }

    /// The key of a `ScenarioSpec::run` report.
    pub fn of_report(r: &ScenarioReport) -> SimKey {
        SimKey::new(r.bytes, r.elapsed_s, r.rate, &r.cpu_by_category_ms)
    }

    /// The key of a layered drive's outcome.
    pub fn of_outcome(o: &Outcome) -> SimKey {
        SimKey::new(o.bytes, o.elapsed_s, o.rate, &o.cpu_by_category_ms)
    }
}

/// Checks one report against the workload's expectations: the payload
/// total, the content-addressed capacity gain, and for traced runs span
/// cycle conservation and the copy ledger.
pub fn check_report(r: &ScenarioReport, expect: &Expect, traced: bool) -> Result<(), String> {
    if r.bytes != expect.bytes {
        return Err(format!(
            "moved {} bytes, expected {}",
            r.bytes, expect.bytes
        ));
    }
    if expect.dedup {
        let x = r.host_cache.map_or(0.0, |hc| hc.effective_capacity_x);
        if x <= 1.0 {
            return Err(format!("effective_capacity_x {x} is not above 1"));
        }
    }
    if traced {
        let sp = r.spans.as_ref().ok_or("traced report has no spans")?;
        if !sp.conserves_cycles() {
            return Err(format!(
                "span cycles not conserved (gap {})",
                sp.conservation_gap()
            ));
        }
        check_copies(
            sp.reads().min_copies_per_read,
            sp.reads().max_copies_per_read,
            expect,
        )?;
        if r.timeline.is_none() {
            return Err("traced report has no timeline".to_owned());
        }
    }
    Ok(())
}

/// Checks the per-read copy range against the workload's ledger bounds.
pub fn check_copies(min: f64, max: f64, expect: &Expect) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    if min < expect.min_copies - EPS || max > expect.max_copies + EPS {
        return Err(format!(
            "copies per read span [{min}, {max}], expected within [{}, {}]",
            expect.min_copies, expect.max_copies
        ));
    }
    Ok(())
}

/// `Ok` when two runs share their simulated values bit for bit.
pub fn same_sim(a: &SimKey, b: &SimKey, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: simulated values differ ({a:?} vs {b:?})"))
    }
}

/// FNV-1a over `text`, as hex: lets rounds in different processes show
/// that their report bytes agree without shipping the reports.
pub fn digest(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A JSON object of named numbers, in the given order.
pub fn numbers(values: &[(String, f64)]) -> Json {
    Json::Obj(values.iter().map(|(k, v)| (k.clone(), n(*v))).collect())
}
