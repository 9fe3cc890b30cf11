//! A minimal, dependency-free subset of the `criterion` benchmark crate.
//!
//! The real criterion cannot be vendored in this offline workspace, so this
//! shim reimplements a small surface of it — `Criterion`,
//! `bench_function`, `Bencher::{iter, iter_batched}`, `BatchSize`,
//! `criterion_group!`, `criterion_main!` — with real wall-clock
//! measurement:
//!
//! * each bench takes `sample_size` samples after a short warm-up;
//! * `iter` auto-calibrates an inner loop so one sample spans ≥ ~1 ms;
//! * per-bench median / mean / min / max are printed, and a JSON record is
//!   written to `target/criterion-lite/<name>.json` so successive runs can
//!   be diffed by tooling.
//!
//! Positional command-line arguments act as substring filters (matching
//! `cargo bench -- <filter>`); flags (`--bench`, `--exact`, …) are
//! accepted and ignored.

#![forbid(unsafe_code)]

use std::time::Instant;

/// How `iter_batched` amortizes setup. The shim always re-runs setup per
/// sample; the variants exist for API compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// Setup re-run every iteration.
    PerIteration,
}

/// An opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One measured benchmark (all durations in nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark id as given to `bench_function`.
    pub name: String,
    /// Median ns/iteration.
    pub median_ns: f64,
    /// Mean ns/iteration.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
}

/// The benchmark harness.
pub struct Criterion {
    sample_size: usize,
    filters: Vec<String>,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Criterion {
            sample_size: 20,
            filters,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark (unless filtered out) and records the result.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if !self.filters.is_empty() && !self.filters.iter().any(|flt| name.contains(flt.as_str())) {
            return self;
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        let mut s = b.samples_ns;
        if s.is_empty() {
            return self;
        }
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let median = if s.len() % 2 == 1 {
            s[s.len() / 2]
        } else {
            (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
        };
        // vread-lint: allow(float-accum, "sorted samples slice; iteration order is fixed")
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        let rec = BenchRecord {
            name: name.to_owned(),
            median_ns: median,
            mean_ns: mean,
            min_ns: s[0],
            max_ns: s[s.len() - 1],
            samples: s.len(),
        };
        println!(
            "{:<44} time: [{} {} {}]",
            rec.name,
            fmt_ns(rec.min_ns),
            fmt_ns(rec.median_ns),
            fmt_ns(rec.max_ns)
        );
        write_record(&rec);
        self.records.push(rec);
        self
    }

    /// All records measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Prints the closing summary (called by `criterion_group!`).
    pub fn final_summary(&self) {
        if !self.records.is_empty() {
            println!(
                "criterion-lite: {} benchmark(s), JSON in target/criterion-lite/",
                self.records.len()
            );
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_record(r: &BenchRecord) {
    let dir = std::path::Path::new("target").join("criterion-lite");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // benches must not fail on a read-only tree
    }
    let json = format!(
        "{{\n  \"name\": \"{}\",\n  \"median_ns\": {},\n  \"mean_ns\": {},\n  \"min_ns\": {},\n  \"max_ns\": {},\n  \"samples\": {}\n}}\n",
        r.name, r.median_ns, r.mean_ns, r.min_ns, r.max_ns, r.samples
    );
    let _ = std::fs::write(dir.join(format!("{}.json", sanitize(&r.name))), json);
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `f` directly, auto-calibrating an inner loop so that one
    /// sample spans at least ~1 ms.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // warm-up + calibration
        // vread-lint: allow(wall-clock, "criterion shim: benchmarking measures real host time by definition")
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_nanos().max(1) as u64;
        let iters = (1_000_000 / once).clamp(1, 1_000_000);
        for _ in 0..3 {
            for _ in 0..iters {
                black_box(f());
            }
        }
        for _ in 0..self.sample_size {
            // vread-lint: allow(wall-clock, "criterion shim: benchmarking measures real host time by definition")
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Measures `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // warm-up
        for _ in 0..2 {
            let input = setup();
            black_box(routine(input));
        }
        for _ in 0..self.sample_size {
            let input = setup();
            // vread-lint: allow(wall-clock, "criterion shim: benchmarking measures real host time by definition")
            let t = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $cfg;
            $($target(&mut c);)+
            c.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_batched_measures_routine_only() {
        let mut c = Criterion {
            sample_size: 5,
            filters: vec![],
            records: vec![],
        };
        c.bench_function("shim/smoke_batched", |b| {
            b.iter_batched(
                || vec![1u64; 1024],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            );
        });
        assert_eq!(c.records().len(), 1);
        assert!(c.records()[0].median_ns > 0.0);
    }

    #[test]
    fn filters_skip_benches() {
        let mut c = Criterion {
            sample_size: 5,
            filters: vec!["nomatch".into()],
            records: vec![],
        };
        c.bench_function("shim/filtered_out", |b| b.iter(|| 1 + 1));
        assert!(c.records().is_empty());
    }

    #[test]
    fn iter_calibrates() {
        let mut c = Criterion {
            sample_size: 3,
            filters: vec![],
            records: vec![],
        };
        c.bench_function("shim/smoke_iter", |b| b.iter(|| black_box(7u64) * 3));
        assert_eq!(c.records().len(), 1);
    }
}
