//! Host-time measurement through the in-repo criterion shim, the
//! calibration that scales host times, and the process's peak memory.
//!
//! Every host time this benchmark reports comes from
//! `criterion::Bencher::iter_batched`: the shim is the workspace's one
//! sanctioned wall-clock reader, so the benchmark's own files carry no
//! clock reads the determinism lint would have to allow.
//!
//! Shared machines drift: the same run can take 30% longer for minutes
//! at a time while neighbours are busy. Each child process therefore
//! also times [`calibration_work`], a fixed workload of the benchmark's
//! own, and reports host times scaled to a machine on which that
//! workload takes [`CALIBRATION_REF_MS`]. On a 2-CPU machine this cut
//! the spread of ten runs' `wall_ms` from 7–9% to 3–4%.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use criterion::{BatchSize, Criterion};

use crate::workloads::Rng;

/// Timed warm-up runs the shim makes before the measured samples.
pub const WARMUP: usize = 2;

/// One measured step.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Median host milliseconds per run.
    pub median_ms: f64,
    /// Measured samples (warm-up excluded).
    pub samples: usize,
    /// Host seconds the step spent running, warm-up included (an
    /// estimate from the mean, used to budget a run's length).
    pub spent_s: f64,
}

/// Times `routine` over `samples` fresh inputs from `setup` (which is
/// not timed) and hands every output, warm-up included, to `on_output`
/// outside the timed region, so checking or dropping an output never
/// counts against the routine.
///
/// # Panics
///
/// When `samples < 2` (the shim needs two samples for a median).
pub fn measure<I, O>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
    mut on_output: impl FnMut(O),
) -> Timed {
    let kept: RefCell<Option<O>> = RefCell::new(None);
    let mut c = Criterion::default().sample_size(samples);
    c.bench_function(name, |b| {
        b.iter_batched(
            || {
                let prev = kept.borrow_mut().take();
                if let Some(o) = prev {
                    on_output(o);
                }
                setup()
            },
            |input| {
                let out = routine(input);
                *kept.borrow_mut() = Some(out);
            },
            BatchSize::PerIteration,
        );
    });
    if let Some(o) = kept.into_inner() {
        on_output(o);
    }
    let rec = c
        .records()
        .last()
        .expect("the shim records every bench it runs unfiltered");
    Timed {
        median_ms: rec.median_ns / 1e6,
        samples: rec.samples,
        spent_s: (rec.samples + WARMUP) as f64 * rec.mean_ns / 1e9,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, on Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The calibration workload's reference host time: scaled host times
/// read as milliseconds on a machine where [`calibration_work`] takes
/// this long. Fixed for good, like the workload itself: changing either
/// rescales every recorded host time.
pub const CALIBRATION_REF_MS: f64 = 25.0;

/// A fixed, seeded workload shaped like the simulator's hot path: an
/// event queue, an ordered table updated with float arithmetic, and an
/// append-only log, with a working set of a few MiB. Never change it.
pub fn calibration_work(seed: u64) -> u64 {
    const QUEUE: u64 = 1 << 14;
    const KEYS: u64 = 1 << 16;
    const STEPS: usize = 100_000;
    const LOG: usize = 1 << 17;
    let mut rng = Rng::new(seed, "calibration");
    let mut queue = BinaryHeap::new();
    for id in 0..QUEUE {
        queue.push(Reverse((rng.next_u64() % 1000, id)));
    }
    let mut table: BTreeMap<u64, f64> = BTreeMap::new();
    let mut log = Vec::new();
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        let r = rng.next_u64();
        queue.push(Reverse((t + r % 1000, id)));
        *table.entry(r % KEYS).or_insert(0.0) += t as f64 * 0.5;
        acc = acc.wrapping_add(t ^ id);
        if r.is_multiple_of(16) {
            log.push(acc);
            if log.len() == LOG {
                log.clear();
            }
        }
    }
    acc ^ table.len() as u64
}

/// Times [`calibration_work`] and returns the factor that scales this
/// process's host times to the reference machine.
pub fn calibrate(samples: usize) -> (Timed, f64) {
    let mut seed = 0;
    let t = measure(
        "calibration",
        samples,
        || {
            seed += 1;
            seed
        },
        calibration_work,
        drop,
    );
    (t, CALIBRATION_REF_MS / t.median_ms)
}
