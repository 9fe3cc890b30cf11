//! Deterministic fan-out of independent tasks over a thread pool.
//!
//! This module is the **one sanctioned site** for OS threading in the
//! workspace (the `threading` vread-lint rule flags `std::thread`,
//! channels, locks and atomics everywhere else). [`run_indexed`] and
//! [`run_indexed_streamed`] run `n` independent tasks on a worker pool and
//! surface the results in index order; `repro --jobs N` drives every
//! experiment, scenario, trace, timeline and fault-matrix cell through
//! them.
//!
//! # Determinism
//!
//! Each task builds and drives its own [`World`](crate::World) on the
//! worker that picked it up; no simulation state is shared, and only the
//! finished results cross threads. Results are surfaced strictly in index
//! order, so output is byte-identical at any thread count: the count
//! changes wall-clock time only.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering}; // vread-lint: allow(threading, "sanctioned worker pool")
use std::sync::mpsc; // vread-lint: allow(threading, "sanctioned worker pool")
use std::thread;

/// Runs `n` independent tasks on `threads` workers, invoking `on_ready`
/// for every result **in index order** (streaming: a result is surfaced as
/// soon as it and all lower-index results are available).
///
/// `threads <= 1` degenerates to a plain sequential loop. Worker panics
/// are propagated after in-flight results have been flushed.
pub fn run_indexed_streamed<R, F, G>(n: usize, threads: usize, f: F, mut on_ready: G)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    G: FnMut(usize, R),
{
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        for i in 0..n {
            let r = f(i);
            on_ready(i, r);
        }
        return;
    }
    let next = AtomicUsize::new(0); // vread-lint: allow(threading, "sanctioned worker pool")
    let mut buf: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // vread-lint: allow(threading, "sanctioned worker pool")
    thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let tx = tx.clone();
            let f = &f;
            let next = &next;
            handles.push(s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                if tx.send((i, f(i))).is_err() {
                    return;
                }
            }));
        }
        drop(tx);
        let mut flushed = 0;
        while let Ok((i, r)) = rx.recv() {
            buf[i] = Some(r);
            while flushed < n {
                let Some(r) = buf[flushed].take() else { break };
                on_ready(flushed, r);
                flushed += 1;
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                resume_unwind(payload);
            }
        }
    });
}

/// Like [`run_indexed_streamed`] but collects the results into a `Vec`
/// ordered by index.
pub fn run_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::with_capacity(n);
    run_indexed_streamed(n, threads, f, |_, r| out.push(r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order_and_streams_in_order() {
        for threads in [1, 2, 4, 9] {
            let squares = run_indexed(10, threads, |i| i * i);
            assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
            let mut seen = Vec::new();
            run_indexed_streamed(10, threads, |i| i + 1, |ix, r| seen.push((ix, r)));
            assert_eq!(seen, (0..10).map(|i| (i, i + 1)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }
}
