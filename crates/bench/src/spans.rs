//! Span rollups for scenario reports: the per-layer cycle/copy table,
//! the copies-per-read ledger aggregate, and their JSON form.
//!
//! The raw recorder lives in `vread_sim::span`; this module adapts a
//! drained [`SpanReport`] to the harness's report surface. A summary is
//! attached to a [`crate::ScenarioReport`] only when the scenario asked
//! for tracing (`"spans": true`), so spans-off reports serialize exactly
//! as before.

use vread_sim::prelude::*;
use vread_sim::SpanReport;

use crate::json::{n, obj, s, Json};

/// Span-derived observability for one scenario run.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// The drained recorder output: all spans in `(begin, id)` order,
    /// fault marks, and the unattributed-cycle pool.
    pub report: SpanReport,
    /// Total cycles the engine accounted across every thread and
    /// category while the run executed — the right-hand side of the
    /// conservation invariant `span cycles + unattributed == acct`.
    pub acct_cycles: f64,
}

/// Byte-weighted aggregate over the per-root read ledger.
#[derive(Debug, Clone, Copy)]
pub struct ReadAggregate {
    /// Root spans that delivered payload.
    pub reads: usize,
    /// Payload bytes over all reads.
    pub payload_bytes: u64,
    /// Copy bytes over all reads' subtrees.
    pub copy_bytes: u64,
    /// Copy operations over all reads' subtrees.
    pub copies: u64,
    /// Bytes served by zero-copy mappings over all reads' subtrees
    /// (content-addressed dedup hits; 0 on copy-only paths).
    pub mapped_bytes: u64,
    /// Mapping operations over all reads' subtrees.
    pub maps: u64,
    /// Smallest per-read `copy_bytes / payload_bytes`.
    pub min_copies_per_read: f64,
    /// Largest per-read `copy_bytes / payload_bytes`.
    pub max_copies_per_read: f64,
}

impl ReadAggregate {
    /// Byte-weighted mean copies per read (the paper's "data copies").
    pub fn copies_per_read(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.copy_bytes as f64 / self.payload_bytes as f64
        }
    }
}

impl SpanSummary {
    /// Drains the world's recorder and snapshots the engine's total
    /// cycle accounting for the conservation check.
    pub fn collect(w: &mut World) -> SpanSummary {
        let report = w.spans.drain();
        let mut acct_cycles = 0.0;
        for t in 0..w.acct.len() {
            for cat in CpuCategory::ALL {
                acct_cycles += w.acct.cycles(t, cat);
            }
        }
        SpanSummary {
            report,
            acct_cycles,
        }
    }

    /// Aggregates the read ledger into one row.
    pub fn reads(&self) -> ReadAggregate {
        let mut agg = ReadAggregate {
            reads: 0,
            payload_bytes: 0,
            copy_bytes: 0,
            copies: 0,
            mapped_bytes: 0,
            maps: 0,
            min_copies_per_read: f64::INFINITY,
            max_copies_per_read: 0.0,
        };
        for r in self.report.read_ledger() {
            agg.reads += 1;
            agg.payload_bytes += r.payload_bytes;
            agg.copy_bytes += r.copy_bytes;
            agg.copies += r.copies;
            agg.mapped_bytes += r.mapped_bytes;
            agg.maps += r.maps;
            agg.min_copies_per_read = agg.min_copies_per_read.min(r.copies_per_read);
            agg.max_copies_per_read = agg.max_copies_per_read.max(r.copies_per_read);
        }
        if agg.reads == 0 {
            agg.min_copies_per_read = 0.0;
        }
        agg
    }

    /// `(span cycles + unattributed) - acct cycles`. Zero up to float
    /// rounding when every charge site is span-aware.
    pub fn conservation_gap(&self) -> f64 {
        self.report.total_cycles() + self.report.unattributed_cycles - self.acct_cycles
    }

    /// `true` when the conservation gap is within float rounding of the
    /// engine's total.
    pub fn conserves_cycles(&self) -> bool {
        self.conservation_gap().abs() <= self.acct_cycles.abs() * 1e-6 + 1.0
    }

    /// Serializes the summary (layer table + read aggregate +
    /// conservation figures) as a JSON value with a fixed field order.
    pub fn to_json(&self) -> Json {
        let layers = Json::Arr(
            self.report
                .layer_table()
                .into_iter()
                .map(|r| {
                    obj(vec![
                        ("name", s(r.name)),
                        ("count", n(r.count as f64)),
                        ("cycles", n(r.cycles)),
                        ("bytes", n(r.bytes as f64)),
                        ("copy_bytes", n(r.copy_bytes as f64)),
                        ("copies", n(r.copies as f64)),
                        ("queue_wait_ns", n(r.queue_wait_ns as f64)),
                        (
                            "cycles_by_bucket",
                            Json::Arr(
                                r.cycles_by_bucket
                                    .iter()
                                    .map(|(k, v)| Json::Arr(vec![s(*k), n(*v)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let agg = self.reads();
        let mut read_fields = vec![
            ("count", n(agg.reads as f64)),
            ("payload_bytes", n(agg.payload_bytes as f64)),
            ("copy_bytes", n(agg.copy_bytes as f64)),
            ("copies", n(agg.copies as f64)),
        ];
        if agg.mapped_bytes > 0 || agg.maps > 0 {
            // Only content-addressed runs move mapped bytes; copy-only
            // reports keep their exact historical serialization.
            read_fields.push(("mapped_bytes", n(agg.mapped_bytes as f64)));
            read_fields.push(("maps", n(agg.maps as f64)));
        }
        read_fields.push(("copies_per_read", n(agg.copies_per_read())));
        read_fields.push(("min_copies_per_read", n(agg.min_copies_per_read)));
        read_fields.push(("max_copies_per_read", n(agg.max_copies_per_read)));
        obj(vec![
            ("layers", layers),
            ("reads", obj(read_fields)),
            ("span_cycles", n(self.report.total_cycles())),
            ("unattributed_cycles", n(self.report.unattributed_cycles)),
            ("acct_cycles", n(self.acct_cycles)),
        ])
    }
}
