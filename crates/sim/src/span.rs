//! Causal per-read spans — the flight recorder.
//!
//! The paper's argument is an *accounting* argument: every vanilla HDFS
//! read costs at least five data copies, vRead costs two, and the CPU
//! breakdowns of Figures 9/10 attribute cycles to the layer that burned
//! them. Raw engine traces ([`crate::trace`]) record events without
//! causality; this module records *why*: a [`SpanId`] is minted at the
//! top of each logical operation (an HDFS read), propagated through
//! every protocol message on its causal path, and attached to the stage
//! chains doing the work. The scheduler charges cycles to the span of
//! the work item it is executing; [`Stage::Copy`](crate::Stage) stages
//! additionally record the bytes they move, so the number of data copies
//! per read falls out of the ledger instead of being asserted by hand.
//!
//! Span collection is **off by default** and costs one branch per charge
//! site when disabled (no allocation, no time reads). All bookkeeping
//! uses [`SimTime`] only, so reports are byte-identical across runs and
//! across parallel harness job counts.
//!
//! Spans live in a generation-tagged free-list slab exactly like chains
//! ([`crate::slab`]): a late charge against a retired span id misses
//! cleanly and is counted as *unattributed* instead of corrupting
//! whatever span recycled the slot.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cpu::CpuCategory;
use crate::time::SimTime;

/// Identifier of one span. Packs `generation << 32 | slot`; the reserved
/// value [`SpanId::NONE`] means "not traced" and makes every recording
/// call a cheap no-op, so data-path code can thread ids unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: recording against it is a no-op (or counts as
    /// unattributed work when the recorder is enabled).
    pub const NONE: SpanId = SpanId(u64::MAX);

    /// Whether this is the null span.
    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }

    /// The raw packed value (diagnostics, export).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "SpanId(none)")
        } else {
            write!(f, "SpanId({})", self.0)
        }
    }
}

fn pack(gen: u32, slot: u32) -> SpanId {
    SpanId((u64::from(gen) << 32) | u64::from(slot))
}

// vread-lint: allow(checked-cast, "intentional bit-slice of the packed generation|slot id")
fn unpack(id: SpanId) -> (u32, u32) {
    let raw = id.0;
    ((raw >> 32) as u32, raw as u32)
}

/// One finished (or drained-open) span: a named node in a read's causal
/// tree carrying everything charged to it.
#[derive(Debug, Clone)]
pub struct Span {
    /// The span's id (parent links in siblings refer to it).
    pub id: SpanId,
    /// Static name, e.g. `"read"`, `"vfd_read"`, `"dn_read"`.
    pub name: &'static str,
    /// Parent span, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// When the span was started.
    pub begin: SimTime,
    /// When it was explicitly ended. Spans never ended (a cancelled
    /// fetch, a stream cut off by a fault) are drained with
    /// `end == last_activity`, which makes stalls visible in the export.
    pub end: Option<SimTime>,
    /// Time of the last charge/copy against this span.
    pub last_activity: SimTime,
    /// Cycles charged, by accounting category.
    pub cycles: [f64; CpuCategory::COUNT],
    /// Payload bytes this span delivered (set by the protocol layer;
    /// the denominator of the copies-per-read ledger).
    pub bytes: u64,
    /// Bytes moved by [`Stage::Copy`](crate::Stage) stages on this span.
    pub copy_bytes: u64,
    /// Number of copy operations (chunked copies count per chunk).
    pub copies: u64,
    /// Bytes served by [`Stage::Map`](crate::Stage) stages on this span
    /// (made visible without moving — the dedup map-serve path).
    pub mapped_bytes: u64,
    /// Number of map operations.
    pub maps: u64,
    /// Run-queue wait absorbed by work on this span, in nanoseconds.
    pub queue_wait_ns: u64,
    /// Scheduler dispatches of work on this span.
    pub dispatches: u64,
}

impl Span {
    fn new(id: SpanId, name: &'static str, parent: SpanId, now: SimTime) -> Self {
        Span {
            id,
            name,
            parent,
            begin: now,
            end: None,
            last_activity: now,
            cycles: [0.0; CpuCategory::COUNT],
            bytes: 0,
            copy_bytes: 0,
            copies: 0,
            mapped_bytes: 0,
            maps: 0,
            queue_wait_ns: 0,
            dispatches: 0,
        }
    }

    /// Total cycles across all categories.
    pub fn total_cycles(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// The span's effective end time (drained-open spans use their last
    /// activity).
    pub fn end_time(&self) -> SimTime {
        self.end.unwrap_or(self.last_activity)
    }
}

/// An instant event (fault actions, protocol milestones) on the global
/// timeline.
#[derive(Debug, Clone, Copy)]
pub struct SpanMark {
    /// When it happened.
    pub t: SimTime,
    /// Static label, e.g. `"fault_daemon_crash"`.
    pub label: &'static str,
}

struct Slot {
    /// Incremented on each retire; live ids must match.
    gen: u32,
    span: Option<Span>,
}

/// The world's span recorder. Disabled by default; every recording entry
/// point checks one flag and returns, so the off path costs one branch.
#[derive(Default)]
pub struct SpanRecorder {
    enabled: bool,
    slots: Vec<Slot>,
    free: Vec<u32>,
    finished: Vec<Span>,
    marks: Vec<SpanMark>,
    /// Cycles charged while enabled that hit no live span (scheduler
    /// context switches, untraced chains, late charges to retired spans).
    unattributed_cycles: f64,
}

impl SpanRecorder {
    /// Creates a disabled recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Starts recording spans.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Cycles that hit no live span while enabled.
    pub fn unattributed_cycles(&self) -> f64 {
        self.unattributed_cycles
    }

    /// Number of live (not yet ended) spans.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Starts a span. Returns [`SpanId::NONE`] when disabled — the one
    /// branch the off path pays.
    pub fn start(&mut self, name: &'static str, parent: SpanId, now: SimTime) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.span.is_none());
            let id = pack(s.gen, slot);
            s.span = Some(Span::new(id, name, parent, now));
            id
        } else {
            let slot = u32::try_from(self.slots.len()).expect("span slab overflow");
            let id = pack(0, slot);
            self.slots.push(Slot {
                gen: 0,
                span: Some(Span::new(id, name, parent, now)),
            });
            id
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        if id.is_none() {
            return None;
        }
        let (gen, slot) = unpack(id);
        let s = self.slots.get_mut(slot as usize)?;
        if s.gen != gen {
            return None;
        }
        s.span.as_mut()
    }

    /// Ends a span, retiring it to the finished list. Stale/none ids
    /// miss cleanly.
    pub fn end(&mut self, id: SpanId, now: SimTime) {
        if !self.enabled || id.is_none() {
            return;
        }
        let (gen, slot) = unpack(id);
        let Some(s) = self.slots.get_mut(slot as usize) else {
            return;
        };
        if s.gen != gen {
            return;
        }
        let Some(mut span) = s.span.take() else {
            return;
        };
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        span.end = Some(now);
        span.last_activity = now;
        self.finished.push(span);
    }

    /// Charges executed cycles to `id`. Called by the scheduler at its
    /// single accounting point; a miss (disabled path never calls with a
    /// live recorder, so: null id, stale id) counts as unattributed.
    pub fn charge(&mut self, id: SpanId, cat: CpuCategory, cycles: f64, now: SimTime) {
        if !self.enabled {
            return;
        }
        match self.get_mut(id) {
            Some(sp) => {
                sp.cycles[cat as usize] += cycles;
                sp.last_activity = sp.last_activity.max(now);
            }
            None => self.unattributed_cycles += cycles,
        }
    }

    /// Records one data-copy operation of `bytes` on `id` (the cycles of
    /// the copy are charged separately through [`SpanRecorder::charge`]).
    pub fn copy(&mut self, id: SpanId, bytes: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(sp) = self.get_mut(id) {
            sp.copy_bytes += bytes;
            sp.copies += 1;
            sp.last_activity = sp.last_activity.max(now);
        }
    }

    /// Records one zero-copy mapping of `bytes` on `id` (the bookkeeping
    /// cycles are charged separately through [`SpanRecorder::charge`]).
    pub fn mapped(&mut self, id: SpanId, bytes: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(sp) = self.get_mut(id) {
            sp.mapped_bytes += bytes;
            sp.maps += 1;
            sp.last_activity = sp.last_activity.max(now);
        }
    }

    /// Adds delivered payload bytes to `id` (the ledger denominator).
    pub fn payload(&mut self, id: SpanId, bytes: u64) {
        if !self.enabled {
            return;
        }
        if let Some(sp) = self.get_mut(id) {
            sp.bytes += bytes;
        }
    }

    /// Attributes run-queue wait absorbed before a dispatch.
    pub fn queue_wait(&mut self, id: SpanId, ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some(sp) = self.get_mut(id) {
            sp.queue_wait_ns += ns;
            sp.dispatches += 1;
        }
    }

    /// Records an instant event on the global timeline.
    pub fn mark(&mut self, label: &'static str, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.marks.push(SpanMark { t: now, label });
    }

    /// Drains everything recorded so far into a report. Spans still open
    /// are closed at their last activity (making stalls visible) and the
    /// recorder is left empty but still enabled.
    pub fn drain(&mut self) -> SpanReport {
        let mut spans = std::mem::take(&mut self.finished);
        for (i, s) in self.slots.iter_mut().enumerate() {
            if let Some(mut span) = s.span.take() {
                s.gen = s.gen.wrapping_add(1);
                self.free
                    .push(u32::try_from(i).expect("span slab slot fits u32"));
                span.end = Some(span.last_activity);
                spans.push(span);
            }
        }
        // Deterministic presentation order: by begin time, then id. Sort
        // a small key permutation, then move each span once.
        let mut order: Vec<(SimTime, SpanId, u32)> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    s.begin,
                    s.id,
                    u32::try_from(i).expect("span count fits u32"),
                )
            })
            .collect();
        order.sort_unstable();
        let mut slots: Vec<Option<Span>> = spans.into_iter().map(Some).collect();
        let spans = order
            .iter()
            .map(|&(_, _, i)| slots[i as usize].take().expect("each span moves once"))
            .collect();
        SpanReport {
            spans,
            marks: std::mem::take(&mut self.marks),
            unattributed_cycles: std::mem::replace(&mut self.unattributed_cycles, 0.0),
        }
    }
}

// ---------------------------------------------------------------------------
// Post-run rollups
// ---------------------------------------------------------------------------

/// Everything drained from a [`SpanRecorder`] after a run.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// All spans, ordered by `(begin, id)`.
    pub spans: Vec<Span>,
    /// Instant events, in recording order.
    pub marks: Vec<SpanMark>,
    /// Cycles charged while enabled that no live span claimed.
    pub unattributed_cycles: f64,
}

/// One row of the per-layer breakdown: all spans sharing a name, with
/// cycles folded into the paper's figure buckets.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Span name ("layer").
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: usize,
    /// Cycles per figure bucket (see [`CpuCategory::figure_bucket`]).
    pub cycles_by_bucket: BTreeMap<&'static str, f64>,
    /// Total cycles.
    pub cycles: f64,
    /// Payload bytes delivered by these spans.
    pub bytes: u64,
    /// Bytes moved by copy stages on these spans.
    pub copy_bytes: u64,
    /// Copy operations on these spans.
    pub copies: u64,
    /// Bytes served by map stages on these spans (zero-copy).
    pub mapped_bytes: u64,
    /// Map operations on these spans.
    pub maps: u64,
    /// Run-queue wait absorbed, in nanoseconds.
    pub queue_wait_ns: u64,
}

/// Copies-per-read ledger entry for one root span.
#[derive(Debug, Clone)]
pub struct ReadLedgerRow {
    /// The root span id.
    pub id: SpanId,
    /// Root span name.
    pub name: &'static str,
    /// Payload bytes the read delivered.
    pub payload_bytes: u64,
    /// Copy bytes summed over the root and its whole subtree.
    pub copy_bytes: u64,
    /// Copy operations over the subtree.
    pub copies: u64,
    /// Mapped (zero-copy) bytes over the subtree.
    pub mapped_bytes: u64,
    /// Map operations over the subtree.
    pub maps: u64,
    /// `copy_bytes / payload_bytes` — the paper's "data copies per read".
    pub copies_per_read: f64,
}

impl SpanReport {
    /// Total cycles attributed to spans (for conservation checks against
    /// engine accounting, together with [`SpanReport::unattributed_cycles`]).
    pub fn total_cycles(&self) -> f64 {
        self.spans.iter().map(Span::total_cycles).sum()
    }

    /// Aggregates spans by name into the Fig 9/10-shaped per-layer table,
    /// sorted by name.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        // Each category folds into the first category sharing its figure
        // bucket, so a row sums into a fixed array and builds its map
        // once. Sums see the same additions in the same order (span by
        // span, category by category) as a per-bucket map would.
        let bucket_of: [usize; CpuCategory::COUNT] = std::array::from_fn(|c| {
            let name = CpuCategory::ALL[c].figure_bucket();
            CpuCategory::ALL
                .iter()
                .position(|k| k.figure_bucket() == name)
                .expect("a category is in ALL")
        });
        struct Acc {
            row: LayerRow,
            /// Per bucket, `None` until a cycle lands in it.
            sums: [Option<f64>; CpuCategory::COUNT],
        }
        let mut rows: Vec<Acc> = Vec::new();
        for s in &self.spans {
            let i = match rows.iter().position(|a| a.row.name == s.name) {
                Some(i) => i,
                None => {
                    rows.push(Acc {
                        row: LayerRow {
                            name: s.name,
                            count: 0,
                            cycles_by_bucket: BTreeMap::new(),
                            cycles: 0.0,
                            bytes: 0,
                            copy_bytes: 0,
                            copies: 0,
                            mapped_bytes: 0,
                            maps: 0,
                            queue_wait_ns: 0,
                        },
                        sums: [None; CpuCategory::COUNT],
                    });
                    rows.len() - 1
                }
            };
            let acc = &mut rows[i];
            let row = &mut acc.row;
            row.count += 1;
            for cat in CpuCategory::ALL {
                let c = s.cycles[cat as usize];
                if c > 0.0 {
                    *acc.sums[bucket_of[cat as usize]].get_or_insert(0.0) += c;
                    row.cycles += c;
                }
            }
            row.bytes += s.bytes;
            row.copy_bytes += s.copy_bytes;
            row.copies += s.copies;
            row.mapped_bytes += s.mapped_bytes;
            row.maps += s.maps;
            row.queue_wait_ns += s.queue_wait_ns;
        }
        let mut table: Vec<LayerRow> = rows
            .into_iter()
            .map(|mut acc| {
                for (b, sum) in acc.sums.iter().enumerate() {
                    if let Some(sum) = *sum {
                        acc.row
                            .cycles_by_bucket
                            .insert(CpuCategory::ALL[b].figure_bucket(), sum);
                    }
                }
                acc.row
            })
            .collect();
        table.sort_unstable_by_key(|r| r.name);
        table
    }

    /// For each span, the index of the root of its parent chain (itself
    /// when its parent is none or not in the report).
    fn roots(&self) -> Vec<usize> {
        let mut by_id: Vec<(u64, u32)> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.raw(), u32::try_from(i).expect("span count fits u32")))
            .collect();
        by_id.sort_unstable();
        let parent_of = |i: usize| -> Option<usize> {
            let p = self.spans[i].parent.raw();
            by_id
                .binary_search_by_key(&p, |&(id, _)| id)
                .ok()
                .map(|k| by_id[k].1 as usize)
        };
        (0..self.spans.len())
            .map(|mut i| {
                // Parent chains are tiny (2–3 deep); bound the walk anyway.
                for _ in 0..64 {
                    match parent_of(i) {
                        Some(pi) => i = pi,
                        None => break,
                    }
                }
                i
            })
            .collect()
    }

    /// Rolls every span's copies up to its root and emits one ledger row
    /// per root span that delivered payload, in report order.
    pub fn read_ledger(&self) -> Vec<ReadLedgerRow> {
        let roots = self.roots();
        let mut rollup: Vec<(u64, u64, u64, u64)> = vec![(0, 0, 0, 0); self.spans.len()];
        for (s, &r) in self.spans.iter().zip(&roots) {
            let e = &mut rollup[r];
            e.0 += s.copy_bytes;
            e.1 += s.copies;
            e.2 += s.mapped_bytes;
            e.3 += s.maps;
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| roots[i] == i && s.bytes > 0)
            .map(|(i, s)| {
                let (cb, cp, mb, mp) = rollup[i];
                ReadLedgerRow {
                    id: s.id,
                    name: s.name,
                    payload_bytes: s.bytes,
                    copy_bytes: cb,
                    copies: cp,
                    mapped_bytes: mb,
                    maps: mp,
                    copies_per_read: cb as f64 / s.bytes as f64,
                }
            })
            .collect()
    }

    /// Serializes the report as Chrome trace-event JSON ("X" complete
    /// events per span, "i" instants per mark), loadable in Perfetto /
    /// `chrome://tracing`. Output is deterministic: spans are already in
    /// `(begin, id)` order and all numbers are fixed-point formatted.
    pub fn chrome_trace_json(&self) -> String {
        // Track (tid) per root span, in report order; children inherit
        // their root's track so each read renders as one lane.
        let roots = self.roots();
        let mut tids: Vec<u32> = vec![0; self.spans.len()];
        let mut next_tid = 0u32;
        for (i, &r) in roots.iter().enumerate() {
            if r == i {
                next_tid += 1;
                tids[i] = next_tid;
            }
        }
        for (i, &r) in roots.iter().enumerate() {
            tids[i] = tids[r];
        }
        let us = |t: SimTime| -> String {
            let ns = t.as_nanos();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        };
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let dur_ns = s.end_time().as_nanos().saturating_sub(s.begin.as_nanos());
            // Map fields are emitted only when set, so traces of runs
            // without map-serves stay byte-identical to before they
            // existed.
            let mapped = if s.mapped_bytes > 0 || s.maps > 0 {
                format!(",\"mapped_bytes\":{},\"maps\":{}", s.mapped_bytes, s.maps)
            } else {
                String::new()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{}.{:03},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"span\":{},\"bytes\":{},\"copy_bytes\":{},\
                 \"copies\":{}{},\"cycles\":{:.0},\"queue_wait_ns\":{},\"dispatches\":{}}}}}",
                s.name,
                us(s.begin),
                dur_ns / 1000,
                dur_ns % 1000,
                tids[i],
                s.id.raw(),
                s.bytes,
                s.copy_bytes,
                s.copies,
                mapped,
                s.total_cycles(),
                s.queue_wait_ns,
                s.dispatches,
            );
        }
        for m in &self.marks {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\
                 \"tid\":0,\"s\":\"g\"}}",
                m.label,
                us(m.t),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = SpanRecorder::new();
        let id = r.start("read", SpanId::NONE, t(0));
        assert!(id.is_none());
        r.charge(id, CpuCategory::ClientApp, 100.0, t(1));
        r.copy(id, 4096, t(1));
        r.mark("x", t(1));
        assert_eq!(r.unattributed_cycles(), 0.0);
        let rep = r.drain();
        assert!(rep.spans.is_empty() && rep.marks.is_empty());
    }

    #[test]
    fn charge_copy_and_end_roundtrip() {
        let mut r = SpanRecorder::new();
        r.enable();
        let root = r.start("read", SpanId::NONE, t(0));
        let child = r.start("vfd_read", root, t(5));
        r.payload(root, 1000);
        r.charge(child, CpuCategory::CopyVreadBuffer, 500.0, t(10));
        r.copy(child, 1000, t(10));
        r.copy(child, 1000, t(12));
        r.end(child, t(20));
        r.end(root, t(25));
        let rep = r.drain();
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.spans[0].name, "read");
        assert_eq!(rep.spans[1].copies, 2);
        assert_eq!(rep.spans[1].copy_bytes, 2000);
        assert_eq!(rep.total_cycles(), 500.0);
        assert_eq!(rep.unattributed_cycles, 0.0);
        let ledger = rep.read_ledger();
        assert_eq!(ledger.len(), 1);
        assert!((ledger[0].copies_per_read - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stale_charges_count_as_unattributed() {
        let mut r = SpanRecorder::new();
        r.enable();
        let id = r.start("read", SpanId::NONE, t(0));
        r.end(id, t(1));
        r.charge(id, CpuCategory::Other, 42.0, t(2));
        r.charge(SpanId::NONE, CpuCategory::Other, 8.0, t(2));
        assert_eq!(r.unattributed_cycles(), 50.0);
        // The recycled slot must not alias the retired span.
        let id2 = r.start("read", SpanId::NONE, t(3));
        assert_ne!(id, id2);
        r.charge(id, CpuCategory::Other, 1.0, t(4));
        let rep = r.drain();
        assert_eq!(rep.unattributed_cycles, 51.0);
        // vread-lint: allow(float-accum, "drain sorts spans by (begin, id), a fixed order")
        assert_eq!(rep.spans.iter().map(Span::total_cycles).sum::<f64>(), 0.0);
    }

    #[test]
    fn open_spans_drain_at_last_activity() {
        let mut r = SpanRecorder::new();
        r.enable();
        let id = r.start("read", SpanId::NONE, t(10));
        r.charge(id, CpuCategory::ClientApp, 1.0, t(30));
        let rep = r.drain();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].end, Some(t(30)));
        // drain leaves the recorder reusable
        assert_eq!(r.live(), 0);
    }

    #[test]
    fn ledger_rolls_subtree_copies_to_root() {
        let mut r = SpanRecorder::new();
        r.enable();
        let a = r.start("read", SpanId::NONE, t(0));
        let b = r.start("block_fetch", a, t(1));
        let c = r.start("dn_read", b, t(2));
        r.payload(a, 100);
        r.copy(b, 400, t(3));
        r.copy(c, 100, t(4));
        for id in [c, b, a] {
            r.end(id, t(10));
        }
        let ledger = r.drain().read_ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].copy_bytes, 500);
        assert_eq!(ledger[0].copies, 2);
        assert!((ledger[0].copies_per_read - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mapped_bytes_roll_up_separately_from_copies() {
        let mut r = SpanRecorder::new();
        r.enable();
        let a = r.start("read", SpanId::NONE, t(0));
        let b = r.start("vfd_read", a, t(1));
        r.payload(a, 1000);
        // dedup serve: the push is a map, only the guest pop copies
        r.mapped(b, 1000, t(2));
        r.copy(b, 1000, t(3));
        for id in [b, a] {
            r.end(id, t(10));
        }
        let rep = r.drain();
        let ledger = rep.read_ledger();
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].copy_bytes, 1000);
        assert_eq!(ledger[0].mapped_bytes, 1000);
        assert_eq!(ledger[0].maps, 1);
        assert!((ledger[0].copies_per_read - 1.0).abs() < 1e-9);
        // mapped args appear in the chrome export only when present
        let json = rep.chrome_trace_json();
        assert!(json.contains("\"mapped_bytes\":1000,\"maps\":1"));
        let empty = SpanReport::default().chrome_trace_json();
        assert!(!empty.contains("mapped_bytes"));
    }

    #[test]
    fn layer_table_groups_by_name() {
        let mut r = SpanRecorder::new();
        r.enable();
        for i in 0..3 {
            let id = r.start("read", SpanId::NONE, t(i));
            r.charge(id, CpuCategory::ClientApp, 10.0, t(i + 1));
            r.end(id, t(i + 2));
        }
        let id = r.start("dn_read", SpanId::NONE, t(9));
        r.charge(id, CpuCategory::CopyVirtioVqueue, 5.0, t(10));
        r.end(id, t(11));
        let table = r.drain().layer_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].name, "dn_read");
        assert_eq!(table[1].name, "read");
        assert_eq!(table[1].count, 3);
        assert_eq!(table[1].cycles, 30.0);
        assert_eq!(
            table[0].cycles_by_bucket.get("data copy(virtio-vqueue)"),
            Some(&5.0)
        );
    }

    #[test]
    fn chrome_trace_is_valid_shaped_json() {
        let mut r = SpanRecorder::new();
        r.enable();
        let root = r.start("read", SpanId::NONE, t(1_500));
        let child = r.start("vfd_read", root, t(2_000));
        r.end(child, t(4_000));
        r.end(root, t(5_500));
        r.mark("fault_daemon_crash", t(3_000));
        let json = r.drain().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"read\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"i\""));
        // root and child share a track
        assert!(json.matches("\"tid\":1").count() >= 2);
        // braces balance (cheap well-formedness check)
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
