//! Deterministic time-series telemetry: sampled gauges and log-bucket
//! latency histograms.
//!
//! The span flight recorder ([`crate::span`]) answers *where one read's
//! cycles went*; this module answers *how the system evolved over
//! simulated time* — run-queue depths, scheduling delay, ring and link
//! occupancy, cache levels, and read-latency quantiles per window. That
//! is the view the paper's saturation argument needs: tail latency
//! (p99/p999) as concurrency rises, not just end-of-run means.
//!
//! # How sampling stays deterministic
//!
//! The sampler is driven by **ordinary engine events**: enabling the
//! timeline ([`World::start_timeline`](crate::World::start_timeline))
//! schedules a tick at `now + sample_every`, and each tick re-schedules
//! the next while the world still has work. Ticks therefore carry
//! `(time, seq)` keys like every other event and replay identically on
//! every run, so each tick observes the same world state at any
//! `--jobs N`. There is no wall-clock, no background thread,
//! and no sampling skew: a tick at `t` sees the world exactly as of the
//! last event executed at or before `t`.
//!
//! # Change-only series
//!
//! Each series is a step function: a tick stores a point only when the
//! value's bits differ from the series' last stored point, and the value
//! holds until the next stored point. Expanding a series over the tick
//! grid (every `sample_every` up to [`Timeline::last_tick`]) rebuilds
//! the per-tick samples exactly. Every series slot — per host, per link,
//! per gauge and per provider — is resolved on its first tick, so later
//! ticks do no string work.
//!
//! # Histograms vs [`Samples`](crate::metrics::Samples)
//!
//! Per-window latency lives in [`Hist`], a log-bucket (HDR-style)
//! histogram with **integer bucket counts** that stores only its
//! non-empty buckets. Unlike a sorted `Vec<f64>`, its memory is bounded
//! by the bucket count however many reads land in a window, and its
//! quantiles depend only on the multiset of recorded values, never on
//! the order they arrived in. Windows are kept only where reads ended.
//!
//! # Mutation discipline
//!
//! All raw mutation — `Timeline::push` for series points and
//! [`Hist::record_raw`] for bucket increments — is confined to this
//! module (enforced by the `timeline-confine` vread-lint rule).
//! Components feed the timeline indirectly: level gauges go through
//! [`Metrics`](crate::metrics::Metrics) gauges (sampled on every tick),
//! richer sources register a provider closure, and read completions call
//! the [`Timeline::observe_read`] charge wrapper.

use std::fmt;

use crate::engine::World;
use crate::ids::{HostId, LinkId};
use crate::time::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Hist — sparse log-bucket histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two,
/// bounding the relative quantile error at 1/32 ≈ 3.1%.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total bucket count: one linear region below 2^SUB_BITS plus
/// `64 - SUB_BITS` log octaves of `SUB_COUNT` sub-buckets each.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;
// Sparse `Hist` entries store the bucket index as a `u16`.
const _: () = assert!(BUCKETS <= 1 << 16);

/// Bucket index of value `v` (monotone in `v`).
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize; // exact linear region
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (msb - SUB_BITS + 1) as u64;
    let sub = (v >> (msb - SUB_BITS)) & (SUB_COUNT - 1);
    (octave * SUB_COUNT + sub) as usize
}

/// Highest value mapping to bucket `idx` (the quantile representative,
/// like HDR's `highestEquivalentValue`).
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let octave = idx >> SUB_BITS;
    let sub = idx & (SUB_COUNT - 1);
    let msb = octave + u64::from(SUB_BITS) - 1;
    let unit = 1u64 << (msb - u64::from(SUB_BITS));
    // base - 1 + span, ordered so the top bucket lands exactly on
    // u64::MAX without intermediate overflow.
    (1u64 << msb) - 1 + (sub + 1) * unit
}

/// A log-bucket latency histogram over `u64` nanoseconds.
///
/// Quantiles are nearest-rank over the cumulative counts and return the
/// bucket's highest contained value, so the reported p99 never
/// under-states the true p99 and is off by at most 1/32 relative.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Hist {
    /// The non-empty buckets as `(bucket, count)`, sorted by bucket and
    /// never holding a zero count — so equal multisets compare equal,
    /// and a window with a few reads costs a few entries, not all
    /// `BUCKETS`.
    counts: Vec<(u16, u64)>,
    total: u64,
}

impl fmt::Debug for Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hist")
            .field("total", &self.total)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Records one raw value. This is the raw mutation sink the
    /// `timeline-confine` lint rule restricts to this module — external
    /// observations arrive via [`Timeline::observe_read`].
    pub fn record_raw(&mut self, v: u64) {
        let b = u16::try_from(bucket_of(v)).expect("bucket index fits u16");
        match self.counts.binary_search_by_key(&b, |&(k, _)| k) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (b, 1)),
        }
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank, or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Nearest-rank: the smallest value with cumulative count >= rank.
        let rank = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        for &(b, c) in &self.counts {
            seen += c;
            if seen >= rank {
                return bucket_high(usize::from(b));
            }
        }
        unreachable!("bucket counts sum to the total")
    }

    /// Highest recorded value's bucket representative, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.counts
            .last()
            .map_or(0, |&(b, _)| bucket_high(usize::from(b)))
    }
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

/// A named step-function series: `(time, value)` points in tick order,
/// each stored only when its value differs from the previous point.
#[derive(Debug, Clone)]
struct Series {
    name: String,
    points: Vec<(SimTime, f64)>,
}

/// A registered gauge provider: polled on every tick, in registration
/// order, with shared access to the world.
type Provider = Box<dyn Fn(&World) -> f64>;

/// A provider and its series slot, resolved on its first tick.
struct Registered {
    name: String,
    f: Provider,
    slot: Option<usize>,
}

/// The world's telemetry timeline. Disabled by default — a disabled
/// timeline schedules no ticks, records nothing, and keeps every
/// existing report byte-identical.
#[derive(Default)]
pub struct Timeline {
    enabled: bool,
    sample: SimDuration,
    /// Series in first-sample order.
    series: Vec<Series>,
    /// Per host, the slot of `sched.{host}.runq` (`.delay_ms` is the
    /// next slot).
    host_slots: Vec<usize>,
    /// Per link, the slot of `link.{i}.backlog_bytes` (`.mbps` is the
    /// next slot).
    link_slots: Vec<usize>,
    /// Per gauge id, the slot of `gauge.{key}` once it has been sampled.
    gauge_slots: Vec<Option<usize>>,
    providers: Vec<Registered>,
    /// Per-window read-latency histograms as `(window index, hist)`
    /// (`end_of_read / sample`), sorted by window. Reads end in time
    /// order, so a new window is almost always appended.
    windows: Vec<(u64, Hist)>,
    /// Whole-run read-latency histogram.
    run_hist: Hist,
    /// Last observed `bytes_total` per link, for per-window throughput.
    last_link_bytes: Vec<u64>,
    ticks: u64,
    last_tick: Option<SimTime>,
}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timeline")
            .field("enabled", &self.enabled)
            .field("sample", &self.sample)
            .field("series", &self.series.len())
            .field("providers", &self.providers.len())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl Timeline {
    /// Turns sampling on with the given period. The engine schedules the
    /// first tick; prefer [`World::start_timeline`](crate::World::start_timeline).
    ///
    /// # Panics
    ///
    /// Panics on a zero sample period.
    pub(crate) fn enable(&mut self, sample: SimDuration) {
        assert!(sample > SimDuration::ZERO, "sample period must be positive");
        self.enabled = true;
        self.sample = sample;
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling period (also the latency-window length).
    pub fn sample_every(&self) -> SimDuration {
        self.sample
    }

    /// Number of ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Time of the latest tick, if any: where every series' step
    /// function ends.
    pub fn last_tick(&self) -> Option<SimTime> {
        self.last_tick
    }

    /// Registers a named gauge provider, polled on every tick. Providers
    /// run in registration order (deterministic as long as registration
    /// itself is); they get shared world access and must not rely on
    /// `world.timeline` (vacated during sampling). Each provider gets a
    /// series of its own, so names should be unique.
    pub fn register_provider(&mut self, name: &str, f: Provider) {
        self.providers.push(Registered {
            name: name.to_owned(),
            f,
            slot: None,
        });
    }

    /// Opens a new, empty series and returns its slot.
    fn open(&mut self, name: String) -> usize {
        self.series.push(Series {
            name,
            points: Vec::new(),
        });
        self.series.len() - 1
    }

    /// Samples series `slot` at `t`, storing the point only when `v`'s
    /// bits differ from the last stored value. Raw mutation sink —
    /// confined to this module by the `timeline-confine` lint rule;
    /// everything external flows in via gauges, providers or
    /// [`Timeline::observe_read`].
    fn push(&mut self, slot: usize, t: SimTime, v: f64) {
        let points = &mut self.series[slot].points;
        if points
            .last()
            .is_none_or(|&(_, last)| last.to_bits() != v.to_bits())
        {
            points.push((t, v));
        }
    }

    /// Charge wrapper for read latency: records `end - start` into the
    /// window containing `end` and into the whole-run histogram. No-op
    /// while disabled.
    pub fn observe_read(&mut self, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        let lat = end.since(start).as_nanos();
        let win = end.as_nanos() / self.sample.as_nanos();
        // Reads end in time order, so this is almost always the last
        // window or one past it; an earlier window still lands in place.
        let i = self.windows.partition_point(|&(w, _)| w < win);
        if self.windows.get(i).is_none_or(|&(w, _)| w != win) {
            self.windows.insert(i, (win, Hist::new()));
        }
        self.windows[i].1.record_raw(lat);
        self.run_hist.record_raw(lat);
    }

    /// One sampler tick: polls built-in sources (per-host run-queue
    /// depth and scheduling delay, per-link backlog and window
    /// throughput), every touched [`Metrics`](crate::metrics::Metrics)
    /// gauge, and every registered provider. Called by the engine with
    /// the timeline taken out of the world (`mem::take`), so `w` is
    /// read-only here.
    pub(crate) fn sample_now(&mut self, w: &World) {
        let t = w.now();
        // Per-host scheduler pressure: the paper's two contention
        // signals (Fig. 5) — how many threads wait for a core, and how
        // long the longest-waiting one has been waiting.
        for h in 0..w.num_hosts() {
            let host = HostId::from_raw(u16::try_from(h).expect("host id fits u16"));
            let slot = match self.host_slots.get(h) {
                Some(&slot) => slot,
                None => {
                    let name = w.host_name(host);
                    let slot = self.open(format!("sched.{name}.runq"));
                    self.open(format!("sched.{name}.delay_ms"));
                    self.host_slots.push(slot);
                    slot
                }
            };
            let depth = w.host_runq_depth(host) as f64;
            let delay = w.host_max_queued_delay(host).as_millis_f64();
            self.push(slot, t, depth);
            self.push(slot + 1, t, delay);
        }
        // Per-link occupancy and window throughput.
        self.last_link_bytes.resize(w.num_links(), 0);
        let secs = self.sample.as_secs_f64();
        for i in 0..w.num_links() {
            let slot = match self.link_slots.get(i) {
                Some(&slot) => slot,
                None => {
                    let slot = self.open(format!("link.{i}.backlog_bytes"));
                    self.open(format!("link.{i}.mbps"));
                    self.link_slots.push(slot);
                    slot
                }
            };
            let link = w.link(LinkId::from_raw(
                u32::try_from(i).expect("link id fits u32"),
            ));
            let backlog = link.backlog_bytes(t);
            let delta = link.bytes_total - self.last_link_bytes[i];
            self.last_link_bytes[i] = link.bytes_total;
            self.push(slot, t, backlog);
            let mbps = delta as f64 / secs / 1e6;
            self.push(slot + 1, t, mbps);
        }
        // Every touched metrics gauge (key order: deterministic).
        for (key, id, v) in w.metrics.gauges() {
            let g = id.index();
            if self.gauge_slots.len() <= g {
                self.gauge_slots.resize(g + 1, None);
            }
            let slot = match self.gauge_slots[g] {
                Some(slot) => slot,
                None => {
                    let slot = self.open(format!("gauge.{key}"));
                    self.gauge_slots[g] = Some(slot);
                    slot
                }
            };
            self.push(slot, t, v);
        }
        // Registered providers, in registration order.
        for p in 0..self.providers.len() {
            let v = (self.providers[p].f)(w);
            let slot = match self.providers[p].slot {
                Some(slot) => slot,
                None => {
                    let slot = self.open(self.providers[p].name.clone());
                    self.providers[p].slot = Some(slot);
                    slot
                }
            };
            self.push(slot, t, v);
        }
        self.ticks += 1;
        self.last_tick = Some(t);
    }

    /// Iterates series as `(name, points)`, in first-sample order. The
    /// points are change-only: each value holds until the next point,
    /// and the last one holds through [`Timeline::last_tick`].
    pub fn series(&self) -> impl Iterator<Item = (&str, &[(SimTime, f64)])> {
        self.series
            .iter()
            .map(|s| (s.name.as_str(), s.points.as_slice()))
    }

    /// Iterates the per-window latency histograms of windows where reads
    /// ended, as `(window_start, hist)`, in time order.
    pub fn windows(&self) -> impl Iterator<Item = (SimTime, &Hist)> {
        let sample_ns = self.sample.as_nanos();
        self.windows
            .iter()
            .map(move |(w, h)| (SimTime::from_nanos(w * sample_ns), h))
    }

    /// The whole-run read-latency histogram.
    pub fn run_hist(&self) -> &Hist {
        &self.run_hist
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_exact_below_32() {
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
        let mut prev = 0;
        for shift in 0..60 {
            let v = 3u64 << shift;
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of not monotone at {v}");
            prev = b;
            assert!(bucket_high(b) >= v, "representative below value at {v}");
            // relative error of the representative is bounded by 1/32
            assert!((bucket_high(b) - v) as f64 <= v as f64 / 16.0 + 1.0);
        }
    }

    #[test]
    fn extreme_values_fit() {
        let mut h = Hist::new();
        h.record_raw(0);
        h.record_raw(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record_raw(v);
        }
        // exact below 32; log-bucketed above with ≤ 1/32 relative error
        assert_eq!(h.quantile(0.001), 1);
        let p50 = h.quantile(0.5);
        assert!((468..=532).contains(&p50), "p50 {p50}");
        let p999 = h.quantile(0.999);
        assert!((999..=1030).contains(&p999), "p999 {p999}");
        assert!(h.max() >= 1000);
    }

    #[test]
    fn single_value_hist() {
        let mut h = Hist::new();
        h.record_raw(500);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), bucket_high(bucket_of(500)));
        }
    }

    /// The dense histogram the sparse one replaced: every bucket held,
    /// zero or not.
    struct DenseHist {
        counts: Vec<u64>,
        total: u64,
    }

    impl DenseHist {
        fn new() -> Self {
            DenseHist {
                counts: vec![0; BUCKETS],
                total: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.counts[bucket_of(v)] += 1;
            self.total += 1;
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
            let rank = rank.clamp(1, self.total);
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_high(i);
                }
            }
            bucket_high(BUCKETS - 1)
        }

        fn max(&self) -> u64 {
            self.counts
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, bucket_high)
        }
    }

    /// Latencies spread over many octaves, with repeats, so values share
    /// buckets as well as spanning them.
    fn latency() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..64,
            (0u64..2_000).prop_map(|v| v * 997),
            (0u32..64, 0u64..u64::MAX).prop_map(|(shift, v)| v >> shift),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sparse histogram answers every query exactly as the dense
        /// 1,920-bucket one, whatever order the values arrive in.
        #[test]
        fn sparse_hist_matches_dense(values in proptest::collection::vec(latency(), 0..200)) {
            let mut sparse = Hist::new();
            let mut dense = DenseHist::new();
            for &v in &values {
                sparse.record_raw(v);
                dense.record(v);
            }
            prop_assert_eq!(sparse.count(), dense.total);
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                prop_assert_eq!(sparse.quantile(q), dense.quantile(q));
            }
            prop_assert_eq!(sparse.max(), dense.max());
            let mut reversed = Hist::new();
            for &v in values.iter().rev() {
                reversed.record_raw(v);
            }
            prop_assert_eq!(&sparse, &reversed);
            let mut one_more = sparse.clone();
            one_more.record_raw(values.first().copied().unwrap_or(0));
            prop_assert!(sparse != one_more);
        }
    }

    #[test]
    fn observe_read_windows_by_completion_time() {
        let mut tl = Timeline::default();
        tl.enable(SimDuration::from_millis(10));
        let t0 = SimTime::ZERO;
        tl.observe_read(t0, t0 + SimDuration::from_millis(4)); // window 0
        tl.observe_read(t0, t0 + SimDuration::from_millis(25)); // window 2
        let wins: Vec<_> = tl
            .windows()
            .map(|(t, h)| (t.as_nanos(), h.count()))
            .collect();
        assert_eq!(wins, vec![(0, 1), (20_000_000, 1)]);
        assert_eq!(tl.run_hist().count(), 2);
    }

    #[test]
    fn late_read_lands_in_its_window_and_windows_stay_ordered() {
        let mut tl = Timeline::default();
        tl.enable(SimDuration::from_millis(10));
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        tl.observe_read(at(0), at(35)); // window 3
        tl.observe_read(at(0), at(12)); // window 1, before the last one
        tl.observe_read(at(0), at(38)); // window 3 again
        tl.observe_read(at(0), at(1)); // window 0, before every other
        tl.observe_read(at(0), at(15)); // window 1 again
        let wins: Vec<_> = tl
            .windows()
            .map(|(t, h)| (t.as_nanos() / 1_000_000, h.count(), h.max()))
            .collect();
        let high = |ms: u64| bucket_high(bucket_of(ms * 1_000_000));
        assert_eq!(
            wins,
            vec![(0, 1, high(1)), (10, 2, high(15)), (30, 2, high(38))]
        );
        assert_eq!(tl.run_hist().count(), 5);
    }

    #[test]
    fn series_store_changes_only() {
        let mut tl = Timeline::default();
        tl.enable(SimDuration::from_millis(10));
        let a = tl.open("a".to_owned());
        let b = tl.open("b".to_owned());
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        for (ms, va, vb) in [
            (10, 1.0, 0.0),
            (20, 1.0, -0.0),
            (30, 2.0, -0.0),
            (40, 2.0, 0.0),
        ] {
            tl.push(a, at(ms), va);
            tl.push(b, at(ms), vb);
        }
        let series: Vec<_> = tl.series().map(|(n, p)| (n, p.to_vec())).collect();
        assert_eq!(
            series,
            vec![
                ("a", vec![(at(10), 1.0), (at(30), 2.0)]),
                // 0.0 and -0.0 differ in bits, so each change is kept
                ("b", vec![(at(10), 0.0), (at(20), -0.0), (at(40), 0.0)]),
            ]
        );
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let mut tl = Timeline::default();
        tl.observe_read(SimTime::ZERO, SimTime::from_nanos(100));
        assert!(tl.run_hist().is_empty());
        assert_eq!(tl.windows().count(), 0);
        assert_eq!(tl.last_tick(), None);
    }
}
