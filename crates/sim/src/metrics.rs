//! Lightweight metrics: counters, gauges and sample distributions.
//!
//! Workload actors record observations (request delays, bytes moved,
//! fallbacks, failovers) under string keys; experiment harnesses read
//! them back after the run. Completion is not a metric: a job's start
//! and end instants live only in the job table ([`crate::job::Jobs`]),
//! and elapsed times are read from there.
//!
//! A sample set keeps every observation, so only series that something
//! reads are sampled: per-request delays (whose exact p50/p99 the
//! benchmark reports) and the few fault-recovery instants. Anything
//! that only needs a total, such as the bytes delivered inside a fault
//! window, is a counter.
//!
//! # Interning
//!
//! Every key is interned once into a dense id ([`CounterId`] /
//! [`SampleId`] / [`GaugeId`]); recording through an id is a plain `Vec`
//! index with no hashing or tree walk. The string-keyed API is a thin
//! resolve-then-record wrapper kept for tests and cold paths. Hot actors
//! hold a [`LazyCounter`] / [`LazySamples`] / [`LazyGauge`] that resolves
//! its key on first use and records through the cached id afterwards.
//!
//! [`Metrics::reset`] keeps registrations (ids stay valid across warm-up /
//! measurement phases) but clears values: a counter reads 0, and sample
//! and gauge keys that were never touched since the last reset are
//! invisible to the read-side API, matching the semantics of a registry
//! that only materializes keys on first write.

use std::cell::Cell;
use std::collections::BTreeMap;

/// A set of recorded samples with order statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), or 0.0 when empty: the sorted
    /// observation at index `round((n − 1) · q)`, rounding half away
    /// from zero. This is the workspace's one rank rule (not
    /// nearest-rank, which takes index `ceil(n · q) − 1`); the benchmark's
    /// p50/p99 and every timeline quantile use it.
    ///
    /// A single-sample set returns that sample for every `q`. Sets
    /// containing NaN sort by IEEE 754 total order (NaN above +inf)
    /// instead of panicking, so a poisoned series still renders its
    /// finite quantiles deterministically. Each call sorts a copy of the
    /// observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Median (`quantile(0.5)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile (`quantile(0.99)`).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Raw observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn clear(&mut self) {
        self.values.clear();
    }
}

/// Dense handle to an interned counter key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Dense handle to an interned sample key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleId(u32);

/// Dense handle to an interned gauge key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(u32);

impl GaugeId {
    /// Dense index: interned gauges number `0..n` in registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The world's metrics registry.
///
/// # Gauge visibility semantics
///
/// A gauge holds its *last written value* — unlike a counter it can go
/// down, and unlike a sample set it keeps no history (the timeline
/// sampler is what turns gauges into time series). A gauge that has not
/// been written since the last [`Metrics::reset`] is invisible to [`Metrics::gauges`] and reads
/// as 0.0, so reports stay byte-identical when an instrumented code path
/// never runs. `reset` clears gauge last-values along with the touched
/// bits — a gauge must not leak a pre-reset level (e.g. in-flight reads
/// from a warm-up phase) into the measurement phase.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counter_index: BTreeMap<String, CounterId>,
    counter_vals: Vec<f64>,
    sample_index: BTreeMap<String, SampleId>,
    sample_sets: Vec<Samples>,
    gauge_index: BTreeMap<String, GaugeId>,
    gauge_vals: Vec<f64>,
    gauge_touched: Vec<bool>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // -- interning -----------------------------------------------------------

    /// Interns a counter key (idempotent) and returns its dense id.
    pub fn register_counter(&mut self, key: &str) -> CounterId {
        if let Some(&id) = self.counter_index.get(key) {
            return id;
        }
        let id = CounterId(u32::try_from(self.counter_vals.len()).expect("counter id overflow"));
        self.counter_index.insert(key.to_owned(), id);
        self.counter_vals.push(0.0);
        id
    }

    /// Interns a sample key (idempotent) and returns its dense id.
    pub fn register_sample(&mut self, key: &str) -> SampleId {
        if let Some(&id) = self.sample_index.get(key) {
            return id;
        }
        let id = SampleId(u32::try_from(self.sample_sets.len()).expect("sample id overflow"));
        self.sample_index.insert(key.to_owned(), id);
        self.sample_sets.push(Samples::default());
        id
    }

    /// Interns a gauge key (idempotent) and returns its dense id.
    pub fn register_gauge(&mut self, key: &str) -> GaugeId {
        if let Some(&id) = self.gauge_index.get(key) {
            return id;
        }
        let id = GaugeId(u32::try_from(self.gauge_vals.len()).expect("gauge id overflow"));
        self.gauge_index.insert(key.to_owned(), id);
        self.gauge_vals.push(0.0);
        self.gauge_touched.push(false);
        id
    }

    // -- id-based hot path ---------------------------------------------------

    /// Adds `v` to an interned counter (O(1), no hashing).
    #[inline]
    pub fn add_to(&mut self, id: CounterId, v: f64) {
        self.counter_vals[id.0 as usize] += v;
    }

    /// Increments an interned counter by 1.
    #[inline]
    pub fn incr_to(&mut self, id: CounterId) {
        self.add_to(id, 1.0);
    }

    /// Records a raw observation under an interned sample key (O(1)).
    #[inline]
    pub fn record_to(&mut self, id: SampleId, v: f64) {
        self.sample_sets[id.0 as usize].record(v);
    }

    /// Sets an interned gauge to `v` (O(1), no hashing).
    #[inline]
    fn set_to(&mut self, id: GaugeId, v: f64) {
        self.gauge_vals[id.0 as usize] = v;
        self.gauge_touched[id.0 as usize] = true;
    }

    /// Adds `dv` (may be negative) to an interned gauge.
    #[inline]
    pub fn gauge_add_to(&mut self, id: GaugeId, dv: f64) {
        self.gauge_vals[id.0 as usize] += dv;
        self.gauge_touched[id.0 as usize] = true;
    }

    // -- string API (resolve-once wrapper) -----------------------------------

    /// Adds `v` to counter `key` (creating it at 0).
    pub fn add(&mut self, key: &str, v: f64) {
        let id = self.register_counter(key);
        self.add_to(id, v);
    }

    /// Increments counter `key` by 1.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1.0);
    }

    /// Current value of counter `key` (0 when absent).
    pub fn counter(&self, key: &str) -> f64 {
        self.counter_index
            .get(key)
            .map_or(0.0, |&id| self.counter_vals[id.0 as usize])
    }

    /// Records a raw sample under `key`.
    pub fn sample(&mut self, key: &str, v: f64) {
        let id = self.register_sample(key);
        self.record_to(id, v);
    }

    /// The sample set under `key`, if any samples were recorded.
    pub fn samples(&self, key: &str) -> Option<&Samples> {
        let set = &self.sample_sets[self.sample_index.get(key)?.0 as usize];
        if set.count() == 0 {
            None
        } else {
            Some(set)
        }
    }

    /// Mean of samples under `key` (0.0 when absent).
    pub fn mean(&self, key: &str) -> f64 {
        self.samples(key).map_or(0.0, Samples::mean)
    }

    /// Keys of samples recorded since the last reset (sorted).
    pub fn sample_keys(&self) -> impl Iterator<Item = &str> {
        self.sample_index
            .iter()
            .filter(|(_, id)| self.sample_sets[id.0 as usize].count() > 0)
            .map(|(k, _)| k.as_str())
    }

    /// `(key, id, value)` of gauges written since the last reset (sorted
    /// by key — the timeline sampler relies on this order being
    /// deterministic, and keys its series slots by id).
    pub fn gauges(&self) -> impl Iterator<Item = (&str, GaugeId, f64)> {
        self.gauge_index
            .iter()
            .filter(|(_, id)| self.gauge_touched[id.0 as usize])
            .map(|(k, &id)| (k.as_str(), id, self.gauge_vals[id.0 as usize]))
    }

    /// Clears all recorded values (used between warm-up and measurement
    /// phases). Interned ids stay valid; untouched keys disappear from the
    /// read-side API until written again. Gauge last-values are cleared
    /// too — a level gauge left over from warm-up (e.g. in-flight reads)
    /// must not be read as a measurement-phase level.
    pub fn reset(&mut self) {
        self.counter_vals.fill(0.0);
        for s in &mut self.sample_sets {
            s.clear();
        }
        self.gauge_vals.fill(0.0);
        self.gauge_touched.fill(false);
    }
}

/// A counter handle that resolves its key on first use.
///
/// Intended to live inside an actor: construct with the key, then record
/// through it with no per-event string lookup. Deliberately `!Sync` (the
/// cached id is only meaningful for the `Metrics` it was resolved
/// against, i.e. one world).
#[derive(Debug)]
pub struct LazyCounter {
    key: &'static str,
    id: Cell<Option<CounterId>>,
}

impl LazyCounter {
    /// Creates an unresolved handle for `key`.
    pub const fn new(key: &'static str) -> Self {
        LazyCounter {
            key,
            id: Cell::new(None),
        }
    }

    #[inline]
    fn id(&self, m: &mut Metrics) -> CounterId {
        match self.id.get() {
            Some(id) => id,
            None => {
                let id = m.register_counter(self.key);
                self.id.set(Some(id));
                id
            }
        }
    }

    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, m: &mut Metrics, v: f64) {
        let id = self.id(m);
        m.add_to(id, v);
    }

    /// Increments the counter by 1.
    #[inline]
    pub fn incr(&self, m: &mut Metrics) {
        self.add(m, 1.0);
    }
}

/// A sample-set handle that resolves its key on first use.
///
/// See [`LazyCounter`] for the usage pattern.
#[derive(Debug)]
pub struct LazySamples {
    key: &'static str,
    id: Cell<Option<SampleId>>,
}

impl LazySamples {
    /// Creates an unresolved handle for `key`.
    pub const fn new(key: &'static str) -> Self {
        LazySamples {
            key,
            id: Cell::new(None),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, m: &mut Metrics, v: f64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = m.register_sample(self.key);
                self.id.set(Some(id));
                id
            }
        };
        m.record_to(id, v);
    }
}

/// A gauge handle that resolves its key on first use.
///
/// See [`LazyCounter`] for the usage pattern and the [`Metrics`] docs
/// for gauge visibility semantics.
#[derive(Debug)]
pub struct LazyGauge {
    key: &'static str,
    id: Cell<Option<GaugeId>>,
}

impl LazyGauge {
    /// Creates an unresolved handle for `key`.
    pub const fn new(key: &'static str) -> Self {
        LazyGauge {
            key,
            id: Cell::new(None),
        }
    }

    #[inline]
    fn id(&self, m: &mut Metrics) -> GaugeId {
        match self.id.get() {
            Some(id) => id,
            None => {
                let id = m.register_gauge(self.key);
                self.id.set(Some(id));
                id
            }
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, m: &mut Metrics, v: f64) {
        let id = self.id(m);
        m.set_to(id, v);
    }

    /// Adds `dv` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, m: &mut Metrics, dv: f64) {
        let id = self.id(m);
        m.gauge_add_to(id, dv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("ops");
        m.add("ops", 4.0);
        assert_eq!(m.counter("ops"), 5.0);
        assert_eq!(m.counter("absent"), 0.0);
    }

    #[test]
    fn samples_stats() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn quantile_sees_new_samples() {
        let mut s = Samples::default();
        s.record(1.0);
        assert_eq!(s.quantile(1.0), 1.0);
        s.record(5.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.0), 1.0);
        // unsorted insertion order is preserved for values()
        s.record(3.0);
        assert_eq!(s.values(), &[1.0, 5.0, 3.0]);
        assert_eq!(s.quantile(0.5), 3.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn interned_ids_match_string_api() {
        let mut m = Metrics::new();
        let c = m.register_counter("ops");
        let s = m.register_sample("lat");
        m.incr_to(c);
        m.add("ops", 2.0); // string API hits the same slot
        m.record_to(s, 7.0);
        assert_eq!(m.counter("ops"), 3.0);
        assert_eq!(m.samples("lat").unwrap().values(), &[7.0]);
        assert_eq!(m.register_counter("ops"), c, "interning is idempotent");
    }

    #[test]
    fn reset_keeps_ids_but_hides_untouched_keys() {
        let mut m = Metrics::new();
        let c = m.register_counter("ops");
        m.incr_to(c);
        m.sample("lat", 1.0);
        assert_eq!(m.sample_keys().collect::<Vec<_>>(), vec!["lat"]);
        m.reset();
        assert_eq!(m.counter("ops"), 0.0);
        assert_eq!(m.sample_keys().count(), 0, "untouched keys hidden");
        assert!(m.samples("lat").is_none(), "empty sample set reads absent");
        m.incr_to(c); // id survives the reset
        assert_eq!(m.counter("ops"), 1.0);
    }

    #[test]
    fn single_sample_serves_every_quantile() {
        let mut s = Samples::default();
        s.record(7.5);
        assert_eq!(s.quantile(0.0), 7.5);
        assert_eq!(s.p50(), 7.5);
        assert_eq!(s.p99(), 7.5);
        assert_eq!(s.quantile(1.0), 7.5);
    }

    #[test]
    fn p999_picks_the_tail() {
        let mut s = Samples::default();
        for i in 0..1000 {
            s.record(f64::from(i));
        }
        assert_eq!(s.p50(), 500.0); // round(999 · 0.5) = round(499.5) = 500
        assert_eq!(s.p99(), 989.0);
        assert_eq!(s.quantile(0.999), 998.0);
    }

    #[test]
    fn nan_samples_sort_last_not_panic() {
        let mut s = Samples::default();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(3.0);
        // total_cmp puts NaN above +inf: finite quantiles stay usable.
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.p50(), 3.0);
        assert!(s.quantile(1.0).is_nan());
    }

    #[test]
    fn gauges_hold_last_value_and_reset() {
        let mut m = Metrics::new();
        let g = m.register_gauge("inflight");
        assert_eq!(m.gauges().count(), 0, "registered-but-unwritten hidden");
        m.set_to(g, 4.0); // the id hits the string key's slot
        m.gauge_add_to(g, -1.0);
        m.gauge_add_to(g, -1.0);
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("inflight", g, 2.0)]);
        m.reset();
        assert_eq!(m.gauges().count(), 0, "untouched gauges hidden");
        m.gauge_add_to(g, 1.0);
        assert_eq!(
            m.gauges().collect::<Vec<_>>(),
            vec![("inflight", g, 1.0)],
            "last-value cleared by reset"
        );
        m.set_to(g, 9.0); // id survives the reset
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("inflight", g, 9.0)]);
    }

    #[test]
    fn lazy_gauge_resolves_once() {
        let mut m = Metrics::new();
        let g = LazyGauge::new("ring_bytes");
        g.add(&mut m, 4096.0);
        g.add(&mut m, -4096.0);
        g.set(&mut m, 512.0);
        let id = m.register_gauge("ring_bytes");
        assert_eq!(
            m.gauges().collect::<Vec<_>>(),
            vec![("ring_bytes", id, 512.0)]
        );
    }

    #[test]
    fn lazy_handles_resolve_once() {
        let mut m = Metrics::new();
        let c = LazyCounter::new("hot_ops");
        let s = LazySamples::new("hot_lat");
        for _ in 0..3 {
            c.incr(&mut m);
            s.record(&mut m, 2.0);
        }
        c.add(&mut m, 4.0);
        s.record(&mut m, 0.5);
        assert_eq!(m.counter("hot_ops"), 7.0);
        assert_eq!(m.samples("hot_lat").unwrap().count(), 4);
        assert!((m.samples("hot_lat").unwrap().values()[3] - 0.5).abs() < 1e-9);
    }
}
