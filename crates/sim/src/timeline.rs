//! Deterministic time-series telemetry: sampled gauges and per-window
//! read latencies.
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
//! # Latency windows are [`Samples`]
//!
//! Each window keeps its reads' exact latencies (ns, as `f64`: exact
//! below 2^53) in a [`Samples`], the same structure and rank rule that
//! give the benchmark's `reader_delay_ms` p50/p99. So the timeline's
//! quantiles are real read latencies, and its slowest read is the
//! longest root `read` span to the nanosecond. A read costs 8 bytes in
//! its window and 8 in the whole-run set; windows are kept only where
//! reads ended, and tracing runs end a few thousand reads at most.
//! [`Samples::quantile`] sorts by total order, so the quantiles depend
//! only on the multiset of latencies, never on arrival order.
//!
//! # Mutation discipline
//!
//! Raw series mutation (`Timeline::push`) is confined to this module
//! (enforced by the `timeline-confine` vread-lint rule), and the latency
//! sets are private and handed out only as `&Samples`.
//! Components feed the timeline indirectly: level gauges go through
//! [`Metrics`](crate::metrics::Metrics) gauges (sampled on every tick),
//! richer sources register a provider closure, and read completions call
//! the [`Timeline::observe_read`] charge wrapper.

use std::fmt;

use crate::engine::World;
use crate::ids::{HostId, LinkId};
use crate::metrics::Samples;
use crate::time::{SimDuration, SimTime};

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
    /// Per-window read latencies in ns as `(window index, latencies)`
    /// (`end_of_read / sample`), sorted by window. Reads end in time
    /// order, so a new window is almost always appended.
    windows: Vec<(u64, Samples)>,
    /// Whole-run read latencies in ns.
    run_reads: Samples,
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
    /// window containing `end` and into the whole-run set. No-op while
    /// disabled.
    pub fn observe_read(&mut self, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        let lat = end.since(start).as_nanos() as f64;
        let win = end.as_nanos() / self.sample.as_nanos();
        // Reads end in time order, so this is almost always the last
        // window or one past it; an earlier window still lands in place.
        let i = self.windows.partition_point(|&(w, _)| w < win);
        if self.windows.get(i).is_none_or(|&(w, _)| w != win) {
            self.windows.insert(i, (win, Samples::default()));
        }
        self.windows[i].1.record(lat);
        self.run_reads.record(lat);
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

    /// Iterates the read latencies (ns) of windows where reads ended,
    /// as `(window_start, latencies)`, in time order.
    pub fn windows(&self) -> impl Iterator<Item = (SimTime, &Samples)> {
        let sample_ns = self.sample.as_nanos();
        self.windows
            .iter()
            .map(move |(w, s)| (SimTime::from_nanos(w * sample_ns), s))
    }

    /// Every observed read latency (ns) of the run.
    pub fn run_reads(&self) -> &Samples {
        &self.run_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_read_windows_by_completion_time() {
        let mut tl = Timeline::default();
        tl.enable(SimDuration::from_millis(10));
        let t0 = SimTime::ZERO;
        tl.observe_read(t0, t0 + SimDuration::from_millis(4)); // window 0
        tl.observe_read(t0, t0 + SimDuration::from_millis(25)); // window 2
        let wins: Vec<_> = tl
            .windows()
            .map(|(t, s)| (t.as_nanos(), s.count()))
            .collect();
        assert_eq!(wins, vec![(0, 1), (20_000_000, 1)]);
        assert_eq!(tl.run_reads().count(), 2);
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
            .map(|(t, s)| (t.as_nanos() / 1_000_000, s.count(), s.quantile(1.0)))
            .collect();
        assert_eq!(wins, vec![(0, 1, 1e6), (10, 2, 15e6), (30, 2, 38e6)]);
        let run = tl.run_reads();
        assert_eq!((run.count(), run.quantile(1.0)), (5, 38e6));
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
        assert_eq!(tl.run_reads().count(), 0);
        assert_eq!(tl.windows().count(), 0);
        assert_eq!(tl.last_tick(), None);
    }
}
