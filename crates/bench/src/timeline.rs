//! Timeline reporting: fold the sim's telemetry timeline
//! ([`vread_sim::Timeline`]) into scenario reports (per-window
//! tail-latency quantiles among them) and Perfetto counter tracks.
//!
//! The sim layer records; this module summarizes. A scenario with a
//! `"timeline"` block gains a `timeline` report section containing the
//! per-window read-latency quantiles (p50/p99/p999), the whole-run
//! quantiles and slowest read, every sampled series (change-only
//! steps, closed at the last tick), and the detected **saturation
//! point** — the first window whose p99 exceeds
//! [`SATURATION_X`] times the baseline (the first non-empty window).
//! That is the paper's tail argument in one number: under rising
//! concurrency the vanilla path's p99 blows past the multiplier while
//! vRead's stays flat.
//!
//! Every quantile is [`Samples::quantile`](vread_sim::Samples::quantile)
//! over exact read latencies, the rule behind the benchmark's p50/p99,
//! and `max_ms` is the slowest read itself.
//!
//! Scenarios without the block produce no summary and serialize
//! byte-identically to before the timeline existed.

use std::fmt::Write as _;

use crate::json::{n, obj, s, write_escaped, Json};
use vread_sim::engine::World;
use vread_sim::time::SimTime;

/// Saturation multiplier: a window is saturated when its p99 exceeds
/// this factor times the baseline window's p99.
pub const SATURATION_X: f64 = 3.0;

/// One latency window of the run.
#[derive(Debug, Clone, Copy)]
pub struct TimelineWindow {
    /// Window start in simulated milliseconds.
    pub start_ms: u64,
    /// Reads completing in this window.
    pub reads: u64,
    /// Median read latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile read latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile read latency (ms).
    pub p999_ms: f64,
}

/// One sampled series as a step function of `(time_ms, value)` points.
#[derive(Debug, Clone)]
pub struct TimelineSeries {
    /// Series name (`sched.h1.runq`, `gauge.ring.h0.bytes`, …).
    pub name: String,
    /// Points in tick order, one per change of value: each value holds
    /// until the next point. The last point is at the run's last tick,
    /// so expanding the steps over the tick grid rebuilds every sample.
    pub points: Vec<(f64, f64)>,
}

/// The report-side rollup of a run's telemetry timeline.
#[derive(Debug, Clone)]
pub struct TimelineSummary {
    /// Sampling period (= latency-window length) in simulated ms.
    pub sample_ms: u64,
    /// Sampler ticks taken.
    pub ticks: u64,
    /// Reads observed over the whole run.
    pub reads: u64,
    /// Whole-run median read latency (ms).
    pub p50_ms: f64,
    /// Whole-run p99 read latency (ms).
    pub p99_ms: f64,
    /// Whole-run p999 read latency (ms).
    pub p999_ms: f64,
    /// Slowest read's latency (ms).
    pub max_ms: f64,
    /// Per-window latency rows, in time order.
    pub windows: Vec<TimelineWindow>,
    /// Every sampled series, in first-sample order, change-only.
    pub series: Vec<TimelineSeries>,
    /// Start of the first saturated window (p99 > [`SATURATION_X`] ×
    /// baseline p99), if any.
    pub saturation_ms: Option<u64>,
}

fn ns_ms(v: f64) -> f64 {
    v / 1e6
}

/// A change-only series in milliseconds, closed with one point at
/// `last_tick` (holding the last value) unless a change landed there.
fn closed_points(points: &[(SimTime, f64)], last_tick: Option<SimTime>) -> Vec<(f64, f64)> {
    let ms = |t: SimTime| t.as_nanos() as f64 / 1e6;
    let mut out: Vec<(f64, f64)> = points.iter().map(|&(t, v)| (ms(t), v)).collect();
    if let (Some(&(t, v)), Some(end)) = (points.last(), last_tick) {
        if t < end {
            out.push((ms(end), v));
        }
    }
    out
}

impl TimelineSummary {
    /// Collects the summary from a finished world's timeline.
    pub fn collect(w: &World) -> TimelineSummary {
        let tl = &w.timeline;
        let sample_ms = tl.sample_every().as_nanos() / 1_000_000;
        let windows: Vec<TimelineWindow> = tl
            .windows()
            .map(|(start, lat)| {
                let [p50, p99, p999] = lat.quantiles([0.5, 0.99, 0.999]);
                TimelineWindow {
                    start_ms: start.as_nanos() / 1_000_000,
                    reads: lat.count() as u64,
                    p50_ms: ns_ms(p50),
                    p99_ms: ns_ms(p99),
                    p999_ms: ns_ms(p999),
                }
            })
            .collect();
        // Saturation: baseline is the first window with any reads;
        // flag the first later window whose p99 exceeds the multiple.
        let baseline = windows.iter().find(|w| w.reads > 0).map(|w| w.p99_ms);
        let saturation_ms = baseline.and_then(|base| {
            windows
                .iter()
                .find(|w| w.reads > 0 && w.p99_ms > SATURATION_X * base)
                .map(|w| w.start_ms)
        });
        let run = tl.run_reads();
        let [p50, p99, p999, max] = run.quantiles([0.5, 0.99, 0.999, 1.0]);
        let series = tl
            .series()
            .map(|(name, pts)| TimelineSeries {
                name: name.to_owned(),
                points: closed_points(pts, tl.last_tick()),
            })
            .collect();
        TimelineSummary {
            sample_ms,
            ticks: tl.ticks(),
            reads: run.count() as u64,
            p50_ms: ns_ms(p50),
            p99_ms: ns_ms(p99),
            p999_ms: ns_ms(p999),
            max_ms: ns_ms(max),
            windows,
            series,
            saturation_ms,
        }
    }

    /// The report's `"timeline"` JSON block.
    pub fn to_json(&self) -> Json {
        let windows = Json::Arr(
            self.windows
                .iter()
                .map(|w| {
                    obj(vec![
                        ("start_ms", n(w.start_ms as f64)),
                        ("reads", n(w.reads as f64)),
                        ("p50_ms", n(w.p50_ms)),
                        ("p99_ms", n(w.p99_ms)),
                        ("p999_ms", n(w.p999_ms)),
                    ])
                })
                .collect(),
        );
        let series = Json::Arr(
            self.series
                .iter()
                .map(|sr| {
                    obj(vec![
                        ("name", s(&sr.name)),
                        (
                            "points",
                            Json::Arr(
                                sr.points
                                    .iter()
                                    .map(|&(t, v)| Json::Arr(vec![n(t), n(v)]))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("sample_ms", n(self.sample_ms as f64)),
            ("ticks", n(self.ticks as f64)),
            ("reads", n(self.reads as f64)),
            ("p50_ms", n(self.p50_ms)),
            ("p99_ms", n(self.p99_ms)),
            ("p999_ms", n(self.p999_ms)),
            ("max_ms", n(self.max_ms)),
            (
                "saturation_ms",
                match self.saturation_ms {
                    Some(at) => n(at as f64),
                    None => Json::Null,
                },
            ),
            ("windows", windows),
            ("series", series),
        ])
    }

    /// Splices Perfetto counter tracks (`"ph":"C"` events: one counter
    /// per sampled series, plus a `read.p99_ms` counter per window) into
    /// a Chrome trace produced by
    /// [`chrome_trace_json`](vread_sim::span::SpanReport::chrome_trace_json).
    /// Returns the trace unchanged when it isn't the expected shape.
    pub fn splice_into_chrome_trace(&self, trace: &str) -> String {
        const TAIL: &str = "],\"displayTimeUnit\":\"ms\"}";
        let Some(at) = trace.rfind(TAIL) else {
            return trace.to_owned();
        };
        let mut events = String::new();
        let mut sep = !trace[..at].ends_with('[');
        let push = |events: &mut String, sep: &mut bool, name: &str, ts_ms: f64, v: f64| {
            if *sep {
                events.push(',');
            }
            *sep = true;
            // Series names embed spec-supplied host names: escape them.
            events.push_str("{\"name\":");
            write_escaped(events, name);
            let _ = write!(
                events,
                ",\"cat\":\"timeline\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":0,\
                 \"args\":{{\"value\":{}}}}}",
                ts_ms * 1e3,
                v,
            );
        };
        for sr in &self.series {
            for &(t, v) in &sr.points {
                push(&mut events, &mut sep, &sr.name, t, v);
            }
        }
        for w in &self.windows {
            push(
                &mut events,
                &mut sep,
                "read.p99_ms",
                w.start_ms as f64,
                w.p99_ms,
            );
        }
        let mut out = String::with_capacity(trace.len() + events.len());
        out.push_str(&trace[..at]);
        out.push_str(&events);
        out.push_str(&trace[at..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(p99s: &[(u64, u64, f64)]) -> TimelineSummary {
        TimelineSummary {
            sample_ms: 10,
            ticks: 0,
            reads: p99s.iter().map(|&(_, r, _)| r).sum(),
            p50_ms: 1.0,
            p99_ms: 2.0,
            p999_ms: 3.0,
            max_ms: 4.0,
            windows: p99s
                .iter()
                .map(|&(start_ms, reads, p99_ms)| TimelineWindow {
                    start_ms,
                    reads,
                    p50_ms: p99_ms / 2.0,
                    p99_ms,
                    p999_ms: p99_ms,
                })
                .collect(),
            series: vec![TimelineSeries {
                name: "sched.h1.runq".to_owned(),
                points: vec![(0.0, 1.0), (10.0, 2.0)],
            }],
            saturation_ms: None,
        }
    }

    #[test]
    fn saturation_detects_first_exceeding_window() {
        // baseline p99 = 1.0 (first non-empty window); 3.5 > 3x
        let rows = [(0, 4, 1.0), (10, 4, 2.0), (20, 0, 99.0), (30, 4, 3.5)];
        let s = summary(&rows);
        let base = s.windows.iter().find(|w| w.reads > 0).unwrap().p99_ms;
        let sat = s
            .windows
            .iter()
            .find(|w| w.reads > 0 && w.p99_ms > SATURATION_X * base)
            .map(|w| w.start_ms);
        assert_eq!(sat, Some(30), "empty windows never count as saturated");
    }

    #[test]
    fn closed_points_hold_the_last_value_to_the_last_tick() {
        let ms = |v: u64| SimTime::from_nanos(v * 1_000_000);
        let pts = [(ms(10), 1.0), (ms(30), 2.0)];
        assert_eq!(
            closed_points(&pts, Some(ms(50))),
            vec![(10.0, 1.0), (30.0, 2.0), (50.0, 2.0)]
        );
        // a change at the last tick needs no closing point
        assert_eq!(
            closed_points(&pts, Some(ms(30))),
            vec![(10.0, 1.0), (30.0, 2.0)]
        );
        assert!(closed_points(&[], Some(ms(50))).is_empty());
    }

    #[test]
    fn json_is_stable() {
        let s = summary(&[(0, 4, 1.0), (10, 2, 1.5)]);
        let j = s.to_json().pretty();
        assert!(j.contains("\"sample_ms\": 10"));
        assert!(j.contains("\"saturation_ms\": null"));
        assert!(j.contains("sched.h1.runq"));
    }

    #[test]
    fn splice_keeps_trace_valid_shape() {
        let s = summary(&[(0, 4, 1.0)]);
        let empty = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";
        let spliced = s.splice_into_chrome_trace(empty);
        assert!(spliced.starts_with("{\"traceEvents\":[{\"name\":\"sched.h1.runq\""));
        assert!(spliced.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(
            !spliced.contains("[,"),
            "no leading comma after empty array"
        );

        let nonempty = "{\"traceEvents\":[{\"ph\":\"X\"}],\"displayTimeUnit\":\"ms\"}";
        let spliced = s.splice_into_chrome_trace(nonempty);
        assert!(spliced.contains("{\"ph\":\"X\"},{\"name\":\"sched.h1.runq\""));

        // unknown shape passes through untouched
        assert_eq!(s.splice_into_chrome_trace("{}"), "{}");
    }
}
