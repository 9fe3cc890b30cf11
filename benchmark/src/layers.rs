//! The traced run: each layer timed on its own through public calls,
//! plus the simulated per-layer counters (span cycles, copies and queue
//! wait, CPU by bucket, scheduler and link pressure, store and fault
//! counters). Runs in a child process of its own.
//!
//! Host times are scaled by the calibration workload like the
//! end-to-end ones (see [`crate::measure`]). Steps, each timed by the
//! shim with its inputs prepared untimed:
//! 1. `ScenarioSpec::from_json`;
//! 2. `Deployment::build` without files, then `populate_file` per file;
//! 3. arming the workloads, the background load and the faults;
//! 4. `run_jobs`, untraced and again with spans and the timeline on;
//! 5. `SpanSummary::collect`, `TimelineSummary::collect`,
//!    `HostCacheReport::collect` and `ScenarioReport::to_json`.

use std::collections::BTreeMap;

use vread_bench::json::{n, obj, Json};
use vread_bench::{
    collect_fault_report, Deployment, HostCacheReport, ScenarioReport, ScenarioSpec, SpanSummary,
    TimelineSummary,
};
use vread_host::cluster::Cluster;

use crate::checks::{check_copies, check_report, numbers, same_sim, SimKey, Tally};
use crate::layered::{self, Finished, Outcome};
use crate::measure::{calibrate, measure, Timed, WARMUP};
use crate::metrics::{CPU_BUCKETS, SPAN_LAYERS};
use crate::workloads::{generate, traced};

/// Timed samples per step (most steps rebuild a whole run as input).
const SAMPLES: usize = 3;

/// Builds, populates and arms `spec`, untimed.
fn armed(spec: &ScenarioSpec) -> Result<(Deployment, Vec<layered::Armed>), String> {
    let mut d = layered::build_topology(spec)?;
    layered::populate(&mut d, &spec.files)?;
    let a = layered::arm(spec, &mut d)?;
    Ok((d, a))
}

/// Runs the traced layer steps and returns the result object.
///
/// # Errors
///
/// An unknown workload or a scenario that does not parse; every later
/// failure is counted in the result instead.
pub fn run(workload: &str, seed: u64) -> Result<Json, String> {
    let g = generate(workload, seed).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let plain = ScenarioSpec::from_json(&g.json).map_err(|e| e.to_string())?;
    let traced_json = traced(&g.json)?;
    let spec_t = ScenarioSpec::from_json(&traced_json).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let (calibration, scale) = calibrate(SAMPLES);
    let mut times: Vec<(&str, Timed)> = Vec::new();

    times.push((
        "bench.spec.parse_ms",
        measure(
            "bench.spec.parse",
            SAMPLES,
            || g.json.clone(),
            |j| ScenarioSpec::from_json(&j),
            |r| tally.record(r.map(drop).map_err(|e| e.to_string())),
        ),
    ));
    times.push((
        "bench.deploy.topology_ms",
        measure(
            "bench.deploy.topology",
            SAMPLES,
            || (),
            |()| layered::build_topology(&plain),
            |r| tally.record(r.map(drop)),
        ),
    ));
    times.push((
        "hdfs.populate_ms",
        measure(
            "hdfs.populate",
            SAMPLES,
            || layered::build_topology(&plain),
            |d| {
                d.and_then(|mut d| {
                    layered::populate(&mut d, &plain.files)?;
                    Ok(d)
                })
            },
            |r| tally.record(r.map(drop)),
        ),
    ));
    times.push((
        "bench.arm_ms",
        measure(
            "bench.arm",
            SAMPLES,
            || {
                layered::build_topology(&plain).and_then(|mut d| {
                    layered::populate(&mut d, &plain.files)?;
                    Ok(d)
                })
            },
            |d| {
                d.and_then(|mut d| {
                    let a = layered::arm(&plain, &mut d)?;
                    Ok((d, a))
                })
            },
            |r| tally.record(r.map(drop)),
        ),
    ));

    let mut last_plain: Option<Finished> = None;
    let mut last_traced: Option<Finished> = None;
    for (name, metric, spec, last) in [
        (
            "sim.engine.drive",
            "sim.engine.drive_ms",
            &plain,
            &mut last_plain,
        ),
        (
            "sim.engine.traced_drive",
            "sim.engine.traced_drive_ms",
            &spec_t,
            &mut last_traced,
        ),
    ] {
        let t = measure(
            name,
            SAMPLES,
            || armed(spec),
            |r| {
                r.and_then(|(mut d, armed)| {
                    layered::drive(&mut d)?;
                    Ok(Finished { d, armed })
                })
            },
            |r| match r {
                Ok(f) => {
                    tally.record(Ok(()));
                    *last = Some(f);
                }
                Err(e) => tally.record(Err(e)),
            },
        );
        times.push((metric, t));
    }

    let mut spans: Option<SpanSummary> = None;
    times.push((
        "bench.spans.collect_ms",
        measure(
            "bench.spans.collect",
            SAMPLES,
            || layered::run_all(&spec_t),
            |r| {
                r.map(|mut f| {
                    let sp = SpanSummary::collect(&mut f.d.w);
                    (f, sp)
                })
            },
            |r| match r {
                Ok((_, sp)) => {
                    tally.record(Ok(()));
                    spans = Some(sp);
                }
                Err(e) => tally.record(Err(e)),
            },
        ),
    ));
    let mut timeline: Option<TimelineSummary> = None;
    times.push((
        "bench.timeline.collect_ms",
        measure(
            "bench.timeline.collect",
            SAMPLES,
            || layered::run_all(&spec_t),
            |r| {
                r.map(|f| {
                    let tl = TimelineSummary::collect(&f.d.w);
                    (f, tl)
                })
            },
            |r| match r {
                Ok((_, tl)) => {
                    tally.record(Ok(()));
                    timeline = Some(tl);
                }
                Err(e) => tally.record(Err(e)),
            },
        ),
    ));
    let mut cache: Option<HostCacheReport> = None;
    times.push((
        "bench.cache.collect_ms",
        measure(
            "bench.cache.collect",
            SAMPLES,
            || layered::run_all(&plain),
            |r| {
                r.and_then(|f| {
                    let hc =
                        f.d.w
                            .ext
                            .get::<Cluster>()
                            .map(HostCacheReport::collect)
                            .ok_or("no cluster installed")?;
                    Ok((f, hc))
                })
            },
            |r| match r {
                Ok((_, hc)) => {
                    tally.record(Ok(()));
                    cache = Some(hc);
                }
                Err(e) => tally.record(Err(e)),
            },
        ),
    ));
    let mut report: Option<ScenarioReport> = None;
    times.push((
        "bench.report.to_json_ms",
        measure(
            "bench.report.to_json",
            SAMPLES,
            || spec_t.run().map_err(|e| e.to_string()),
            |r| {
                r.map(|rep| {
                    let text = rep.to_json();
                    (rep, text)
                })
            },
            |r| match r {
                Ok((rep, _)) => {
                    tally.record(check_report(&rep, &g.expect, true));
                    report = Some(rep);
                }
                Err(e) => tally.record(Err(e)),
            },
        ),
    ));

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in &times {
        values.insert((*name).to_owned(), t.median_ms * scale);
    }
    // Most steps rebuild their input untimed (a whole traced run, for
    // the collectors). Count that work too, so a budgeted series of
    // traced runs lasts about as long as asked.
    let ms = |k: &str| values.get(k).copied().unwrap_or(0.0);
    let deployed = ms("bench.deploy.topology_ms") + ms("hdfs.populate_ms") + ms("bench.arm_ms");
    let input_ms = |step: &str| match step {
        "hdfs.populate_ms" => ms("bench.deploy.topology_ms"),
        "bench.arm_ms" => ms("bench.deploy.topology_ms") + ms("hdfs.populate_ms"),
        "sim.engine.drive_ms" | "sim.engine.traced_drive_ms" => deployed,
        "bench.cache.collect_ms" => deployed + ms("sim.engine.drive_ms"),
        "bench.spans.collect_ms" | "bench.timeline.collect_ms" | "bench.report.to_json_ms" => {
            deployed + ms("sim.engine.traced_drive_ms")
        }
        _ => 0.0,
    };
    let mut spent_s = calibration.spent_s;
    for (name, t) in &times {
        spent_s += t.spent_s + (t.samples + WARMUP) as f64 * input_ms(name) / scale / 1e3;
    }
    let (Some(fp), Some(ft), Some(sp), Some(tl), Some(hc), Some(rep)) =
        (last_plain, last_traced, spans, timeline, cache, report)
    else {
        tally.record(Err("a layer step produced no output".to_owned()));
        return Ok(result(&values, spent_s, &tally));
    };
    let op = layered::outcome(&fp.d, &fp.armed);
    let ot = layered::outcome(&ft.d, &ft.armed);
    let (op, ot) = match (op, ot) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            tally.record(Err(e));
            return Ok(result(&values, spent_s, &tally));
        }
    };
    let key = SimKey::of_outcome(&op);
    tally.record(same_sim(
        &SimKey::of_outcome(&ot),
        &key,
        "traced vs untraced drive",
    ));
    tally.record(same_sim(
        &SimKey::of_report(&rep),
        &key,
        "ScenarioSpec::run vs layered drive",
    ));
    let agg = sp.reads();
    tally.record(check_copies(
        agg.min_copies_per_read,
        agg.max_copies_per_read,
        &g.expect,
    ));
    tally.record(if sp.conserves_cycles() {
        Ok(())
    } else {
        Err("span cycles not conserved".to_owned())
    });

    simulated(&mut values, &fp, &ft, &op, &sp, &tl, &hc);
    Ok(result(&values, spent_s, &tally))
}

fn result(values: &BTreeMap<String, f64>, spent_s: f64, tally: &Tally) -> Json {
    let pairs: Vec<(String, f64)> = values.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut fields = vec![("metrics", numbers(&pairs)), ("spent_s", n(spent_s))];
    fields.extend(tally.to_fields());
    obj(fields)
}

/// The largest last-segment-matching series value of a timeline.
fn series_max(tl: &TimelineSummary, prefix: &str, suffix: &str) -> f64 {
    let mut max = 0.0f64;
    for sr in &tl.series {
        if sr.name.starts_with(prefix) && sr.name.ends_with(suffix) {
            for &(_, v) in &sr.points {
                max = max.max(v);
            }
        }
    }
    max
}

/// Fills in the simulated per-layer values.
fn simulated(
    values: &mut BTreeMap<String, f64>,
    plain: &Finished,
    traced: &Finished,
    outcome: &Outcome,
    spans: &SpanSummary,
    tl: &TimelineSummary,
    hc: &HostCacheReport,
) {
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_owned(), v);
    };
    let w = &plain.d.w;
    let mb = outcome.bytes as f64 / 1e6;
    let events = w.events_processed() as f64;
    put("sim.engine.events", events);
    put("sim.engine.events_per_mb", events / mb);
    let mut samples_total = 0usize;
    for k in w.metrics.sample_keys() {
        samples_total += w.metrics.samples(k).map_or(0, |s| s.count());
    }
    put("sim.metrics.samples_total", samples_total as f64);

    let layers = spans.report.layer_table();
    for l in SPAN_LAYERS {
        let row = layers.iter().find(|r| r.name == l);
        put(
            &format!("span.{l}.mcycles"),
            row.map_or(0.0, |r| r.cycles / 1e6),
        );
        put(
            &format!("span.{l}.q_wait_ms"),
            row.map_or(0.0, |r| r.queue_wait_ns as f64 / 1e6),
        );
    }
    let agg = spans.reads();
    put("span.copies_per_read", agg.copies_per_read());
    put("span.max_copies_per_read", agg.max_copies_per_read);

    for (stem, bucket) in CPU_BUCKETS {
        let ms = outcome
            .cpu_by_category_ms
            .iter()
            .find(|(b, _)| b == bucket)
            .map_or(0.0, |(_, ms)| *ms);
        put(&format!("cpu.{stem}_ms_per_mb"), ms / mb);
    }

    let now_ns = w.now().as_nanos() as f64;
    let mut busiest = 0.0f64;
    for t in 0..w.acct.len() {
        busiest = busiest.max(w.acct.busy_ns(t) as f64 / now_ns);
    }
    put("sched.busiest_thread_util", busiest);
    put("sched.max_runq", series_max(tl, "sched.", ".runq"));
    put(
        "sched.max_queued_delay_ms",
        series_max(tl, "sched.", ".delay_ms"),
    );
    let run_ms = traced.d.w.now().as_nanos() as f64 / 1e6;
    put(
        "timeline.saturation_ms",
        tl.saturation_ms.map_or(run_ms, |ms| ms as f64),
    );
    put(
        "net.max_link_backlog_kb",
        series_max(tl, "link.", ".backlog_bytes") / 1024.0,
    );

    let lookups = hc.hits + hc.misses;
    put(
        "host.store.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hc.hits as f64 / lookups as f64
        },
    );
    put("host.store.effective_capacity_x", hc.effective_capacity_x);

    let faults = collect_fault_report(w);
    put("core.fallback_reads", faults.fallback_reads as f64);
    put("core.read_retries", faults.path_retries as f64);
    put("hdfs.failovers", faults.failovers as f64);

    let rate = |kind: &str| {
        outcome
            .by_kind
            .get(kind)
            .map_or(0.0, |&(bytes, secs)| bytes as f64 / 1e6 / secs)
    };
    put("apps.dfsio.write_mbps", rate("dfsio-write"));
    put("apps.reader.read_mbps", rate("reader"));

    let drive = values.get("sim.engine.drive_ms").copied().unwrap_or(0.0);
    let traced_drive = values
        .get("sim.engine.traced_drive_ms")
        .copied()
        .unwrap_or(0.0);
    values.insert("sim.engine.ns_per_event".to_owned(), drive * 1e6 / events);
    values.insert(
        "sim.span.overhead_pct".to_owned(),
        (traced_drive / drive - 1.0) * 100.0,
    );
}
