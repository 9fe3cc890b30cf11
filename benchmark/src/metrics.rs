//! The metric catalog: every metric's name, unit and direction.
//! `BENCHMARK.json` repeats it with the regression bounds, and a test
//! keeps the two in step.

/// One metric's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed and stored.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which way is better.
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// End-to-end metrics, every one reported for every workload. Host
/// times are measured with tracing off except `traced_wall_ms`, the cost
/// of the span + timeline path; `sim_*` values are simulated and repeat
/// exactly for a seed.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("wall_ms", "ms", "lower"),
        m("traced_wall_ms", "ms", "lower"),
        m("setup_s", "s", "lower"),
        m("peak_rss_mb", "MB", "lower"),
        m("sim_throughput_mbps", "MB/s", "higher"),
        m("sim_read_p50_ms", "ms", "lower"),
        m("sim_read_p99_ms", "ms", "lower"),
        m("sim_cpu_ms_per_mb", "ms/MB", "lower"),
    ]
}

/// Span layers whose cycles and queue wait are reported per layer.
pub const SPAN_LAYERS: [&str; 5] = ["read", "block_fetch", "dn_read", "vfd_read", "vread_open"];

/// CPU figure buckets (the paper's legend) by metric-name stem.
pub const CPU_BUCKETS: [(&str, &str); 9] = [
    ("client_app", "client-application"),
    ("copy_virtio", "data copy(virtio-vqueue)"),
    ("copy_vread", "data copy(vRead-buffer)"),
    ("vhost_net", "vhost-net"),
    ("loop_device", "loop device"),
    ("disk_read", "disk read"),
    ("rdma", "rdma"),
    ("vread_net", "vRead-net"),
    ("others", "others"),
];

/// Per-layer metrics from the traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("bench.spec.parse_ms", "ms", "lower"),
        m("bench.deploy.topology_ms", "ms", "lower"),
        m("hdfs.populate_ms", "ms", "lower"),
        m("bench.arm_ms", "ms", "lower"),
        m("sim.engine.drive_ms", "ms", "lower"),
        m("sim.engine.events", "count", "lower"),
        m("sim.engine.events_per_mb", "1/MB", "lower"),
        m("sim.engine.ns_per_event", "ns", "lower"),
        m("sim.metrics.samples_total", "count", "lower"),
        m("sim.engine.traced_drive_ms", "ms", "lower"),
        m("sim.span.overhead_pct", "%", "lower"),
        m("bench.spans.collect_ms", "ms", "lower"),
        m("bench.timeline.collect_ms", "ms", "lower"),
        m("bench.cache.collect_ms", "ms", "lower"),
        m("bench.report.to_json_ms", "ms", "lower"),
    ];
    for l in SPAN_LAYERS {
        v.push(m(format!("span.{l}.mcycles"), "Mcycles", "lower"));
    }
    for l in SPAN_LAYERS {
        v.push(m(format!("span.{l}.q_wait_ms"), "ms", "lower"));
    }
    v.push(m("span.copies_per_read", "copies", "lower"));
    v.push(m("span.max_copies_per_read", "copies", "lower"));
    for (stem, _) in CPU_BUCKETS {
        v.push(m(format!("cpu.{stem}_ms_per_mb"), "ms/MB", "lower"));
    }
    v.extend([
        m("sched.busiest_thread_util", "ratio", "lower"),
        m("sched.max_runq", "count", "lower"),
        m("sched.max_queued_delay_ms", "ms", "lower"),
        m("timeline.saturation_ms", "ms", "higher"),
        m("net.max_link_backlog_kb", "KB", "lower"),
        m("host.store.hit_ratio", "ratio", "higher"),
        m("host.store.effective_capacity_x", "x", "higher"),
        m("core.fallback_reads", "count", "lower"),
        m("core.read_retries", "count", "lower"),
        m("hdfs.failovers", "count", "lower"),
        m("apps.dfsio.write_mbps", "MB/s", "higher"),
        m("apps.reader.read_mbps", "MB/s", "higher"),
    ]);
    v
}
