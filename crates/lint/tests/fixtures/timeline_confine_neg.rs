// Fixture: sanctioned telemetry paths — gauges register a provider,
// latencies flow through observe_read, and unrelated pushes stay quiet.
fn observe_properly(w: &mut World, start: SimTime, end: SimTime) {
    w.timeline
        .register_provider("sched.h1.runq", Box::new(|w| w.sched.runq_depth(0) as f64));
    w.timeline.observe_read(start, end);
}

fn not_the_sink(rows: &mut Vec<u64>, stats: &mut Stats) {
    // A plain collection push and a sample record — neither is a
    // series point, so neither is confined.
    rows.push(7);
    stats.record(7);
    stats.set_gauge("ring.h0.bytes", 1.0);
}
