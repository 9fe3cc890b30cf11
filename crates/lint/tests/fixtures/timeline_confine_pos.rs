// Fixture: raw series pushes outside the timeline module.
fn leak_points(w: &mut World, now: SimTime) {
    w.timeline.push("sched.h1.runq", now, 3.0); //~ timeline-confine
    Timeline::push(&mut w.timeline, "link.0.mbps", now, 1.0); //~ timeline-confine
}
