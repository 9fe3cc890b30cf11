//! Experiment driving helpers.
//!
//! Scenarios with background load (lookbusy) never run out of events, so
//! harnesses can't just `run()` the world dry. The drive layer is
//! event-driven: workloads signal a [`JobHandle`] when they finish and
//! [`run_jobs`] / [`run_jobs_settled`] advance the world until every
//! registered job completes (or a simulated-time cap fires).

use vread_sim::prelude::*;

/// Runs the world until every registered job completes, up to `cap` of
/// simulated time. Returns `true` if all jobs finished. The clock stops
/// exactly at the last completing event.
pub fn run_jobs(w: &mut World, cap: SimDuration) -> bool {
    w.run_jobs_for(cap)
}

/// Like [`run_jobs`], but advances the world in `align` slices and stops
/// on the first slice boundary where every job has completed — the exact
/// instant (and, crucially, the exact `run_until` call sequence) the
/// legacy slice-polling driver produced.
///
/// Completion detection is still event-driven — elapsed times come from
/// the job table's event-exact timestamps, so measurements carry no
/// polling-granularity error. The slicing only affects where
/// free-running background actors (lookbusy) stop accruing busy time and
/// where partial CPU charges materialize; both must match the polling
/// era for whole-world snapshots (reports, multi-pass experiment phase)
/// to stay byte-identical. Stepping straight to the completion event and
/// then settling is *not* equivalent: charging a running core in
/// different chunks changes f64 rounding of its remaining cycles, which
/// shifts work-end timers by nanoseconds and cascades under contention.
pub fn run_jobs_settled(w: &mut World, cap: SimDuration, align: SimDuration) -> bool {
    let deadline = w.now() + cap;
    while w.jobs.pending() > 0 {
        if w.now() >= deadline {
            return false;
        }
        let next = (w.now() + align).min(deadline);
        w.run_until(next);
    }
    true
}

/// Completes `job` after `delay` of simulated time — for
/// duration-bounded workloads (netperf measurement windows) that never
/// signal completion themselves.
pub fn complete_job_after(w: &mut World, job: JobHandle, delay: SimDuration) {
    struct Deadline {
        job: JobHandle,
    }
    impl Actor for Deadline {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() {
                ctx.job_completed(self.job);
            }
        }
    }
    let a = w.add_actor("job-deadline", Deadline { job });
    w.send_after(a, Start, delay);
}

/// Elapsed seconds between two timestamp samples recorded with
/// `metrics.sample("<k>_start_at_s" / "<k>_done_at_s", …)`.
pub fn elapsed_secs(w: &World, prefix: &str) -> f64 {
    let start = w.metrics.mean(&format!("{prefix}_start_at_s"));
    let done = w.metrics.mean(&format!("{prefix}_done_at_s"));
    (done - start).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ticker;
    struct Tick;
    impl Actor for Ticker {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() || msg.is::<Tick>() {
                ctx.metrics().incr("ticks");
                ctx.timer(Tick, SimDuration::from_millis(1));
            }
        }
    }

    /// Completes a job after `ticks` 1 ms timer ticks, then keeps
    /// ticking forever (background-load shape).
    struct JobTicker {
        job: JobHandle,
        ticks: u32,
    }
    impl Actor for JobTicker {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() || msg.is::<Tick>() {
                if self.ticks > 0 {
                    self.ticks -= 1;
                    if self.ticks == 0 {
                        ctx.job_completed(self.job);
                    }
                }
                ctx.timer(Tick, SimDuration::from_millis(1));
            }
        }
    }

    #[test]
    fn run_jobs_stops_at_completion_event() {
        let mut w = World::new(1);
        let job = w.register_job("t");
        let a = w.add_actor("t", JobTicker { job, ticks: 7 });
        w.send_now(a, Start);
        assert!(run_jobs(&mut w, SimDuration::from_secs(1)));
        assert_eq!(w.now(), SimTime::from_nanos(6_000_000));
    }

    #[test]
    fn run_jobs_settled_lands_on_the_legacy_polling_boundary() {
        // completion at 6 ms, 4 ms slices → the slice poller stopped at
        // 8 ms; the settled driver must land on the same instant.
        let mut w = World::new(1);
        let job = w.register_job("t");
        let a = w.add_actor("t", JobTicker { job, ticks: 7 });
        w.send_now(a, Start);
        assert!(run_jobs_settled(
            &mut w,
            SimDuration::from_secs(1),
            SimDuration::from_millis(4)
        ));
        assert_eq!(w.now(), SimTime::from_nanos(8_000_000));
    }

    #[test]
    fn complete_job_after_bounds_free_running_work() {
        let mut w = World::new(1);
        let a = w.add_actor("t", Ticker);
        w.send_now(a, Start);
        let job = w.register_job("window");
        complete_job_after(&mut w, job, SimDuration::from_millis(5));
        assert!(run_jobs(&mut w, SimDuration::from_secs(1)));
        assert_eq!(w.now(), SimTime::from_nanos(5_000_000));
    }
}
