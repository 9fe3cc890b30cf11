//! Experiment driving helpers.
//!
//! Scenarios with background load (lookbusy) never run out of events, so
//! harnesses can't just `run()` the world dry. The drive layer is
//! event-driven: workloads signal a [`JobHandle`] when they finish and
//! [`run_jobs`] — the one driver every experiment, scenario and test
//! uses — advances the world until every registered job completes (or a
//! simulated-time cap fires), stopping exactly at the completing event.
//! Free-running background actors therefore accrue busy time up to that
//! event and no further.

use vread_sim::prelude::*;

/// Runs the world until every registered job completes, up to `cap` of
/// simulated time. Returns `true` if all jobs finished. The clock stops
/// exactly at the last completing event.
pub fn run_jobs(w: &mut World, cap: SimDuration) -> bool {
    w.run_jobs_for(cap)
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
