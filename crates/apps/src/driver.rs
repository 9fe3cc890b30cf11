//! Experiment driving helpers.
//!
//! Scenarios with background load (lookbusy) never run out of events, so
//! harnesses can't just `run()` the world dry. The drive layer is
//! event-driven: workloads signal a [`JobHandle`] when they finish and
//! [`run_jobs`] advances the world until every registered job completes
//! (or a simulated-time cap fires), stopping exactly at the completing
//! event. Free-running background actors therefore accrue busy time up
//! to that event and no further.
//!
//! [`run_job`] is how a harness times one job: it registers the job,
//! starts the actor bound to it, drives with [`run_jobs`] and hands back
//! the finished job, whose elapsed time and progress totals the caller
//! reads from the job table. Only a launch of several jobs at different
//! delays (the scenario runner) calls [`run_jobs`] itself. A
//! fixed-window measurement (Figure 3's netperf rate) drives with
//! `World::run_until` instead, and unit tests that can run a world dry
//! use `World::run`.

use vread_sim::prelude::*;

/// Runs the world until every registered job completes, up to `cap` of
/// simulated time. Returns `true` if all jobs finished. The clock stops
/// exactly at the last completing event.
pub fn run_jobs(w: &mut World, cap: SimDuration) -> bool {
    w.run_jobs_for(cap)
}

/// Times one job: registers `label`, lets `make` add the actor bound to
/// the job (and anything it needs), sends that actor [`Start`] now and
/// drives with [`run_jobs`]. Returns the job once it has completed, or
/// `None` when `cap` fired first; its elapsed time and progress totals
/// are in `w.jobs`. Metrics are not reset.
pub fn run_job(
    w: &mut World,
    label: &str,
    cap: SimDuration,
    make: impl FnOnce(&mut World, JobHandle) -> ActorId,
) -> Option<JobHandle> {
    let job = w.register_job(label);
    let a = make(w, job);
    w.send_now(a, Start);
    run_jobs(w, cap).then_some(job)
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

    /// Starts a job, completes it after `ticks` 1 ms timer ticks, then
    /// keeps ticking forever (background-load shape).
    struct JobTicker {
        job: JobHandle,
        ticks: u32,
    }
    impl Actor for JobTicker {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() {
                ctx.job_started(self.job);
            }
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
    fn run_job_returns_elapsed_or_none_at_the_cap() {
        let mut w = World::new(1);
        let job = run_job(&mut w, "t", SimDuration::from_secs(1), |w, job| {
            w.add_actor("t", JobTicker { job, ticks: 7 })
        })
        .expect("the job finishes within the cap");
        assert_eq!(w.now(), SimTime::from_nanos(6_000_000));
        assert_eq!(w.jobs.elapsed(job), Some(SimDuration::from_millis(6)));
        let capped = run_job(&mut w, "t", SimDuration::from_millis(3), |w, job| {
            w.add_actor("t", JobTicker { job, ticks: 7 })
        });
        assert_eq!(capped, None, "the cap fires before the seventh tick");
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
