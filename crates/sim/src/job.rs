//! Event-driven job completion — the drive layer's primitive.
//!
//! A *job* is a unit of harness-visible work (a DFSIO run, a reader
//! pass, one netperf measurement window). The harness registers a job
//! up front ([`crate::engine::World::register_job`]), hands the returned
//! [`JobHandle`] to the workload actor, and the actor signals lifecycle
//! points through its [`crate::engine::Ctx`] (`job_started`,
//! `job_progress`, `job_completed`). The engine then runs *until the
//! completion event itself* via
//! [`crate::engine::World::run_jobs_for`] — no time-slice polling, so
//! elapsed-time measurements carry no polling-granularity error and the
//! stop instant is exactly the completing event's timestamp.
//!
//! Handles are plain indices into a table owned by the `World`; jobs are
//! never deregistered, so a handle stays valid for the life of its
//! world.

use crate::time::{SimDuration, SimTime};

/// Completion token for one registered job. `Copy`, cheap to thread
/// through actors; signals go through [`crate::engine::Ctx`] helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobHandle(u32);

impl JobHandle {
    /// The slot index inside the world's job table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct JobSlot {
    label: String,
    started_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    bytes: u64,
    ops: u64,
}

/// The world's job table: per-job start/completion timestamps and
/// progress totals, plus the count of still-pending jobs the engine's
/// job-driven run loop waits on.
#[derive(Debug, Default)]
pub struct Jobs {
    slots: Vec<JobSlot>,
    pending: usize,
}

impl Jobs {
    /// Registers a new pending job; `label` is for diagnostics.
    pub fn register(&mut self, label: &str) -> JobHandle {
        let ix = u32::try_from(self.slots.len()).expect("job table overflow");
        self.slots.push(JobSlot {
            label: label.to_owned(),
            started_at: None,
            completed_at: None,
            bytes: 0,
            ops: 0,
        });
        self.pending += 1;
        JobHandle(ix)
    }

    /// Number of registered-but-not-yet-completed jobs.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of registered jobs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no job has been registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Marks the job started at `now` (first call wins).
    pub fn start(&mut self, h: JobHandle, now: SimTime) {
        let s = &mut self.slots[h.index()];
        if s.started_at.is_none() {
            s.started_at = Some(now);
        }
    }

    /// Marks the job completed at `now` (idempotent; the first call
    /// decrements the pending count).
    pub fn complete(&mut self, h: JobHandle, now: SimTime) {
        let s = &mut self.slots[h.index()];
        if s.completed_at.is_none() {
            s.completed_at = Some(now);
            self.pending -= 1;
        }
    }

    /// Adds `bytes` / `ops` to the job's progress totals.
    pub fn progress(&mut self, h: JobHandle, bytes: u64, ops: u64) {
        let s = &mut self.slots[h.index()];
        s.bytes += bytes;
        s.ops += ops;
    }

    /// Diagnostic label given at registration.
    pub fn label(&self, h: JobHandle) -> &str {
        &self.slots[h.index()].label
    }

    /// When the job signalled its start, if it has.
    pub fn started_at(&self, h: JobHandle) -> Option<SimTime> {
        self.slots[h.index()].started_at
    }

    /// When the job completed, if it has.
    pub fn completed_at(&self, h: JobHandle) -> Option<SimTime> {
        self.slots[h.index()].completed_at
    }

    /// Bytes of payload the job reported via progress signals.
    pub fn bytes(&self, h: JobHandle) -> u64 {
        self.slots[h.index()].bytes
    }

    /// Operations (requests, transactions) the job reported.
    pub fn ops(&self, h: JobHandle) -> u64 {
        self.slots[h.index()].ops
    }

    /// Start-to-completion duration, once both ends are recorded.
    pub fn elapsed(&self, h: JobHandle) -> Option<SimDuration> {
        let s = &self.slots[h.index()];
        match (s.started_at, s.completed_at) {
            (Some(a), Some(b)) => Some(b.since(a)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Actor, Ctx, World};
    use crate::msg::{BoxMsg, Start};

    /// Ticks forever on a 1 ms timer; completes its job after `left`
    /// ticks (if it has one) but keeps ticking — like a scenario whose
    /// background load never drains the event queue.
    struct Ticker {
        job: Option<JobHandle>,
        left: u32,
    }
    struct Tick;
    impl Actor for Ticker {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() {
                if let Some(j) = self.job {
                    ctx.job_started(j);
                }
            }
            if msg.is::<Start>() || msg.is::<Tick>() {
                if self.left > 0 {
                    self.left -= 1;
                    if self.left == 0 {
                        if let Some(j) = self.job {
                            ctx.job_progress(j, 64, 1);
                            ctx.job_completed(j);
                        }
                    }
                }
                ctx.timer(Tick, SimDuration::from_millis(1));
            }
        }
    }

    #[test]
    fn run_jobs_for_stops_exactly_at_completion() {
        let mut w = World::new(1);
        let job = w.register_job("ticker");
        let a = w.add_actor(
            "t",
            Ticker {
                job: Some(job),
                left: 6,
            },
        );
        w.send_now(a, Start);
        assert!(w.run_jobs_for(SimDuration::from_secs(1)));
        // completion fires on the 6th event: Start at 0 ms then ticks at
        // 1..5 ms — the clock stops at the completing event, not at the
        // end of any polling slice, even though ticks keep queueing.
        assert_eq!(w.now(), SimTime::from_nanos(5_000_000));
        assert_eq!(w.jobs.completed_at(job), Some(w.now()));
        assert_eq!(w.jobs.bytes(job), 64);
        assert_eq!(w.jobs.ops(job), 1);
        assert_eq!(w.jobs.elapsed(job), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn run_jobs_for_caps_out_at_deadline() {
        let mut w = World::new(1);
        let job = w.register_job("never");
        let a = w.add_actor("t", Ticker { job: None, left: 0 });
        w.send_now(a, Start);
        assert!(!w.run_jobs_for(SimDuration::from_millis(10)));
        assert_eq!(w.now(), SimTime::from_nanos(10_000_000));
        assert!(w.jobs.completed_at(job).is_none());
    }

    #[test]
    fn run_jobs_for_waits_on_every_registered_job() {
        let mut w = World::new(1);
        let j1 = w.register_job("fast");
        let j2 = w.register_job("slow");
        let a = w.add_actor(
            "fast",
            Ticker {
                job: Some(j1),
                left: 2,
            },
        );
        let b = w.add_actor(
            "slow",
            Ticker {
                job: Some(j2),
                left: 9,
            },
        );
        w.send_now(a, Start);
        w.send_now(b, Start);
        assert!(w.run_jobs_for(SimDuration::from_secs(1)));
        assert_eq!(
            w.now(),
            SimTime::from_nanos(8_000_000),
            "stops at the last job"
        );
        assert!(w.jobs.completed_at(j1).is_some() && w.jobs.completed_at(j2).is_some());
    }

    #[test]
    fn lifecycle_and_pending_count() {
        let mut jobs = Jobs::default();
        let a = jobs.register("a");
        let b = jobs.register("b");
        assert_eq!(jobs.pending(), 2);
        assert_eq!(jobs.label(a), "a");

        jobs.start(a, SimTime::from_nanos(10));
        jobs.start(a, SimTime::from_nanos(99)); // first call wins
        assert_eq!(jobs.started_at(a), Some(SimTime::from_nanos(10)));

        jobs.progress(a, 100, 1);
        jobs.progress(a, 50, 2);
        assert_eq!(jobs.bytes(a), 150);
        assert_eq!(jobs.ops(a), 3);

        jobs.complete(a, SimTime::from_nanos(30));
        jobs.complete(a, SimTime::from_nanos(77)); // idempotent
        assert_eq!(jobs.pending(), 1);
        assert_eq!(jobs.completed_at(a), Some(SimTime::from_nanos(30)));
        assert_eq!(jobs.elapsed(a), Some(SimDuration::from_nanos(20)));
        assert!(jobs.completed_at(b).is_none());

        jobs.complete(b, SimTime::from_nanos(40));
        assert_eq!(jobs.pending(), 0);
        assert_eq!(jobs.elapsed(b), None, "b never signalled a start");
    }
}
