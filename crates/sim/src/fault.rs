//! Deterministic fault injection: a clock-driven scheduler that fires
//! pre-planned fault actions against the running world.
//!
//! The paper's reliability argument (§3.5) is that vRead *degrades rather
//! than breaks*: a dead daemon or a stalled transport makes reads fall
//! back to the vanilla path, and recovery re-establishes the fast path.
//! Exercising that requires injecting failures at exact simulated
//! instants, repeatably. This module provides the substrate:
//!
//! * [`FaultAction`] — one fault, applied against the world. Actions are
//!   defined next to the subsystem they break (`vread-net` degrades
//!   links, `vread-core` crashes daemons, …); the two actions here
//!   ([`StallThread`], [`SlowDisk`]) only touch engine-level resources.
//! * [`FaultScheduler`] — an actor that owns the planned actions and
//!   fires each at its timestamp via ordinary timers, so fault runs obey
//!   the same deterministic event order as everything else.
//! * [`FaultTrace`] — an extension-blackboard marker present only in
//!   fault runs. Data-path actors consult it to decide whether to record
//!   degradation metrics, which keeps no-fault runs bit-identical to a
//!   build without this module.
//!
//! An action may return a follow-up (e.g. *restore bandwidth after the
//! flap window*), which the scheduler re-arms relative to the fire time —
//! transient faults are therefore a single plan entry.

use crate::cpu::CpuCategory;
use crate::engine::{Actor, Ctx, World};
use crate::ids::{ActorId, BlockDevId, ThreadId};
use crate::msg::{downcast, BoxMsg};
use crate::time::{SimDuration, SimTime};

/// One injectable fault. Implementations mutate the world (remove an
/// actor, degrade a resource, drop a cache …) when applied.
pub trait FaultAction: 'static {
    /// Short stable label for metrics/trace output (e.g. `"daemon-crash"`).
    fn label(&self) -> &'static str;

    /// Applies the fault at the current simulated time. Returning
    /// `Some((delay, action))` schedules `action` to fire `delay` later
    /// (typically the matching *restore*).
    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)>;
}

/// Marker (plus observation window) present in `World::ext` only when a
/// fault plan is armed. Data-path code gates degradation metrics on it
/// so that no-fault runs stay byte-identical; the DFS client counts the
/// bytes it delivers while [`FaultTrace::contains`] holds.
///
/// Whoever inserts the marker last owns the window, and data-path code
/// reads it *while the run goes*, so the final window must be in place
/// before the run starts. [`schedule_faults`] installs the plan's fire
/// instants; a harness that knows each fault's restore delay replaces
/// the marker with a widened window right after arming.
#[derive(Debug, Clone, Copy)]
pub struct FaultTrace {
    /// Earliest planned fault instant.
    pub window_start: SimTime,
    /// Last planned fire instant as [`schedule_faults`] stores it, or a
    /// later instant when the harness widened the window afterwards.
    pub window_end: SimTime,
}

impl FaultTrace {
    /// Whether `t` falls inside the fault window (inclusive).
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.window_start && t <= self.window_end
    }
}

/// Internal timer message: fire the action stored in slot `.0`.
struct Fire(usize);

/// Completion message for [`StallThread`]'s CPU burst (ignored).
struct StallDone;

/// The actor driving a fault plan. Owns the planned actions; each fires
/// exactly once at its timestamp.
pub struct FaultScheduler {
    slots: Vec<Option<Box<dyn FaultAction>>>,
}

impl Actor for FaultScheduler {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        let msg = match downcast::<Fire>(msg) {
            Ok(f) => {
                let action = self.slots[f.0].take().expect("fault slot fired twice");
                ctx.metrics().incr(action.label());
                ctx.metrics().incr("fault_events");
                let label = action.label();
                let now = ctx.now();
                ctx.world.spans.mark(label, now);
                if let Some((delay, follow)) = action.apply(ctx) {
                    let slot = self.slots.len();
                    self.slots.push(Some(follow));
                    ctx.timer(Fire(slot), delay);
                }
                return;
            }
            Err(m) => m,
        };
        // CPU-burst completions from StallThread land here; nothing to do.
        let _ = downcast::<StallDone>(msg);
    }
}

/// Arms `plan` (pairs of *fire time* and action; times may be unsorted)
/// and installs the [`FaultTrace`] marker spanning the first to the last
/// fire instant. Follow-up actions (restores) are not in the plan, so
/// their delays are not in this window; a caller that wants them counted
/// overwrites the marker before the run starts. Times earlier than
/// `w.now()` fire immediately. Returns the scheduler's actor id.
pub fn schedule_faults(w: &mut World, plan: Vec<(SimTime, Box<dyn FaultAction>)>) -> ActorId {
    let start = plan.iter().map(|(t, _)| *t).min().unwrap_or(SimTime::ZERO);
    let end = plan.iter().map(|(t, _)| *t).max().unwrap_or(SimTime::ZERO);
    w.ext.insert(FaultTrace {
        window_start: start,
        window_end: end,
    });
    let mut slots = Vec::with_capacity(plan.len());
    let mut at = Vec::with_capacity(plan.len());
    for (t, action) in plan {
        at.push(t);
        slots.push(Some(action));
    }
    let sched = w.add_actor("fault-sched", FaultScheduler { slots });
    let now = w.now();
    for (i, t) in at.into_iter().enumerate() {
        let delay = if t > now { t - now } else { SimDuration::ZERO };
        w.send_after(sched, Fire(i), delay);
    }
    sched
}

// -- engine-level actions ---------------------------------------------------

/// Monopolizes a thread for `duration` with a synthetic CPU burst — the
/// paper's vhost-thread-stall / noisy-neighbour fault. Every chain stage
/// queued on the thread waits behind the burst (modulo fair-share
/// scheduling against other threads on the core).
pub struct StallThread {
    /// Thread to stall.
    pub thread: ThreadId,
    /// Stall length (converted to cycles at the host's clock rate).
    pub duration: SimDuration,
}

impl FaultAction for StallThread {
    fn label(&self) -> &'static str {
        "fault_thread_stall"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        let host = ctx.world.thread_host(self.thread);
        let ghz = ctx.world.host_ghz(host);
        let cycles = (self.duration.as_secs_f64() * ghz * 1e9).round() as u64;
        let me = ctx.me();
        ctx.cpu(self.thread, cycles, CpuCategory::Other, me, StallDone);
        None
    }
}

/// Divides a block device's bandwidth by `factor` for `duration`, then
/// restores it (the paper's disk-slowdown ×k fault). The factor is
/// bounded by the caller's plan validation; with free-at queueing an
/// extreme factor would push completions absurdly far out rather than
/// dropping requests.
pub struct SlowDisk {
    /// Device to degrade.
    pub dev: BlockDevId,
    /// Bandwidth divisor (> 1).
    pub factor: f64,
    /// How long the slowdown lasts.
    pub duration: SimDuration,
}

impl FaultAction for SlowDisk {
    fn label(&self) -> &'static str {
        "fault_disk_slow"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        let dev = ctx.world.blockdev_mut(self.dev);
        let saved = dev.bandwidth_bps;
        dev.bandwidth_bps = saved / self.factor.max(1.0);
        Some((
            self.duration,
            Box::new(RestoreDisk {
                dev: self.dev,
                bandwidth_bps: saved,
            }),
        ))
    }
}

/// Follow-up to [`SlowDisk`]: put the saved bandwidth back.
struct RestoreDisk {
    dev: BlockDevId,
    bandwidth_bps: f64,
}

impl FaultAction for RestoreDisk {
    fn label(&self) -> &'static str {
        "fault_disk_restore"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        ctx.world.blockdev_mut(self.dev).bandwidth_bps = self.bandwidth_bps;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        fired: std::rc::Rc<std::cell::RefCell<Vec<(f64, &'static str)>>>,
        label: &'static str,
        restore_after: Option<SimDuration>,
    }

    impl FaultAction for Probe {
        fn label(&self) -> &'static str {
            self.label
        }

        fn apply(
            self: Box<Self>,
            ctx: &mut Ctx<'_>,
        ) -> Option<(SimDuration, Box<dyn FaultAction>)> {
            self.fired
                .borrow_mut()
                .push((ctx.now().as_secs_f64(), self.label));
            self.restore_after.map(|d| {
                (
                    d,
                    Box::new(Probe {
                        fired: self.fired.clone(),
                        label: "restore",
                        restore_after: None,
                    }) as Box<dyn FaultAction>,
                )
            })
        }
    }

    #[test]
    fn actions_fire_at_planned_times_with_followups() {
        let mut w = World::new(7);
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let plan: Vec<(SimTime, Box<dyn FaultAction>)> = vec![
            (
                SimTime::ZERO + SimDuration::from_millis(200),
                Box::new(Probe {
                    fired: fired.clone(),
                    label: "b",
                    restore_after: None,
                }),
            ),
            (
                SimTime::ZERO + SimDuration::from_millis(100),
                Box::new(Probe {
                    fired: fired.clone(),
                    label: "a",
                    restore_after: Some(SimDuration::from_millis(300)),
                }),
            ),
        ];
        schedule_faults(&mut w, plan);
        let trace = *w.ext.get::<FaultTrace>().unwrap();
        assert_eq!(trace.window_start.as_secs_f64(), 0.1);
        assert_eq!(trace.window_end.as_secs_f64(), 0.2);
        w.run();
        assert_eq!(
            *fired.borrow(),
            vec![(0.1, "a"), (0.2, "b"), (0.4, "restore")]
        );
        assert_eq!(w.metrics.counter("fault_events"), 3.0);
    }

    #[test]
    fn slow_disk_restores_bandwidth() {
        let mut w = World::new(7);
        let dev = w.add_blockdev(crate::resources::BlockDev::new(
            SimDuration::from_micros(80),
            300e6,
        ));
        schedule_faults(
            &mut w,
            vec![(
                SimTime::ZERO + SimDuration::from_millis(10),
                Box::new(SlowDisk {
                    dev,
                    factor: 10.0,
                    duration: SimDuration::from_millis(50),
                }) as Box<dyn FaultAction>,
            )],
        );
        w.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(w.blockdev_mut(dev).bandwidth_bps, 30e6);
        w.run();
        assert_eq!(w.blockdev_mut(dev).bandwidth_bps, 300e6);
    }
}
