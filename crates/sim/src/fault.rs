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
    /// Short stable label for the span mark the scheduler leaves when the
    /// action fires (e.g. `"fault_daemon_crash"`).
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
/// [`schedule_faults`] installs it once, with the window its caller
/// passes, before the run starts.
#[derive(Debug, Clone, Copy)]
pub struct FaultTrace {
    /// Start of the observation window.
    pub window_start: SimTime,
    /// End of the observation window (inclusive).
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
/// and installs `window` as the run's [`FaultTrace`] marker. Times
/// earlier than `w.now()` fire immediately. Returns the scheduler's
/// actor id.
pub fn schedule_faults(
    w: &mut World,
    plan: Vec<(SimTime, Box<dyn FaultAction>)>,
    window: FaultTrace,
) -> ActorId {
    w.ext.insert(window);
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
        let window = FaultTrace {
            window_start: SimTime::ZERO + SimDuration::from_millis(100),
            window_end: SimTime::ZERO + SimDuration::from_millis(200),
        };
        schedule_faults(&mut w, plan, window);
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
        let at = SimTime::ZERO + SimDuration::from_millis(10);
        schedule_faults(
            &mut w,
            vec![(
                at,
                Box::new(SlowDisk {
                    dev,
                    factor: 10.0,
                    duration: SimDuration::from_millis(50),
                }) as Box<dyn FaultAction>,
            )],
            FaultTrace {
                window_start: at,
                window_end: at,
            },
        );
        w.run_until(SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(w.blockdev_mut(dev).bandwidth_bps, 30e6);
        w.run();
        assert_eq!(w.blockdev_mut(dev).bandwidth_bps, 300e6);
    }
}
