//! The `lookbusy` CPU load generator.
//!
//! The paper's 4-VM experiments run two extra VMs at "85% lookbusy" to
//! take cores away from the measured VMs (Figures 3, 9, 11, 12). This
//! actor reproduces lookbusy's duty-cycle behaviour: burn the CPU for
//! `busy_fraction` of each period, sleep for the rest, forever.

use vread_sim::prelude::*;

/// LLC-contention factor for `n` 85%-duty lookbusy VMs sharing the
/// socket: each polluter costs co-runners ≈12% extra cycles per memory
/// access-heavy unit of work (calibrated so two of them reproduce the
/// ≈20% netperf TCP_RR drop of the paper's Figure 3).
pub fn llc_pressure(n_busy_vms: usize) -> f64 {
    1.0 + 0.12 * n_busy_vms as f64
}

/// One lookbusy process pinned to a thread (a vCPU in the experiments).
pub struct Lookbusy {
    thread: ThreadId,
    busy_fraction: f64,
    period: SimDuration,
}

struct BurstDone;
struct WakeUp;

impl Lookbusy {
    /// Creates a generator burning `busy_fraction` (0..1] of `thread`'s
    /// time in bursts of `period`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < busy_fraction <= 1.0`.
    pub fn new(thread: ThreadId, busy_fraction: f64, period: SimDuration) -> Self {
        assert!(
            busy_fraction > 0.0 && busy_fraction <= 1.0,
            "busy fraction must be in (0,1]"
        );
        Lookbusy {
            thread,
            busy_fraction,
            period,
        }
    }

    fn burst(&self, ctx: &mut Ctx<'_>) {
        let ghz = {
            let host = ctx.world.thread_host(self.thread);
            ctx.world.host_ghz(host)
        };
        let busy_ns = self.period.as_nanos() as f64 * self.busy_fraction;
        let cycles = (busy_ns * ghz) as u64;
        let me = ctx.me();
        ctx.chain(
            Stage::cpu(self.thread, cycles, CpuCategory::Lookbusy),
            me,
            BurstDone,
        );
    }
}

impl Actor for Lookbusy {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() || msg.is::<WakeUp>() {
            self.burst(ctx);
        } else if msg.is::<BurstDone>() {
            let idle = SimDuration::from_nanos(
                (self.period.as_nanos() as f64 * (1.0 - self.busy_fraction)) as u64,
            );
            if idle == SimDuration::ZERO {
                self.burst(ctx);
            } else {
                ctx.timer(WakeUp, idle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_close_to_target() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 2.0);
        let t = w.add_thread(h, "lb");
        let lb = Lookbusy::new(t, 0.85, SimDuration::from_millis(10));
        let a = w.add_actor("lb", lb);
        w.send_now(a, Start);
        w.run_until(SimTime::from_nanos(500_000_000));
        let busy = w.acct.busy_ns(t.index()) as f64 / 500e6;
        assert!(
            (busy - 0.85).abs() < 0.03,
            "duty cycle {busy} should be ~0.85"
        );
    }

    #[test]
    fn full_load_saturates() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 2.0);
        let t = w.add_thread(h, "lb");
        let lb = Lookbusy::new(t, 1.0, SimDuration::from_millis(5));
        let a = w.add_actor("lb", lb);
        w.send_now(a, Start);
        w.run_until(SimTime::from_nanos(100_000_000));
        let busy = w.acct.busy_ns(t.index()) as f64 / 100e6;
        assert!(busy > 0.97, "full lookbusy busy {busy}");
    }
}
