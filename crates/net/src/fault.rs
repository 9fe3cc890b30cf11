//! Network fault actions: transient link degradation (the paper's RDMA
//! link flap).
//!
//! A flap is modelled as a bounded bandwidth divisor plus an additive
//! latency penalty for a fixed window, then full restoration — *not* as
//! bandwidth ≈ 0, because the link's free-at queueing would then push
//! completions (and the restore) absurdly far into the future instead of
//! dropping traffic. Retransmission/stall behaviour therefore emerges as
//! severe queueing delay, which is what the vRead client's timeout
//! machinery reacts to.

use vread_sim::fault::FaultAction;
use vread_sim::prelude::*;

/// Divides a link's bandwidth by `factor` and adds `extra_latency` for
/// `duration`, then restores both (a link flap / congestion window).
pub struct DegradeLink {
    /// Link to degrade.
    pub link: LinkId,
    /// Bandwidth divisor (> 1; bounded — see module docs).
    pub factor: f64,
    /// Additional propagation latency while degraded.
    pub extra_latency: SimDuration,
    /// How long the degradation lasts.
    pub duration: SimDuration,
}

impl FaultAction for DegradeLink {
    fn label(&self) -> &'static str {
        "fault_link_flap"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        let link = ctx.world.link_mut(self.link);
        let saved_bw = link.bandwidth_bps;
        let saved_lat = link.latency;
        link.bandwidth_bps = saved_bw / self.factor.max(1.0);
        link.latency = saved_lat + self.extra_latency;
        Some((
            self.duration,
            Box::new(RestoreLink {
                link: self.link,
                bandwidth_bps: saved_bw,
                latency: saved_lat,
            }),
        ))
    }
}

/// Follow-up to [`DegradeLink`]: restore the saved parameters.
struct RestoreLink {
    link: LinkId,
    bandwidth_bps: f64,
    latency: SimDuration,
}

impl FaultAction for RestoreLink {
    fn label(&self) -> &'static str {
        "fault_link_restore"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        let link = ctx.world.link_mut(self.link);
        link.bandwidth_bps = self.bandwidth_bps;
        link.latency = self.latency;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_sim::fault::{schedule_faults, FaultTrace};
    use vread_sim::resources::Link;
    use vread_sim::time::SimTime;

    #[test]
    fn degrade_then_restore() {
        let mut w = World::new(3);
        let link = w.add_link(Link::new(1.25e9, SimDuration::from_micros(30)));
        let at = SimTime::ZERO + SimDuration::from_millis(5);
        schedule_faults(
            &mut w,
            vec![(
                at,
                Box::new(DegradeLink {
                    link,
                    factor: 100.0,
                    extra_latency: SimDuration::from_millis(2),
                    duration: SimDuration::from_millis(40),
                }) as Box<dyn FaultAction>,
            )],
            FaultTrace {
                window_start: at,
                window_end: at,
            },
        );
        w.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(w.link(link).bandwidth_bps, 10.0 * 1e9 / 8.0 / 100.0);
        assert_eq!(w.link(link).latency, SimDuration::from_micros(2030));
        w.run();
        assert_eq!(w.link(link).bandwidth_bps, 10.0 * 1e9 / 8.0);
        assert_eq!(w.link(link).latency, SimDuration::from_micros(30));
    }
}
