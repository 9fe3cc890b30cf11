//! Host-layer fault actions: page-cache loss.
//!
//! Dropping a host's page cache (the effect of memory pressure, a
//! `drop_caches` sweep, or a host reboot) forces every subsequent read
//! that would have hit warm cache back onto the disk path — the paper's
//! cold-read regime. The guest caches of the host's VMs are dropped too,
//! matching what a host reboot implies.

use crate::cluster::{with_cluster, HostIx};
use vread_sim::fault::FaultAction;
use vread_sim::prelude::*;

/// Empties the page cache of `host` and the guest caches of its VMs.
pub struct DropHostCache {
    /// Host whose caches to drop.
    pub host: HostIx,
}

impl FaultAction for DropHostCache {
    fn label(&self) -> &'static str {
        "fault_cache_drop"
    }

    fn apply(self: Box<Self>, ctx: &mut Ctx<'_>) -> Option<(SimDuration, Box<dyn FaultAction>)> {
        let host = self.host;
        with_cluster(ctx.world, |cl, _| {
            cl.clear_host_cache(host);
            let vms: Vec<_> = cl.hosts[host.0].vms.clone();
            for vm in vms {
                cl.clear_guest_cache(vm);
            }
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::costs::Costs;
    use vread_sim::fault::{schedule_faults, FaultTrace};
    use vread_sim::time::SimTime;

    #[test]
    fn drops_host_and_guest_caches() {
        let mut w = World::new(11);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let vm = cl.add_vm(&mut w, h, "vm");
        let obj = cl.vm(vm).fs.image();
        cl.vm_mut(vm).cache.admit(obj, 0, 1 << 20);
        cl.hosts[h.0].cache.admit(obj, 0, 1 << 20);
        w.ext.insert(cl);
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        schedule_faults(
            &mut w,
            vec![(
                at,
                Box::new(DropHostCache { host: h }) as Box<dyn FaultAction>,
            )],
            FaultTrace {
                window_start: at,
                window_end: at,
            },
        );
        w.run();
        let cl = w.ext.get::<Cluster>().unwrap();
        assert_eq!(cl.hosts[h.0].cache.used_bytes(), 0);
        assert_eq!(cl.vm(vm).cache.used_bytes(), 0);
    }
}
