//! Scenario builders mirroring the paper's testbed (§5, Figure 10).
//!
//! Two quad-core Xeon hosts (frequency set per experiment with the
//! simulated `cpufreq-set`), 16 GB RAM, SSD and 10 GbE RoCE NICs. Host 1
//! runs the client VM (which also hosts the namenode) and datanode 1;
//! host 2 runs datanode 2. In the *4 VMs* configuration each host is
//! filled to four VMs with 85%-lookbusy background VMs.

use crate::deploy::{make_read_client, DeployPlan, Deployment};
use crate::spec::VmRole;
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::{DatanodeIx, HdfsMeta};
use vread_host::cluster::{Cluster, HostIx, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// Which data path the HDFS client uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Unmodified HDFS (Figure 1 flow).
    Vanilla,
    /// vRead with RDMA remote reads.
    VreadRdma,
    /// vRead with the user-space TCP fallback.
    VreadTcp,
}

impl ReadPath {
    /// Every path, in figure-legend order.
    pub const ALL: [ReadPath; 3] = [ReadPath::Vanilla, ReadPath::VreadRdma, ReadPath::VreadTcp];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ReadPath::Vanilla => "vanilla",
            ReadPath::VreadRdma => "vRead",
            ReadPath::VreadTcp => "vRead-tcp",
        }
    }

    /// The scenario-JSON spelling (`"vanilla"` / `"vread-rdma"` /
    /// `"vread-tcp"`), inverse of [`ReadPath::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            ReadPath::Vanilla => "vanilla",
            ReadPath::VreadRdma => "vread-rdma",
            ReadPath::VreadTcp => "vread-tcp",
        }
    }

    /// Parses the scenario-JSON spelling.
    pub fn parse(s: &str) -> Option<ReadPath> {
        match s {
            "vanilla" => Some(ReadPath::Vanilla),
            "vread-rdma" => Some(ReadPath::VreadRdma),
            "vread-tcp" => Some(ReadPath::VreadTcp),
            _ => None,
        }
    }
}

/// Where the data a workload reads lives (paper terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// On the datanode VM co-located with the client.
    CoLocated,
    /// On the datanode VM on the other host.
    Remote,
    /// Alternating blocks on both datanodes.
    Hybrid,
}

impl Locality {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Locality::CoLocated => "co-located",
            Locality::Remote => "remote",
            Locality::Hybrid => "hybrid",
        }
    }
}

/// Testbed configuration.
#[derive(Debug, Clone)]
pub struct TestbedOpts {
    /// Host clock frequency in GHz (the paper uses 1.6 / 2.0 / 3.2).
    pub ghz: f64,
    /// `true` = the paper's "4 VMs" configuration (hosts filled with
    /// 85% lookbusy background VMs); `false` = "2 VMs".
    pub four_vms: bool,
    /// Data path under test.
    pub path: ReadPath,
    /// RNG seed.
    pub seed: u64,
    /// Cost-model override (ablations tweak e.g. the ring slot size).
    pub costs: Costs,
}

impl Default for TestbedOpts {
    fn default() -> Self {
        TestbedOpts {
            ghz: 2.0,
            four_vms: false,
            path: ReadPath::Vanilla,
            seed: 42,
            costs: Costs::default(),
        }
    }
}

impl TestbedOpts {
    /// The defaults (2.0 GHz, "2 VMs", vanilla path, seed 42).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the host clock frequency.
    pub fn ghz(mut self, ghz: f64) -> Self {
        self.ghz = ghz;
        self
    }

    /// Selects the "4 VMs" (true) or "2 VMs" (false) configuration.
    pub fn four_vms(mut self, four_vms: bool) -> Self {
        self.four_vms = four_vms;
        self
    }

    /// Sets the data path under test.
    pub fn path(mut self, path: ReadPath) -> Self {
        self.path = path;
        self
    }

    /// Overrides the cost model.
    pub fn costs(mut self, costs: Costs) -> Self {
        self.costs = costs;
        self
    }
}

/// The assembled two-host testbed.
pub struct Testbed {
    /// The world.
    pub w: World,
    /// Scenario options used to build it.
    pub opts: TestbedOpts,
    /// The measurement client VM (hosts the namenode too).
    pub client_vm: VmId,
    /// Datanode co-located with the client.
    pub dn_local: DatanodeIx,
    /// Datanode on the second host.
    pub dn_remote: DatanodeIx,
    /// Datanode VM ids (local, remote).
    pub dn_vms: (VmId, VmId),
    /// Host indices (host1 = client side, host2).
    pub hosts: (HostIx, HostIx),
}

impl Testbed {
    /// Builds the Figure 10 deployment (via [`Deployment::build`], the
    /// single home of topology wiring).
    pub fn build(opts: TestbedOpts) -> Testbed {
        let mut plan = DeployPlan::new(opts.seed)
            .path(opts.path)
            .costs(opts.costs.clone())
            .host("host1", 4, opts.ghz)
            .host("host2", 4, opts.ghz)
            .vm("client", "host1", VmRole::Client, None)
            .vm("datanode1", "host1", VmRole::Datanode, None)
            .vm("datanode2", "host2", VmRole::Datanode, None);
        // Background VMs (the "rest" up to 4 per host).
        if opts.four_vms {
            for i in 0..2 {
                plan = plan.vm(&format!("bg1-{i}"), "host1", VmRole::Lookbusy, None);
            }
            for i in 0..3 {
                plan = plan.vm(&format!("bg2-{i}"), "host2", VmRole::Lookbusy, None);
            }
        }
        let mut d = Deployment::build(plan).expect("testbed plan is well-formed");
        d.start_background();
        Testbed {
            client_vm: d.vm_ids["client"],
            dn_local: d.dn_ixs[0],
            dn_remote: d.dn_ixs[1],
            dn_vms: (d.vm_ids["datanode1"], d.vm_ids["datanode2"]),
            hosts: (d.host_ix["host1"], d.host_ix["host2"]),
            w: d.w,
            opts,
        }
    }

    /// Lays out `bytes` at `path` according to `locality`.
    pub fn populate(&mut self, path: &str, bytes: u64, locality: Locality) {
        let placement = self.placement(locality);
        populate_file(&mut self.w, path, bytes, &placement);
    }

    /// The block placement for a locality.
    pub fn placement(&self, locality: Locality) -> Placement {
        match locality {
            Locality::CoLocated => Placement::One(self.dn_local),
            Locality::Remote => Placement::One(self.dn_remote),
            Locality::Hybrid => Placement::RoundRobin(vec![self.dn_local, self.dn_remote]),
        }
    }

    /// Creates a DFS client in the client VM (see [`make_read_client`]).
    /// Call *after* [`Testbed::populate`] so the initial mounts see the
    /// data.
    pub fn make_client(&mut self) -> ActorId {
        make_read_client(&mut self.w, self.opts.path, self.client_vm)
    }

    /// Controls where *written* blocks land: `CoLocated` keeps the HVE
    /// placement (co-located datanode), `Remote` forces the remote
    /// datanode, `Hybrid` disables topology awareness so allocation
    /// round-robins over both datanodes.
    pub fn configure_write_locality(&mut self, locality: Locality) {
        let dn_remote = self.dn_remote;
        let meta = self.w.ext.get_mut::<HdfsMeta>().expect("meta");
        match locality {
            Locality::CoLocated => {
                meta.topology_aware = true;
                meta.forced_primary = None;
            }
            Locality::Remote => {
                meta.topology_aware = false;
                meta.forced_primary = Some(dn_remote);
            }
            Locality::Hybrid => {
                meta.topology_aware = false;
                meta.forced_primary = None;
            }
        }
    }

    /// Thread handles often needed by reports: (client vcpu, client
    /// vhost, dn-local vcpu, dn-local vhost).
    pub fn key_threads(&self) -> (ThreadId, ThreadId, ThreadId, ThreadId) {
        let cl = self.w.ext.get::<Cluster>().expect("cluster");
        (
            cl.vm(self.client_vm).vcpu,
            cl.vm(self.client_vm).vhost,
            cl.vm(self.dn_vms.0).vcpu,
            cl.vm(self.dn_vms.0).vhost,
        )
    }

    /// Daemon threads (host1, host2), if vRead is deployed.
    pub fn daemon_threads(&self) -> Option<(ThreadId, ThreadId)> {
        let reg = self.w.ext.get::<vread_core::VreadRegistry>()?;
        Some((
            reg.daemons[&self.hosts.0 .0].1,
            reg.daemons[&self.hosts.1 .0].1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_vm_configurations() {
        let tb = Testbed::build(TestbedOpts::default());
        let cl = tb.w.ext.get::<Cluster>().unwrap();
        assert_eq!(cl.vms.len(), 3);
        let tb4 = Testbed::build(TestbedOpts::new().four_vms(true));
        let cl4 = tb4.w.ext.get::<Cluster>().unwrap();
        assert_eq!(cl4.vms.len(), 8, "hosts filled to 4 VMs each");
    }

    #[test]
    fn populate_and_clients_work_for_all_paths() {
        for path in [ReadPath::Vanilla, ReadPath::VreadRdma, ReadPath::VreadTcp] {
            let mut tb = Testbed::build(TestbedOpts::new().path(path));
            tb.populate("/d", 4 << 20, Locality::Hybrid);
            let _client = tb.make_client();
            assert!(tb.w.ext.get::<HdfsMeta>().unwrap().file("/d").is_some());
        }
    }
}
