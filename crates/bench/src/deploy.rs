//! Resolve + deploy: turn a topology description into typed handles on
//! a running [`World`].
//!
//! Every harness entry point — declarative scenarios
//! ([`crate::ScenarioSpec`]), the Figure 10 testbed
//! ([`crate::Testbed`]), experiment one-offs (Figure 3's HDFS-less
//! netperf hosts) and the `benchmark/` crate — assembles its deployment
//! through [`Deployment::build`], so host/VM/HDFS/file wiring exists
//! exactly once. The deployment separates three moments:
//!
//! 1. **build** — hosts, VMs, cache pressure, HDFS (when there are
//!    datanodes) and file population, in spec order;
//! 2. **clients** — [`Deployment::make_client`] deploys the read path
//!    under test and a `DfsClient` on a client VM (callers control when,
//!    because actor creation order is part of a run's identity);
//! 3. **background + faults** — [`Deployment::start_background`] spawns
//!    the lookbusy load and [`Deployment::arm_faults`] schedules the
//!    fault plan, again at the caller's chosen point in the wiring
//!    sequence.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::faults::{build_fault_actions, check_faults, plan_window, FaultSpec, FaultTargets};
use crate::scenarios::ReadPath;
use crate::spec::{deploy_costs, FileSpec, HostCacheSpec, HostSpec, SpecError, VmRole, VmSpec};

use vread_apps::lookbusy::{llc_pressure, Lookbusy};
use vread_core::daemon::{deploy_vread, RemoteTransport};
use vread_core::VreadPath;
use vread_hdfs::client::{add_client, BlockReadPath, VanillaPath};
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::{deploy_hdfs, DatanodeIx};
use vread_host::cluster::{Cluster, HostIx, VmId};
use vread_host::costs::Costs;
use vread_sim::fault::{schedule_faults, FaultTrace};
use vread_sim::prelude::*;

/// A topology: what to deploy, before any world exists. Names are
/// resolved by [`Deployment::build`]; a scenario's plan comes from a
/// spec that already passed its validator.
#[derive(Debug, Clone)]
pub struct DeployPlan {
    /// RNG seed.
    pub seed: u64,
    /// Read path clients made from this deployment will use.
    pub path: ReadPath,
    /// Enable the span flight recorder before any activity.
    pub spans: bool,
    /// Cost-model override.
    pub costs: Costs,
    /// Physical hosts, in creation order.
    pub hosts: Vec<HostSpec>,
    /// VMs, in creation order.
    pub vms: Vec<VmSpec>,
    /// HDFS files to pre-populate (requires datanode VMs).
    pub files: Vec<FileSpec>,
    /// Host block-store configuration (default: per-host LRU).
    pub host_cache: HostCacheSpec,
    /// Telemetry timeline sampling period in simulated milliseconds;
    /// `None` (the default) leaves the timeline disabled.
    pub timeline_sample_ms: Option<u64>,
}

impl DeployPlan {
    /// An empty plan: given seed, vanilla path, default costs, nothing
    /// deployed.
    pub fn new(seed: u64) -> Self {
        DeployPlan {
            seed,
            path: ReadPath::Vanilla,
            spans: false,
            costs: Costs::default(),
            hosts: Vec::new(),
            vms: Vec::new(),
            files: Vec::new(),
            host_cache: HostCacheSpec::default(),
            timeline_sample_ms: None,
        }
    }

    /// Sets the read path for clients.
    pub fn path(mut self, path: ReadPath) -> Self {
        self.path = path;
        self
    }

    /// Enables the span flight recorder.
    pub fn spans(mut self, spans: bool) -> Self {
        self.spans = spans;
        self
    }

    /// Overrides the cost model.
    pub fn costs(mut self, costs: Costs) -> Self {
        self.costs = costs;
        self
    }

    /// Adds a host.
    pub fn host(mut self, name: &str, cores: usize, ghz: f64) -> Self {
        self.hosts.push(HostSpec {
            name: name.to_owned(),
            cores,
            ghz,
        });
        self
    }

    /// Adds a VM.
    pub fn vm(mut self, name: &str, host: &str, role: VmRole, busy: Option<f64>) -> Self {
        self.vms.push(VmSpec {
            name: name.to_owned(),
            host: host.to_owned(),
            role,
            busy,
        });
        self
    }

    /// Adds a pre-populated file.
    pub fn file(mut self, spec: FileSpec) -> Self {
        self.files.push(spec);
        self
    }

    /// Configures the host block store.
    pub fn host_cache(mut self, cache: HostCacheSpec) -> Self {
        self.host_cache = cache;
        self
    }
}

/// A deployed topology: the world plus typed handles resolved from the
/// plan's names.
pub struct Deployment {
    /// The running world.
    pub w: World,
    /// Read path [`Deployment::make_client`] deploys.
    pub path: ReadPath,
    /// Host name → index.
    pub host_ix: HashMap<String, HostIx>,
    /// VM name → id (all roles).
    pub vm_ids: HashMap<String, VmId>,
    /// Client VMs, in plan order.
    pub clients: Vec<(String, VmId)>,
    /// Datanode VMs, in plan order.
    pub datanode_vms: Vec<(String, VmId)>,
    /// HDFS datanode handles, parallel to `datanode_vms` (empty when
    /// the plan had no datanodes and HDFS was not deployed).
    pub dn_ixs: Vec<DatanodeIx>,
    /// Lookbusy (thread, duty-cycle) pairs, pending until
    /// [`Deployment::start_background`].
    lookbusy: Vec<(ThreadId, f64)>,
    /// Whether [`Deployment::add_client_on`] has deployed the vRead
    /// daemons yet (they are per-host singletons).
    path_deployed: bool,
}

/// Deploys the read path under test (vRead daemons when needed) and a
/// `DfsClient` in `vm`. The single home of read-path construction — the
/// testbed, scenarios and the `benchmark/` crate all route through here.
pub fn make_read_client(w: &mut World, path: ReadPath, vm: VmId) -> ActorId {
    let p: Box<dyn BlockReadPath> = match path {
        ReadPath::Vanilla => Box::new(VanillaPath::new()),
        ReadPath::VreadRdma => {
            deploy_vread(w, RemoteTransport::Rdma);
            Box::new(VreadPath::new())
        }
        ReadPath::VreadTcp => {
            deploy_vread(w, RemoteTransport::Tcp);
            Box::new(VreadPath::new())
        }
    };
    add_client(w, vm, p)
}

impl Deployment {
    /// Builds the plan: hosts, VMs and cache pressure in spec order,
    /// then HDFS (namenode on the first client VM) and file population
    /// when the plan has datanodes.
    ///
    /// # Errors
    ///
    /// [`SpecError::Unresolved`] for VM→host and file→datanode
    /// references; [`SpecError::Invalid`] when datanodes exist without a
    /// client VM to host the namenode, a file has no placement, or a
    /// file or host-cache size is zero, overflows `u64` bytes or leaves
    /// a cache smaller than one chunk (the scenario validator's size
    /// rules, checked against the plan's costs).
    pub fn build(plan: DeployPlan) -> Result<Deployment, SpecError> {
        let mut w = World::new(plan.seed);
        if plan.spans {
            // Enabled before any activity so the cycle-conservation
            // invariant covers deploy/populate work too.
            w.spans.enable();
        }
        let costs = deploy_costs(&plan.files, &plan.host_cache, plan.costs)?;
        let mut cl = Cluster::new(costs);
        // Before any add_host: each host's store is built at creation.
        cl.set_host_cache_mode(plan.host_cache.mode);

        let mut host_ix = HashMap::new();
        for h in &plan.hosts {
            let ix = cl.add_host(&mut w, &h.name, h.cores, h.ghz);
            host_ix.insert(h.name.clone(), ix);
        }

        let mut vm_ids: HashMap<String, VmId> = Default::default();
        let mut clients: Vec<(String, VmId)> = Vec::new();
        let mut datanode_vms: Vec<(String, VmId)> = Vec::new();
        let mut lookbusy: Vec<(ThreadId, f64)> = Vec::new();
        let mut busy_per_host: BTreeMap<String, usize> = Default::default();
        for v in &plan.vms {
            let hix = *host_ix
                .get(&v.host)
                .ok_or_else(|| SpecError::Unresolved(format!("host {}", v.host)))?;
            let id = cl.add_vm(&mut w, hix, &v.name);
            vm_ids.insert(v.name.clone(), id);
            match v.role {
                VmRole::Client => clients.push((v.name.clone(), id)),
                VmRole::Datanode => datanode_vms.push((v.name.clone(), id)),
                VmRole::Peer => {}
                VmRole::Lookbusy => {
                    lookbusy.push((cl.vm(id).vcpu, v.busy.unwrap_or(0.85)));
                    *busy_per_host.entry(v.host.clone()).or_insert(0) += 1;
                }
            }
        }
        // cache pressure per host from its lookbusy population
        for (host, n) in &busy_per_host {
            let hix = host_ix[host];
            let host_id = cl.hosts[hix.0].host;
            w.set_cache_pressure(host_id, llc_pressure(*n));
        }
        w.ext.insert(cl);

        // HDFS + data — only when the plan runs datanodes (Figure 3's
        // netperf hosts deploy plain peer VMs, no filesystem)
        let dn_ixs = if datanode_vms.is_empty() {
            Vec::new()
        } else {
            let nn_vm = clients
                .first()
                .ok_or_else(|| SpecError::Invalid("no client VM".to_owned()))?
                .1;
            let dn_vms: Vec<VmId> = datanode_vms.iter().map(|(_, v)| *v).collect();
            let (_nn, ixs) = deploy_hdfs(&mut w, nn_vm, &dn_vms);
            ixs
        };
        let dn_by_name: HashMap<&str, DatanodeIx> = datanode_vms
            .iter()
            .zip(&dn_ixs)
            .map(|((name, _), ix)| (name.as_str(), *ix))
            .collect();
        for f in &plan.files {
            let dns: Vec<DatanodeIx> = f
                .placement
                .iter()
                .map(|n| {
                    dn_by_name
                        .get(n.as_str())
                        .copied()
                        .ok_or_else(|| SpecError::Unresolved(format!("datanode {n}")))
                })
                .collect::<Result<_, _>>()?;
            if dns.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "file {} has no placement",
                    f.path
                )));
            }
            let placement = if f.replicate {
                Placement::Replicated(dns)
            } else {
                Placement::RoundRobin(dns)
            };
            populate_file(&mut w, &f.path, f.mb << 20, &placement);
        }

        if let Some(ms) = plan.timeline_sample_ms {
            // Host block-store occupancy and hit/dedup rates. The store
            // lives behind `w.ext` (vread_sim cannot depend on
            // vread_host), so each host registers provider closures the
            // sampler polls on every tick.
            for (i, h) in plan.hosts.iter().enumerate() {
                let used = move |w: &World| {
                    w.ext
                        .get::<Cluster>()
                        .map_or(0.0, |cl| cl.hosts[i].cache.used_bytes() as f64)
                };
                let hit = move |w: &World| {
                    w.ext.get::<Cluster>().map_or(0.0, |cl| {
                        let st = cl.hosts[i].cache.stats();
                        let lookups = st.hits + st.misses;
                        if lookups == 0 {
                            0.0
                        } else {
                            st.hits as f64 / lookups as f64
                        }
                    })
                };
                let dedup = move |w: &World| {
                    w.ext.get::<Cluster>().map_or(0.0, |cl| {
                        let st = cl.hosts[i].cache.stats();
                        let lookups = st.hits + st.misses;
                        if lookups == 0 {
                            0.0
                        } else {
                            st.dedup_hits as f64 / lookups as f64
                        }
                    })
                };
                let name = &h.name;
                w.timeline
                    .register_provider(&format!("store.{name}.used_bytes"), Box::new(used));
                w.timeline
                    .register_provider(&format!("store.{name}.hit_rate"), Box::new(hit));
                w.timeline
                    .register_provider(&format!("store.{name}.dedup_rate"), Box::new(dedup));
            }
            w.start_timeline(SimDuration::from_millis(ms));
        }

        Ok(Deployment {
            w,
            path: plan.path,
            host_ix,
            vm_ids,
            clients,
            datanode_vms,
            dn_ixs,
            lookbusy,
            path_deployed: false,
        })
    }

    /// The first client VM (scenario convention: it hosts the namenode).
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the plan had no client VM.
    pub fn first_client(&self) -> Result<VmId, SpecError> {
        self.clients
            .first()
            .map(|(_, id)| *id)
            .ok_or_else(|| SpecError::Invalid("no client VM".to_owned()))
    }

    /// Resolves a client VM by name; `None` picks the first client.
    ///
    /// # Errors
    ///
    /// [`SpecError::Unresolved`] for an unknown name,
    /// [`SpecError::Invalid`] when the named VM is not a client role or
    /// no client exists.
    pub fn client_vm(&self, name: Option<&str>) -> Result<VmId, SpecError> {
        match name {
            None => self.first_client(),
            Some(n) => {
                if !self.vm_ids.contains_key(n) {
                    return Err(SpecError::Unresolved(format!("client VM {n}")));
                }
                self.clients
                    .iter()
                    .find(|(name, _)| name == n)
                    .map(|(_, id)| *id)
                    .ok_or_else(|| {
                        SpecError::Invalid(format!("workload client {n} is not a client VM"))
                    })
            }
        }
    }

    /// Deploys the read path and a `DfsClient` in `vm` (see
    /// [`make_read_client`]). Call after population so initial mounts
    /// see the data.
    pub fn make_client(&mut self, vm: VmId) -> ActorId {
        self.path_deployed = true;
        make_read_client(&mut self.w, self.path, vm)
    }

    /// Like [`Deployment::make_client`], but deploys the vRead daemons
    /// at most once across calls — the shape multi-client deployments
    /// need (daemons are per-host singletons; clients are per-VM).
    pub fn add_client_on(&mut self, vm: VmId) -> ActorId {
        if self.path_deployed {
            let p: Box<dyn BlockReadPath> = match self.path {
                ReadPath::Vanilla => Box::new(VanillaPath::new()),
                ReadPath::VreadRdma | ReadPath::VreadTcp => Box::new(VreadPath::new()),
            };
            add_client(&mut self.w, vm, p)
        } else {
            self.make_client(vm)
        }
    }

    /// Spawns the plan's lookbusy generators (each an actor with an
    /// immediate `Start`). Call exactly once, at the point in the wiring
    /// sequence where the background load should enter the actor order.
    pub fn start_background(&mut self) {
        for (thread, busy) in std::mem::take(&mut self.lookbusy) {
            let lb = Lookbusy::new(thread, busy, SimDuration::from_millis(10));
            let a = self.w.add_actor("lookbusy", lb);
            self.w.send_now(a, Start);
        }
    }

    /// Resolves and schedules a fault plan, and widens the trace window
    /// past the restores so throughput-during-fault integrates over the
    /// whole outage. The widened window replaces the one
    /// `schedule_faults` installed before the run starts, so the DFS
    /// client's window byte counter and the report read the same window.
    /// No-op for an empty plan.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when a fault target name doesn't resolve, a fire
    /// time or window end overflows simulated time, or a factor is out
    /// of range.
    pub fn arm_faults(&mut self, faults: &[FaultSpec]) -> Result<(), SpecError> {
        if faults.is_empty() {
            return Ok(());
        }
        check_faults(faults)?;
        let datanode_set: HashSet<VmId> = self.datanode_vms.iter().map(|(_, v)| *v).collect();
        let targets = FaultTargets {
            hosts: &self.host_ix,
            vms: &self.vm_ids,
            datanodes: &datanode_set,
        };
        let plan = build_fault_actions(faults, &self.w, &targets)?;
        schedule_faults(&mut self.w, plan);
        let (window_start, window_end) = plan_window(faults);
        self.w.ext.insert(FaultTrace {
            window_start,
            window_end,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_hdfs::HdfsMeta;

    fn two_host_plan() -> DeployPlan {
        DeployPlan::new(7)
            .path(ReadPath::VreadRdma)
            .host("h1", 4, 2.0)
            .host("h2", 4, 2.0)
            .vm("client", "h1", VmRole::Client, None)
            .vm("dn1", "h1", VmRole::Datanode, None)
            .vm("dn2", "h2", VmRole::Datanode, None)
            .vm("bg", "h1", VmRole::Lookbusy, Some(0.5))
            .file(FileSpec {
                path: "/d".to_owned(),
                mb: 8,
                placement: vec!["dn1".to_owned(), "dn2".to_owned()],
                replicate: false,
            })
    }

    #[test]
    fn builds_topology_with_typed_handles() {
        let mut d = Deployment::build(two_host_plan()).unwrap();
        assert_eq!(d.clients.len(), 1);
        assert_eq!(d.datanode_vms.len(), 2);
        assert_eq!(d.dn_ixs.len(), 2);
        assert_eq!(d.host_ix.len(), 2);
        assert_eq!(d.vm_ids.len(), 4);
        let meta = d.w.ext.get::<HdfsMeta>().unwrap();
        assert_eq!(meta.file("/d").unwrap().size(), 8 << 20);
        let client_vm = d.first_client().unwrap();
        let _client = d.make_client(client_vm);
        d.start_background();
        assert!(
            d.w.ext.get::<vread_core::VreadRegistry>().is_some(),
            "vread path deployed daemons"
        );
    }

    #[test]
    fn peer_vms_skip_hdfs() {
        let plan = DeployPlan::new(77)
            .host("h", 4, 3.2)
            .vm("a", "h", VmRole::Peer, None)
            .vm("b", "h", VmRole::Peer, None);
        let d = Deployment::build(plan).unwrap();
        assert!(d.dn_ixs.is_empty());
        assert!(d.w.ext.get::<HdfsMeta>().is_none(), "no HDFS deployed");
        assert!(matches!(d.first_client(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn unresolved_names_error() {
        let plan = DeployPlan::new(1)
            .host("h", 4, 2.0)
            .vm("client", "ghost", VmRole::Client, None);
        assert!(matches!(
            Deployment::build(plan),
            Err(SpecError::Unresolved(_))
        ));

        let plan = two_host_plan().file(FileSpec {
            path: "/x".to_owned(),
            mb: 1,
            placement: vec!["ghost-dn".to_owned()],
            replicate: false,
        });
        assert!(matches!(
            Deployment::build(plan),
            Err(SpecError::Unresolved(_))
        ));
    }

    #[test]
    fn datanodes_without_client_error() {
        let plan = DeployPlan::new(1)
            .host("h", 4, 2.0)
            .vm("dn", "h", VmRole::Datanode, None);
        assert!(matches!(
            Deployment::build(plan),
            Err(SpecError::Invalid(_))
        ));
    }

    fn invalid_with(plan: DeployPlan, needle: &str) {
        match Deployment::build(plan) {
            Err(SpecError::Invalid(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(e) => panic!("expected Invalid containing {needle:?}, got {e:?}"),
            Ok(_) => panic!("expected Invalid containing {needle:?}, got a deployment"),
        }
    }

    #[test]
    fn file_sizes_are_checked_at_build() {
        let file = |mb| FileSpec {
            path: "/big".to_owned(),
            mb,
            placement: vec!["dn1".to_owned()],
            replicate: false,
        };
        // 2^44 MiB is 2^64 bytes: a wrapping conversion would make it an
        // empty file that populate silently skips.
        invalid_with(
            two_host_plan().file(file(1 << 44)),
            "file /big: mb overflows",
        );
        invalid_with(
            two_host_plan().file(file(0)),
            "file /big: mb must be at least 1",
        );
    }

    #[test]
    fn host_cache_sizes_are_checked_against_the_plan_costs() {
        let cache = |capacity_mb, chunk_kb| HostCacheSpec {
            capacity_mb,
            chunk_kb,
            ..HostCacheSpec::default()
        };
        // A wrapping conversion would build a 0-byte store, which
        // panics when the first host is added.
        invalid_with(
            two_host_plan().host_cache(cache(Some(1 << 44), None)),
            "capacity_mb overflows",
        );
        invalid_with(
            two_host_plan().host_cache(cache(None, Some(0))),
            "chunk_kb must be at least 1",
        );
        // The default 64 KiB chunk fits the default caches but not a
        // 32 KiB guest cache set through the plan's costs.
        let costs = Costs {
            guest_cache_bytes: 32 << 10,
            ..Costs::default()
        };
        invalid_with(two_host_plan().costs(costs), "must fit the host");
    }

    #[test]
    fn client_vm_binding_resolves_names_and_roles() {
        let d = Deployment::build(two_host_plan()).unwrap();
        assert_eq!(d.client_vm(None).unwrap(), d.first_client().unwrap());
        assert_eq!(
            d.client_vm(Some("client")).unwrap(),
            d.first_client().unwrap()
        );
        assert!(matches!(
            d.client_vm(Some("ghost")),
            Err(SpecError::Unresolved(_))
        ));
        assert!(matches!(
            d.client_vm(Some("dn1")),
            Err(SpecError::Invalid(_))
        ));
    }
}
