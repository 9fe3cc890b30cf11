//! Design-choice ablations (DESIGN.md §7):
//!
//! * ring slot size — the paper defaults to 1024 × 4 KB slots;
//! * host-filesystem bypass — §6's "direct read bypassing the file
//!   system in the host" alternative, which forfeits the host page cache;
//! * HVE topology awareness — replica choice with and without the
//!   co-located preference;
//! * content-addressed host store — dedup across co-located replicas vs
//!   the per-VM LRU page cache, sweeping the hash admission cost.

use vread_apps::java_reader::ReaderMode;
use vread_core::daemon::SetBypassHostFs;
use vread_core::VreadRegistry;
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::HdfsMeta;
use vread_host::cluster::{HostCacheMode, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

use crate::deploy::{DeployPlan, Deployment};
use crate::report::Table;
use crate::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use crate::spans::SpanSummary;
use crate::spec::{FileSpec, HostCacheReport, HostCacheSpec, VmRole};

use super::reader_pass;

const FILE: u64 = 128 << 20;
const REQUEST: u64 = 1 << 20;

/// One reader pass over `/f` by `client` in `vm`, with fresh metrics;
/// returns MB/s.
fn read_mbps(w: &mut World, vm: VmId, client: ActorId) -> f64 {
    w.metrics.reset();
    let path = "/f".to_owned();
    let (_, elapsed) = reader_pass(w, vm, ReaderMode::Dfs { client, path }, REQUEST, FILE);
    FILE as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Ring-slot-size sweep: cold read and re-read throughput.
pub fn run_ring() -> Vec<Table> {
    let mut t = Table::new(
        "ablate-ring",
        "vRead co-located throughput vs ring slot size (MB/s)",
        &["slot", "read", "re-read"],
    );
    for (slot, label) in [
        (1u64 << 10, "1KB"),
        (4 << 10, "4KB (paper)"),
        (16 << 10, "16KB"),
        (64 << 10, "64KB"),
    ] {
        // keep the ring capacity at 4 MB like the paper's default
        let costs = Costs {
            ring_slot_bytes: slot,
            ring_slots: (4 << 20) / slot,
            ..Default::default()
        };
        let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadRdma).costs(costs));
        tb.populate("/f", FILE, Locality::CoLocated);
        let client = tb.make_client();
        let cold = read_mbps(&mut tb.w, tb.client_vm, client);
        let warm = read_mbps(&mut tb.w, tb.client_vm, client);
        t.row(label, vec![cold, warm]);
    }
    t.note("smaller slots cost more per-slot spinlock/bookkeeping work per byte");
    vec![t]
}

/// Host-FS bypass: mounted-image reads (host page cache) vs raw-device
/// reads with manual address translation.
pub fn run_bypass() -> Vec<Table> {
    let mut t = Table::new(
        "ablate-bypass",
        "vRead mounted-image reads vs raw-device bypass (MB/s)",
        &["variant", "read", "re-read"],
    );
    for (bypass, label) in [
        (false, "mounted (paper design)"),
        (true, "bypass host FS (§6)"),
    ] {
        let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadRdma));
        tb.populate("/f", FILE, Locality::CoLocated);
        let client = tb.make_client();
        if bypass {
            let daemons: Vec<_> = {
                let reg = tb.w.ext.get::<VreadRegistry>().expect("vread deployed");
                reg.daemons.values().map(|(a, _)| *a).collect()
            };
            for d in daemons {
                tb.w.send_now(d, SetBypassHostFs(true));
            }
        }
        let cold = read_mbps(&mut tb.w, tb.client_vm, client);
        let warm = read_mbps(&mut tb.w, tb.client_vm, client);
        t.row(label, vec![cold, warm]);
    }
    t.note("the bypass cannot benefit from the host page cache: re-reads stay disk-bound (the paper's §6 argument)");
    vec![t]
}

/// SR-IOV device assignment vs vRead (paper §6 "Interplay with Modern
/// Hardware"): direct NIC assignment helps inter-host traffic but does
/// nothing for the co-located inter-VM path vRead targets.
pub fn run_sriov() -> Vec<Table> {
    let mut t = Table::new(
        "ablate-sriov",
        "remote & co-located vanilla reads with SR-IOV NICs vs vRead (MB/s, re-read)",
        &["variant", "remote", "co-located"],
    );
    let measure = |path: ReadPath, sriov: bool| -> (f64, f64) {
        let mut out = [0.0f64; 2];
        for (i, locality) in [Locality::Remote, Locality::CoLocated].iter().enumerate() {
            let costs = Costs {
                sriov_nics: sriov,
                ..Default::default()
            };
            let mut tb = Testbed::build(TestbedOpts::new().path(path).costs(costs));
            tb.populate("/f", FILE, *locality);
            let client = tb.make_client();
            let _cold = read_mbps(&mut tb.w, tb.client_vm, client);
            out[i] = read_mbps(&mut tb.w, tb.client_vm, client); // re-read (CPU bound)
        }
        (out[0], out[1])
    };
    for (label, path, sriov) in [
        ("vanilla", ReadPath::Vanilla, false),
        ("vanilla + SR-IOV", ReadPath::Vanilla, true),
        ("vRead", ReadPath::VreadRdma, false),
    ] {
        let (remote, colocated) = measure(path, sriov);
        t.row(label, vec![remote, colocated]);
    }
    t.note("SR-IOV speeds up the remote vanilla path but cannot touch the co-located inter-VM flow (paper §6)");
    vec![t]
}

/// Content-addressed host store vs per-VM LRU, sweeping the hash
/// admission cost (DESIGN.md §15).
///
/// Topology: one host carrying *two* client VMs and *two* datanode VMs,
/// a 2-way replicated file across both datanodes — the multi-tenant
/// shape where two co-located images hold byte-identical blocks. Tenant
/// 1 reads cold through the rotating primaries; then every block's
/// replica list is rotated and tenant 2 (its own vfd table) re-reads
/// through the *sibling* replicas. A content-addressed store serves
/// tenant 2 from already-resident content (zero-copy map, one copy per
/// read); the LRU store keys by image object and goes back to disk.
pub fn run_cas() -> Vec<Table> {
    let mut t = Table::new(
        "ablate-cas",
        "content-addressed host store vs per-VM LRU (2-way co-located replicas; MB/s, copies, capacity)",
        &["store", "cold", "sibling re-read", "copies/read", "capacity_x"],
    );
    let mut run = |label: &str, mode: HostCacheMode, hash: f64| {
        let costs = Costs {
            cas_hash_cyc_per_byte: hash,
            ..Default::default()
        };
        let plan = DeployPlan::new(42)
            .path(ReadPath::VreadRdma)
            .spans(true)
            .costs(costs)
            .host("h1", 8, 2.0)
            .vm("client", "h1", VmRole::Client, None)
            .vm("client2", "h1", VmRole::Client, None)
            .vm("dn1", "h1", VmRole::Datanode, None)
            .vm("dn2", "h1", VmRole::Datanode, None)
            .file(FileSpec {
                path: "/f".to_owned(),
                mb: FILE >> 20,
                placement: vec!["dn1".to_owned(), "dn2".to_owned()],
                replicate: true,
            })
            .host_cache(HostCacheSpec {
                mode,
                capacity_mb: None,
                chunk_kb: None,
            });
        let mut d = Deployment::build(plan).expect("cas ablation deploys");
        let vm1 = d.client_vm(Some("client")).expect("client VM");
        let vm2 = d.client_vm(Some("client2")).expect("client2 VM");
        let client1 = d.make_client(vm1);
        let client2 = d.add_client_on(vm2);
        let cold = read_mbps(&mut d.w, vm1, client1);
        // Isolate tenant 2 in the flight recorder, then send every
        // block's read to its sibling replica.
        let _ = d.w.spans.drain();
        let meta = d.w.ext.get_mut::<HdfsMeta>().expect("meta");
        for f in meta.files.values_mut() {
            for b in &mut f.blocks {
                b.replicas.rotate_left(1);
            }
        }
        let sibling = read_mbps(&mut d.w, vm2, client2);
        let spans = SpanSummary::collect(&mut d.w);
        let copies = spans.reads().copies_per_read();
        let cl =
            d.w.ext
                .get::<vread_host::cluster::Cluster>()
                .expect("cluster");
        let capacity_x = HostCacheReport::collect(cl).effective_capacity_x;
        t.row(label, vec![cold, sibling, copies, capacity_x]);
    };
    run("lru", HostCacheMode::Lru, 0.45);
    run("cas hash=0", HostCacheMode::Cas, 0.0);
    run("cas hash=0.45 (default)", HostCacheMode::Cas, 0.45);
    run("cas hash=2", HostCacheMode::Cas, 2.0);
    run("cas hash=8", HostCacheMode::Cas, 8.0);
    t.note("sibling re-reads hit content another image admitted: served by page mapping (1 copy/read) at 2x effective capacity; the hash cost taxes only cold admissions");
    vec![t]
}

/// HVE topology awareness on/off with 2-way replicated blocks.
pub fn run_hve() -> Vec<Table> {
    let mut t = Table::new(
        "ablate-hve",
        "replica choice with/without HVE topology awareness (MB/s, vanilla reads)",
        &["variant", "read"],
    );
    for (aware, label) in [(true, "HVE on (prefer co-located)"), (false, "HVE off")] {
        let mut tb = Testbed::build(TestbedOpts::new());
        // every block on both datanodes, primary rotating
        let placement = Placement::Replicated(vec![tb.dn_local, tb.dn_remote]);
        populate_file(&mut tb.w, "/f", FILE, &placement);
        tb.w.ext
            .get_mut::<vread_hdfs::HdfsMeta>()
            .expect("meta")
            .topology_aware = aware;
        let client = tb.make_client();
        let mbps = read_mbps(&mut tb.w, tb.client_vm, client);
        t.row(label, vec![mbps]);
    }
    t.note("without awareness half the reads go to the remote replica");
    vec![t]
}
