//! Store-mode equivalence and dedup properties of the host block store.
//!
//! The content-addressed store (DESIGN.md §15) must be an accounting
//! change only: whatever the workload mix, swapping the per-VM LRU page
//! cache for the CAS store may change *cycles* (hash admissions, mapped
//! serves) but never *payload* — every byte still arrives, spans still
//! conserve engine cycles, and replays stay bit-identical. And in the
//! multi-tenant shape the paper motivates (two co-located VMs whose
//! images hold the same replicated blocks), the CAS store must do
//! strictly better than the LRU: dedup hits where the LRU re-reads disk.

use proptest::prelude::*;
use vread_apps::java_reader::ReaderMode;
use vread_bench::experiments::reader_pass;
use vread_bench::spec::{FileSpec, VmRole, WorkloadBinding};
use vread_bench::{
    DeployPlan, Deployment, HostCacheReport, HostCacheSpec, ReadPath, ScenarioSpec, SpanSummary,
    WorkloadSpec,
};
use vread_hdfs::HdfsMeta;
use vread_host::cluster::{Cluster, HostCacheMode, VmId};
use vread_sim::prelude::*;

const FILE: u64 = 32 << 20;
const REQ: u64 = 1 << 20;

/// One full sequential read of `/f` by `client` in `vm` on a raw
/// deployment (metrics are not reset).
fn read_f(d: &mut Deployment, client: ActorId, vm: VmId) {
    let path = "/f".to_owned();
    reader_pass(&mut d.w, vm, ReaderMode::Dfs { client, path }, REQ, FILE);
}

/// Two co-located tenants read the same 2-way-replicated file, the
/// second through the sibling replicas (its own vfd table, rotated
/// primaries); returns the host store counters and the span ledger.
fn two_tenant_store_report(mode: HostCacheMode) -> (HostCacheReport, SpanSummary) {
    let plan = DeployPlan::new(42)
        .path(ReadPath::VreadRdma)
        .spans(true)
        .host("h1", 8, 2.0)
        .vm("t1", "h1", VmRole::Client, None)
        .vm("t2", "h1", VmRole::Client, None)
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
    let mut d = Deployment::build(plan).expect("two-tenant plan deploys");
    let vm1 = d.client_vm(Some("t1")).unwrap();
    let vm2 = d.client_vm(Some("t2")).unwrap();
    let c1 = d.add_client_on(vm1);
    let c2 = d.add_client_on(vm2);
    read_f(&mut d, c1, vm1);
    // Send tenant 2's reads to each block's sibling replica — the other
    // image holding the same bytes.
    let meta = d.w.ext.get_mut::<HdfsMeta>().expect("meta");
    for f in meta.files.values_mut() {
        for b in &mut f.blocks {
            b.replicas.rotate_left(1);
        }
    }
    read_f(&mut d, c2, vm2);
    let spans = SpanSummary::collect(&mut d.w);
    let cl = d.w.ext.get::<Cluster>().expect("cluster");
    (HostCacheReport::collect(cl), spans)
}

/// Fraction of lookups served without touching disk.
fn hit_ratio(r: &HostCacheReport) -> f64 {
    let total = r.hits + r.misses;
    r.hits as f64 / total.max(1) as f64
}

#[test]
fn cas_dedup_hit_ratio_beats_lru_for_shared_replicas() {
    let (lru, _) = two_tenant_store_report(HostCacheMode::Lru);
    let (cas, spans) = two_tenant_store_report(HostCacheMode::Cas);
    assert_eq!(lru.dedup_hits, 0, "the LRU store cannot dedup: {lru:?}");
    assert!(
        cas.dedup_hits > 0,
        "sibling reads hit shared content: {cas:?}"
    );
    assert!(
        hit_ratio(&cas) >= hit_ratio(&lru),
        "cas {cas:?} vs lru {lru:?}",
    );
    assert!(
        cas.effective_capacity_x > 1.5,
        "2-way replicas nearly halve residency: {cas:?}",
    );
    // The dedup ledger: tenant 1 reads cold through the ring (2
    // copies/read); tenant 2's sibling reads are served by page mapping
    // at 1 copy/read, strictly below a local vRead read.
    let agg = spans.reads();
    assert!(
        (agg.min_copies_per_read - 1.0).abs() < 1e-9
            && (agg.max_copies_per_read - 2.0).abs() < 1e-9,
        "dedup reads at 1 copy/read, cold at 2: {agg:?}",
    );
    assert!(agg.mapped_bytes > 0, "dedup serves map pages: {agg:?}");
    assert!(spans.conserves_cycles(), "span cycles conserve");
}

/// The two-tenant scenario as a spec, parameterized over store mode.
fn tenant_spec(seed: u64, mb: u64, mode: HostCacheMode) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        seed,
        ..ScenarioSpec::builder()
    }
    .path(ReadPath::VreadRdma)
    .spans(true)
    .host("h1", 8, 2.0)
    .client("t1", "h1")
    .client("t2", "h1")
    .datanode("dn1", "h1")
    .datanode("dn2", "h1")
    .replicated_file("/d", mb, &["dn1", "dn2"])
    .host_cache(HostCacheSpec {
        mode,
        capacity_mb: None,
        chunk_kb: None,
    });
    for (client, start_ms) in [("t1", 0), ("t2", 50)] {
        spec.workloads.push(WorkloadBinding {
            client: Some(client.to_owned()),
            start_ms,
            kind: WorkloadSpec::Reader {
                path: "/d".to_owned(),
                request_kb: 1024,
            },
        });
    }
    spec.build().expect("tenant spec is statically valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the seed and file size, the CAS and LRU runs deliver the
    /// same payload, both conserve engine cycles in the span ledger, the
    /// report block appears only in cas mode, and the cas run replays
    /// bit-identically.
    #[test]
    fn cas_and_lru_agree_on_payload_and_conserve_cycles(
        seed in 0u64..1_000,
        mb in 4u64..16,
    ) {
        let lru = tenant_spec(seed, mb, HostCacheMode::Lru).run().expect("lru run");
        let cas = tenant_spec(seed, mb, HostCacheMode::Cas).run().expect("cas run");
        prop_assert_eq!(lru.bytes, cas.bytes, "payload is store-independent");
        prop_assert_eq!(cas.bytes, 2 * (mb << 20), "both tenants read everything");
        for (name, r) in [("lru", &lru), ("cas", &cas)] {
            let sp = r.spans.as_ref().expect("spans enabled");
            let lhs = sp.report.total_cycles() + sp.report.unattributed_cycles;
            prop_assert!(
                (lhs - sp.acct_cycles).abs() <= sp.acct_cycles.abs() * 1e-6 + 1.0,
                "{}: span {} + unattributed {} != engine {}",
                name,
                sp.report.total_cycles(),
                sp.report.unattributed_cycles,
                sp.acct_cycles,
            );
        }
        prop_assert!(lru.host_cache.is_none(), "lru reports stay unchanged");
        prop_assert!(cas.host_cache.is_some(), "cas runs report their store");
        let again = tenant_spec(seed, mb, HostCacheMode::Cas).run().expect("replay");
        prop_assert_eq!(again.to_json(), cas.to_json(), "cas replay is bit-identical");
    }
}
