//! End-to-end copy-count invariants from the span flight recorder.
//!
//! The paper's §2 accounting argument, checked per read path against
//! the span ledger's byte-exact `copy_bytes / payload_bytes`:
//!
//! | path                       | copies/read |
//! |----------------------------|-------------|
//! | vanilla, dn page-cache miss| 6           |
//! | vanilla, dn page-cache hit | 5           |
//! | vRead, local ring          | 2           |
//! | vRead, remote over RDMA    | 3           |
//! | vRead, remote over TCP     | 4           |
//!
//! Plus the cycle-conservation property: everything the engine charges
//! while the recorder is on lands either on a span or in the
//! unattributed pool — no lost or double-counted work.

use proptest::prelude::*;
use vread_apps::java_reader::ReaderMode;
use vread_bench::experiments::reader_pass;
use vread_bench::spec::WorkloadSpec;
use vread_bench::{Locality, ReadPath, ScenarioSpec, SpanSummary, Testbed, TestbedOpts};
use vread_sim::prelude::*;

const FILE: u64 = 8 << 20;
const REQ: u64 = 1 << 20;

/// One full sequential read of `/f` on the testbed, with fresh metrics.
fn read_f(tb: &mut Testbed, client: ActorId) {
    tb.w.metrics.reset();
    let path = "/f".to_owned();
    let mode = ReaderMode::Dfs { client, path };
    reader_pass(&mut tb.w, tb.client_vm, mode, REQ, FILE);
}

/// Asserts every ledger row of a drained summary sits at `expect`
/// copies per read. The ledger is byte-exact, so on paths that move
/// request headers through copying sockets (vanilla's block requests)
/// the ratio sits a hair above the integer — under 0.1% of payload —
/// which the tolerance admits while still distinguishing 5 from 6.
fn assert_copies(summary: &SpanSummary, expect: f64, what: &str) {
    let ledger = summary.report.read_ledger();
    assert!(!ledger.is_empty(), "{what}: ledger has reads");
    for r in &ledger {
        let over = r.copies_per_read - expect;
        assert!(
            (0.0..0.01).contains(&over),
            "{what}: read {:?} shows {} copies/read, expected {expect}",
            r.id,
            r.copies_per_read,
        );
    }
}

#[test]
fn vanilla_cache_miss_then_hit_copies() {
    let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::Vanilla));
    tb.populate("/f", FILE, Locality::CoLocated);
    let client = tb.make_client();
    tb.w.spans.enable();

    // Cold pass: the datanode page cache is empty, so every chunk pays
    // the virtio DMA copy on top of the fused read — 6 copies.
    read_f(&mut tb, client);
    let cold = SpanSummary::collect(&mut tb.w);
    assert_copies(&cold, 6.0, "vanilla cold");

    // Warm pass: page-cache hits drop the DMA copy — the paper's
    // canonical 5 copies (Fig 1).
    read_f(&mut tb, client);
    let warm = SpanSummary::collect(&mut tb.w);
    assert_copies(&warm, 5.0, "vanilla warm");
}

#[test]
fn vread_local_ring_is_two_copies() {
    let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadRdma));
    tb.populate("/f", FILE, Locality::CoLocated);
    let client = tb.make_client();
    tb.w.spans.enable();

    // Local vRead reads move each byte exactly twice (daemon → shared
    // ring → guest), cold or warm.
    read_f(&mut tb, client);
    assert_copies(&SpanSummary::collect(&mut tb.w), 2.0, "vread local cold");
    read_f(&mut tb, client);
    assert_copies(&SpanSummary::collect(&mut tb.w), 2.0, "vread local warm");
}

#[test]
fn vread_remote_rdma_is_three_copies() {
    let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadRdma));
    tb.populate("/f", FILE, Locality::Remote);
    let client = tb.make_client();
    tb.w.spans.enable();

    // Remote over RDMA: MR staging copy on the serving host + the two
    // ring copies on the client host.
    read_f(&mut tb, client);
    assert_copies(&SpanSummary::collect(&mut tb.w), 3.0, "vread remote rdma");
}

#[test]
fn vread_remote_tcp_is_four_copies() {
    let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadTcp));
    tb.populate("/f", FILE, Locality::Remote);
    let client = tb.make_client();
    tb.w.spans.enable();

    // Remote over the user-space TCP fallback: sender + receiver copies
    // plus the two ring copies.
    read_f(&mut tb, client);
    assert_copies(&SpanSummary::collect(&mut tb.w), 4.0, "vread remote tcp");
}

/// The canonical two-host spec with spans on, parameterized over what a
/// property case varies.
fn spans_spec(seed: u64, path: ReadPath, mb: u64, remote: bool) -> ScenarioSpec {
    let placement: &[&str] = if remote { &["dn2"] } else { &["dn1"] };
    ScenarioSpec {
        seed,
        ..ScenarioSpec::builder()
    }
    .path(path)
    .spans(true)
    .host("h1", 4, 2.0)
    .host("h2", 4, 2.0)
    .client("client", "h1")
    .datanode("dn1", "h1")
    .datanode("dn2", "h2")
    .file("/d", mb, placement)
    .workload(WorkloadSpec::Reader {
        path: "/d".to_owned(),
        request_kb: 1024,
    })
    .build()
    .expect("spec is statically valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// Cycles attributed to spans plus the unattributed pool equal the
    /// engine's total charged cycles, whatever the seed, path, data
    /// locality, or file size. With the data co-located, the copy
    /// ledger also holds the paper's invariant (§2) on every read:
    /// vanilla moves the payload at least 5 times, vRead exactly twice.
    #[test]
    fn span_cycles_conserve_engine_accounting(
        seed in 0u64..1_000,
        path_ix in 0usize..3,
        mb in 2u64..12,
        remote_ix in 0usize..2,
    ) {
        let path = ReadPath::ALL[path_ix];
        let remote = remote_ix == 1;
        let spec = spans_spec(seed, path, mb, remote);
        let report = spec.run().expect("scenario terminates");
        let sp = report.spans.expect("spans enabled");
        let lhs = sp.report.total_cycles() + sp.report.unattributed_cycles;
        prop_assert!(
            (lhs - sp.acct_cycles).abs() <= sp.acct_cycles.abs() * 1e-6 + 1.0,
            "span {} + unattributed {} != engine {}",
            sp.report.total_cycles(),
            sp.report.unattributed_cycles,
            sp.acct_cycles,
        );
        // and the ledger accounted every payload byte exactly once
        let agg = sp.reads();
        prop_assert_eq!(agg.payload_bytes, mb << 20);
        if !remote {
            let (min, max) = (agg.min_copies_per_read, agg.max_copies_per_read);
            match path {
                ReadPath::Vanilla => {
                    prop_assert!(min >= 5.0 - 1e-9, "vanilla min copies/read {}", min);
                }
                ReadPath::VreadRdma | ReadPath::VreadTcp => prop_assert!(
                    (min - 2.0).abs() < 1e-9 && (max - 2.0).abs() < 1e-9,
                    "{} copies/read min {} max {}, expected 2",
                    path.as_str(),
                    min,
                    max,
                ),
            }
        }
    }
}
