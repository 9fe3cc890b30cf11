//! Criterion benchmarks of the end-to-end simulated data paths — how
//! fast the *simulator* itself executes a full HDFS read scenario, per
//! path. (The paper-facing results come from `repro`; these track the
//! harness's own performance.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vread_bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use vread_core::VreadRegistry;
use vread_hdfs::client::{DfsRead, DfsReadDone};
use vread_sim::prelude::*;

struct OneShot {
    client: ActorId,
    bytes: u64,
}
impl Actor for OneShot {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            let me = ctx.me();
            ctx.send(
                self.client,
                DfsRead {
                    req: 1,
                    reply_to: me,
                    path: "/bench".into(),
                    offset: 0,
                    len: self.bytes,
                    pread: false,
                },
            );
        } else if msg.is::<DfsReadDone>() {
            ctx.metrics().incr("done");
        }
    }
}

fn scenario(path: ReadPath) -> World {
    let mut tb = Testbed::build(TestbedOpts::new().path(path));
    tb.populate("/bench", 64 << 20, Locality::CoLocated);
    let client = tb.make_client();
    let a = tb.w.add_actor(
        "app",
        OneShot {
            client,
            bytes: 64 << 20,
        },
    );
    tb.w.send_now(a, Start);
    tb.w
}

fn bench_paths(c: &mut Criterion) {
    for (name, path) in [
        ("datapath/vanilla_64mb_read", ReadPath::Vanilla),
        ("datapath/vread_64mb_read", ReadPath::VreadRdma),
        ("datapath/vread_tcp_64mb_read", ReadPath::VreadTcp),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || scenario(path),
                |mut w| {
                    w.run();
                    assert_eq!(w.metrics.counter("done"), 1.0);
                    w.events_processed()
                },
                BatchSize::SmallInput,
            );
        });
    }
}

fn bench_ring_stage_build(c: &mut Criterion) {
    use vread_core::RingSpec;
    use vread_host::costs::Costs;
    let costs = Costs::default();
    let ring = RingSpec::from_costs(&costs);
    let t = ThreadId::from_raw(0);
    c.bench_function("datapath/ring_stage_build_256k", |b| {
        b.iter(|| {
            let mut st = ring.daemon_push_stages(&costs, t, 256 * 1024);
            st.extend(ring.guest_pop_stages(&costs, t, 256 * 1024));
            st.remaining()
        });
    });
}

fn bench_remote_setup(c: &mut Criterion) {
    // daemon-to-daemon connection establishment + registry lookups
    c.bench_function("datapath/testbed_build_with_vread", |b| {
        b.iter(|| {
            let mut tb = Testbed::build(TestbedOpts::new().path(ReadPath::VreadRdma));
            let _c = tb.make_client();
            assert!(tb.w.ext.get::<VreadRegistry>().is_some());
            tb.w.events_processed()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_paths, bench_ring_stage_build, bench_remote_setup
}
criterion_main!(benches);
