//! Additional connection tests: bidirectional traffic, mixed endpoints,
//! and property-based delivery exactness.

use proptest::prelude::*;
use vread_host::cluster::{Cluster, VmId};
use vread_host::costs::Costs;
use vread_host::with_cluster;
use vread_net::conn::{add_conn, ConnRecv, ConnSend, Endpoint, Flavor, Side};
use vread_sim::prelude::*;

struct Collect {
    got: std::rc::Rc<std::cell::RefCell<Vec<(Side, u64, u64)>>>,
}
impl Actor for Collect {
    fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
        if let Ok(r) = downcast::<ConnRecv>(msg) {
            self.got.borrow_mut().push((r.side, r.tag, r.bytes));
        }
    }
}

fn world2() -> (World, VmId, VmId) {
    let mut w = World::new(5);
    let mut cl = Cluster::new(Costs::default());
    let h = cl.add_host(&mut w, "h", 4, 3.2);
    let a = cl.add_vm(&mut w, h, "a");
    let b = cl.add_vm(&mut w, h, "b");
    w.ext.insert(cl);
    (w, a, b)
}

#[test]
fn bidirectional_traffic_does_not_interfere() {
    let (mut w, vma, vmb) = world2();
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let pa = w.add_actor("pa", Collect { got: got.clone() });
    let pb = w.add_actor("pb", Collect { got: got.clone() });
    let conn = with_cluster(&mut w, |cl, w| {
        add_conn(
            w,
            cl,
            Endpoint {
                actor: pa,
                flavor: Flavor::Guest(vma),
            },
            Endpoint {
                actor: pb,
                flavor: Flavor::Guest(vmb),
            },
        )
    });
    // simultaneous full-duplex streams
    w.send_now(
        conn,
        ConnSend {
            dir: Side::A,
            bytes: 3 << 20,
            tag: 1,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.send_now(
        conn,
        ConnSend {
            dir: Side::B,
            bytes: 2 << 20,
            tag: 2,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.send_now(
        conn,
        ConnSend {
            dir: Side::A,
            bytes: 1 << 20,
            tag: 3,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.run();
    let got = got.borrow();
    // B received A's two messages in order; A received B's one
    let to_b: Vec<_> = got.iter().filter(|(s, ..)| *s == Side::B).collect();
    let to_a: Vec<_> = got.iter().filter(|(s, ..)| *s == Side::A).collect();
    assert_eq!(
        to_b.iter().map(|(_, t, b)| (*t, *b)).collect::<Vec<_>>(),
        vec![(1, 3 << 20), (3, 1 << 20)]
    );
    assert_eq!(
        to_a.iter().map(|(_, t, b)| (*t, *b)).collect::<Vec<_>>(),
        vec![(2, 2 << 20)]
    );
}

#[test]
fn guest_to_hostuser_endpoint_works() {
    let (mut w, vma, _) = world2();
    let host_id = w.ext.get::<Cluster>().unwrap().hosts[0].host;
    let host_thread = w.add_thread(host_id, "hostproc");
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let pa = w.add_actor("pa", Collect { got: got.clone() });
    let pb = w.add_actor("pb", Collect { got: got.clone() });
    let conn = with_cluster(&mut w, |cl, w| {
        add_conn(
            w,
            cl,
            Endpoint {
                actor: pa,
                flavor: Flavor::Guest(vma),
            },
            Endpoint {
                actor: pb,
                flavor: Flavor::HostUser {
                    thread: host_thread,
                    cat: CpuCategory::VreadNet,
                },
            },
        )
    });
    w.send_now(
        conn,
        ConnSend {
            dir: Side::A,
            bytes: 1 << 20,
            tag: 7,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.run();
    assert_eq!(got.borrow().len(), 1);
    assert!(w.acct.cycles(host_thread.index(), CpuCategory::VreadNet) > 0.0);
}

#[test]
fn handshake_charged_once_per_direction() {
    let (mut w, vma, vmb) = world2();
    let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
    let pa = w.add_actor("pa", Collect { got: got.clone() });
    let pb = w.add_actor("pb", Collect { got: got.clone() });
    let conn = with_cluster(&mut w, |cl, w| {
        add_conn(
            w,
            cl,
            Endpoint {
                actor: pa,
                flavor: Flavor::Guest(vma),
            },
            Endpoint {
                actor: pb,
                flavor: Flavor::Guest(vmb),
            },
        )
    });
    // 1-byte messages isolate fixed costs
    w.send_now(
        conn,
        ConnSend {
            dir: Side::A,
            bytes: 1,
            tag: 1,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.run();
    let (vcpu_a, setup) = {
        let cl = w.ext.get::<Cluster>().unwrap();
        (cl.vm(vma).vcpu, cl.costs.tcp_conn_setup_cycles as f64)
    };
    let after_first = w.acct.cycles(vcpu_a.index(), CpuCategory::GuestTcp);
    assert!(after_first >= setup, "first send pays the handshake");
    w.send_now(
        conn,
        ConnSend {
            dir: Side::A,
            bytes: 1,
            tag: 2,
            notify: false,
            span: SpanId::NONE,
        },
    );
    w.run();
    let after_second = w.acct.cycles(vcpu_a.index(), CpuCategory::GuestTcp);
    assert!(
        after_second - after_first < setup,
        "second send must not pay the handshake again"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of message sizes is delivered exactly, in order, with
    /// matching tags, under any streaming chunk size.
    #[test]
    fn delivery_is_exact_and_ordered(
        sizes in proptest::collection::vec(1u64..6_000_000, 1..12),
        chunk_kb in 16u64..512,
    ) {
        let (mut w, vma, vmb) = world2();
        w.ext.get_mut::<Cluster>().unwrap().costs.stream_chunk_bytes = chunk_kb << 10;
        let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
        let pa = w.add_actor("pa", Collect { got: got.clone() });
        let pb = w.add_actor("pb", Collect { got: got.clone() });
        let conn = with_cluster(&mut w, |cl, w| {
            add_conn(
                w,
                cl,
                Endpoint { actor: pa, flavor: Flavor::Guest(vma) },
                Endpoint { actor: pb, flavor: Flavor::Guest(vmb) },
            )
        });
        for (i, &bytes) in sizes.iter().enumerate() {
            w.send_now(conn, ConnSend { dir: Side::A, bytes, tag: i as u64, notify: false, span: SpanId::NONE });
        }
        w.run();
        let got = got.borrow();
        let received: Vec<(u64, u64)> = got.iter().map(|(_, t, b)| (*t, *b)).collect();
        let expected: Vec<(u64, u64)> =
            sizes.iter().enumerate().map(|(i, &b)| (i as u64, b)).collect();
        prop_assert_eq!(received, expected);
    }
}
