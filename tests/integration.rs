//! Cross-crate integration tests: full scenarios through the public API
//! of the facade crate.

use vread::apps::dfsio::DfsioMode;
use vread::apps::java_reader::ReaderMode;
use vread::bench::experiments::{dfsio_pass, reader_pass};
use vread::bench::scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
use vread::hdfs::client::{DfsRead, DfsReadDone};
use vread::host::Cluster;
use vread::sim::prelude::*;

fn reader_secs(tb: &mut Testbed, client: ActorId, path: &str, req: u64, total: u64) -> f64 {
    tb.w.metrics.reset();
    let mode = ReaderMode::Dfs {
        client,
        path: path.to_owned(),
    };
    let (_, elapsed) = reader_pass(&mut tb.w, tb.client_vm, mode, req, total);
    assert_eq!(tb.w.metrics.counter("reader_bytes"), total as f64);
    elapsed.as_secs_f64()
}

/// The headline claim, end-to-end through every layer: vRead beats
/// vanilla on a co-located read, much more on re-read, in both 2-VM and
/// 4-VM configurations.
#[test]
fn headline_speedups_hold_in_all_vm_configs() {
    for four_vms in [false, true] {
        let mut res = Vec::new();
        for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
            let mut tb = Testbed::build(TestbedOpts::new().four_vms(four_vms).path(path));
            tb.populate("/f", 128 << 20, Locality::CoLocated);
            let client = tb.make_client();
            let cold = reader_secs(&mut tb, client, "/f", 1 << 20, 128 << 20);
            let warm = reader_secs(&mut tb, client, "/f", 1 << 20, 128 << 20);
            res.push((cold, warm));
        }
        let (va, vr) = (res[0], res[1]);
        assert!(
            vr.0 < va.0,
            "cold: vread {} vs vanilla {} (four_vms={four_vms})",
            vr.0,
            va.0
        );
        let cold_speedup = va.0 / vr.0;
        let warm_speedup = va.1 / vr.1;
        assert!(
            warm_speedup > cold_speedup,
            "re-read gains exceed cold gains"
        );
        assert!(
            warm_speedup > 1.8,
            "re-read speedup {warm_speedup} too small"
        );
    }
}

/// Byte-exactness across paths and localities: both read paths deliver
/// exactly the same byte counts for a set of awkward read plans.
#[test]
fn read_plans_agree_across_paths() {
    let plans: &[(u64, u64)] = &[
        (0, 1),
        (0, 96 << 20),
        ((64 << 20) - 1, 2),     // block boundary straddle
        (5 << 20, 60 << 20),     // cross-block middle read
        ((96 << 20) - 10, 1000), // truncated at EOF
        (96 << 20, 5),           // fully past EOF
    ];
    for locality in [Locality::CoLocated, Locality::Remote, Locality::Hybrid] {
        let mut results: Vec<Vec<u64>> = Vec::new();
        for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
            let mut tb = Testbed::build(TestbedOpts::new().ghz(3.2).path(path));
            tb.w.ext
                .get_mut::<vread::hdfs::HdfsMeta>()
                .unwrap()
                .block_bytes = 64 << 20;
            tb.populate("/f", 96 << 20, locality);
            let client = tb.make_client();

            struct Plan {
                client: ActorId,
                plans: Vec<(u64, u64)>,
                next: usize,
                got: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
            }
            impl Actor for Plan {
                fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
                    match downcast::<DfsReadDone>(msg) {
                        Ok(d) => self.got.borrow_mut().push(d.bytes),
                        Err(m) => {
                            if !m.is::<Start>() {
                                return;
                            }
                        }
                    }
                    if self.next < self.plans.len() {
                        let (offset, len) = self.plans[self.next];
                        self.next += 1;
                        let me = ctx.me();
                        ctx.send(
                            self.client,
                            DfsRead {
                                req: self.next as u64,
                                reply_to: me,
                                path: "/f".into(),
                                offset,
                                len,
                                pread: self.next.is_multiple_of(2),
                            },
                        );
                    }
                }
            }
            let got = std::rc::Rc::new(std::cell::RefCell::new(vec![]));
            let a = tb.w.add_actor(
                "plan",
                Plan {
                    client,
                    plans: plans.to_vec(),
                    next: 0,
                    got: got.clone(),
                },
            );
            tb.w.send_now(a, Start);
            tb.w.run();
            results.push(got.borrow().clone());
        }
        assert_eq!(
            results[0], results[1],
            "paths disagree for locality {locality:?}"
        );
        // and both match the analytically expected byte counts
        let expected: Vec<u64> = plans
            .iter()
            .map(|&(off, len)| (96u64 << 20).saturating_sub(off).min(len))
            .collect();
        assert_eq!(results[0], expected);
    }
}

/// CPU conservation across a full DFSIO scenario: total busy time never
/// exceeds cores × wall time on any host, and the vRead run burns fewer
/// total cycles than vanilla.
#[test]
fn accounting_is_conserved_and_vread_cheaper() {
    let mut totals = Vec::new();
    for path in [ReadPath::Vanilla, ReadPath::VreadRdma] {
        let mut tb = Testbed::build(TestbedOpts::new().path(path));
        let files = vec!["/a".to_string(), "/b".to_string()];
        for f in &files {
            tb.populate(f, 64 << 20, Locality::Hybrid);
        }
        let client = tb.make_client();
        let (w, vm) = (&mut tb.w, tb.client_vm);
        dfsio_pass(w, vm, client, DfsioMode::Read, &files, 64 << 20);

        // conservation per host
        let hosts: Vec<_> = {
            let cl = tb.w.ext.get::<Cluster>().unwrap();
            cl.hosts.iter().map(|h| h.host).collect()
        };
        let elapsed = tb.w.now().as_nanos();
        // The testbed's hosts have 4 cores each.
        for h in hosts {
            let mut busy = 0u64;
            for t in 0..tb.w.acct.len() {
                if tb.w.thread_host(ThreadId::from_raw(t as u32)) == h {
                    busy += tb.w.acct.busy_ns(t);
                }
            }
            assert!(busy <= elapsed * 4, "host {h:?} over-committed");
        }
        let cycles: f64 = (0..tb.w.acct.len())
            .map(|t| tb.w.acct.total_cycles(t))
            .sum();
        totals.push(cycles);
    }
    assert!(
        totals[1] < totals[0] * 0.8,
        "vread total cycles {} should be well below vanilla {}",
        totals[1],
        totals[0]
    );
}

/// Determinism of an entire testbed scenario.
#[test]
fn scenarios_are_deterministic() {
    let run = || {
        let mut tb = Testbed::build(TestbedOpts::new().four_vms(true).path(ReadPath::VreadRdma));
        tb.populate("/f", 32 << 20, Locality::Hybrid);
        let client = tb.make_client();
        let secs = reader_secs(&mut tb, client, "/f", 1 << 20, 32 << 20);
        (secs.to_bits(), tb.w.events_processed())
    };
    assert_eq!(run(), run());
}

/// Frequency scaling behaves like the paper's cpufreq experiments: lower
/// clocks hurt vanilla more than vRead.
#[test]
fn frequency_scaling_widens_the_gap() {
    let tput = |ghz: f64, path: ReadPath| {
        let mut tb = Testbed::build(TestbedOpts::new().ghz(ghz).path(path));
        tb.populate("/f", 96 << 20, Locality::CoLocated);
        let client = tb.make_client();
        // measure re-read (CPU-bound regime)
        let _ = reader_secs(&mut tb, client, "/f", 1 << 20, 96 << 20);
        let secs = reader_secs(&mut tb, client, "/f", 1 << 20, 96 << 20);
        (96 << 20) as f64 / secs
    };
    let slow_gain = tput(1.6, ReadPath::VreadRdma) / tput(1.6, ReadPath::Vanilla);
    let fast_gain = tput(3.2, ReadPath::VreadRdma) / tput(3.2, ReadPath::Vanilla);
    assert!(slow_gain > 1.2 && fast_gain > 1.2);
}
