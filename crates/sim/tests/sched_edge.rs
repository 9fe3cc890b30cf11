//! Scheduler edge cases: clock-rate scaling, heavy
//! oversubscription, slice rotation fairness, zero-length stages.

use vread_sim::prelude::*;

struct Hog {
    thread: ThreadId,
    burst: u64,
}
struct Done;
impl Actor for Hog {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() || msg.is::<Done>() {
            let me = ctx.me();
            ctx.cpu(self.thread, self.burst, CpuCategory::Other, me, Done);
        }
    }
}

/// Cycles one always-busy thread retires in 50 ms on a one-core host
/// clocked at `ghz`.
fn cycles_in_50ms(ghz: f64) -> f64 {
    let mut w = World::new(1);
    let h = w.add_host("h", 1, ghz);
    let t = w.add_thread(h, "t");
    let a = w.add_actor(
        "hog",
        Hog {
            thread: t,
            burst: 1_000_000,
        },
    ); // 1ms at 1GHz
    w.send_now(a, Start);
    w.run_until(w.now() + SimDuration::from_millis(50));
    w.acct.total_cycles(t.index())
}

#[test]
fn doubling_the_clock_doubles_retired_cycles() {
    // Twice the cycles retire per wall second at twice the clock.
    let ratio = cycles_in_50ms(2.0) / cycles_in_50ms(1.0);
    assert!(
        (1.8..2.2).contains(&ratio),
        "2x clock should retire ~2x cycles (ratio {ratio})"
    );
}

#[test]
fn heavy_oversubscription_is_fair_and_conserving() {
    // 12 always-runnable threads on 2 cores.
    let mut w = World::new(3);
    let h = w.add_host("h", 2, 2.0);
    let mut threads = Vec::new();
    for i in 0..12 {
        let t = w.add_thread(h, &format!("t{i}"));
        threads.push(t);
        let a = w.add_actor(
            &format!("h{i}"),
            Hog {
                thread: t,
                burst: 200_000,
            },
        );
        w.send_now(a, Start);
    }
    w.run_until(w.now() + SimDuration::from_millis(300));
    let busies: Vec<f64> = threads
        .iter()
        .map(|t| w.acct.busy_ns(t.index()) as f64)
        .collect();
    let total: f64 = busies.iter().sum();
    // conservation: 2 cores × 300ms
    assert!(total <= 600e6 * 1.001, "over-committed: {total}");
    assert!(total >= 590e6, "cores should be saturated: {total}");
    // fairness: every thread within ±25% of the fair share
    let fair = total / 12.0;
    for (i, b) in busies.iter().enumerate() {
        assert!(
            (b - fair).abs() < fair * 0.25,
            "thread {i} got {b} vs fair {fair}"
        );
    }
}

#[test]
fn zero_cycle_stages_complete_instantly() {
    struct Fin;
    struct Sink {
        at: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Actor for Sink {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Fin>() {
                self.at.set(ctx.now().as_nanos());
            }
        }
    }
    let mut w = World::new(1);
    let h = w.add_host("h", 1, 1.0);
    let t = w.add_thread(h, "t");
    let at = std::rc::Rc::new(std::cell::Cell::new(u64::MAX));
    let s = w.add_actor("sink", Sink { at: at.clone() });
    w.start_chain(
        vec![
            Stage::cpu(t, 0, CpuCategory::Other),
            Stage::Delay {
                dur: SimDuration::ZERO,
            },
            Stage::cpu(t, 0, CpuCategory::Other),
        ],
        s,
        Fin,
    );
    w.run();
    assert_eq!(at.get(), 0, "all-zero chain completes at t=0");
}

#[test]
fn run_until_sees_partial_charges() {
    // run_until must charge running cores so snapshots between events are
    // exact (the accounting-truncation regression).
    let mut w = World::new(1);
    let h = w.add_host("h", 1, 1.0);
    let t = w.add_thread(h, "t");
    let a = w.add_actor(
        "hog",
        Hog {
            thread: t,
            burst: 100_000_000,
        },
    ); // 100ms burst
    w.send_now(a, Start);
    w.run_until(SimTime::from_nanos(30_000_000)); // mid-burst
    let busy = w.acct.busy_ns(t.index());
    assert!(
        (29_000_000..=30_000_001).contains(&busy),
        "mid-burst charge {busy} should be ~30ms"
    );
}

#[test]
fn many_short_wakeups_no_lost_work() {
    // Interleave many tiny chains across threads; everything completes.
    struct Count;
    struct Counter {
        n: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Actor for Counter {
        fn handle(&mut self, msg: BoxMsg, _ctx: &mut Ctx<'_>) {
            if msg.is::<Count>() {
                self.n.set(self.n.get() + 1);
            }
        }
    }
    let mut w = World::new(9);
    let h = w.add_host("h", 3, 2.0);
    let ts: Vec<ThreadId> = (0..6).map(|i| w.add_thread(h, &format!("t{i}"))).collect();
    let n = std::rc::Rc::new(std::cell::Cell::new(0));
    let c = w.add_actor("counter", Counter { n: n.clone() });
    for i in 0..500 {
        let t1 = ts[i % 6];
        let t2 = ts[(i + 3) % 6];
        w.start_chain(
            vec![
                Stage::cpu(t1, 1_000 + (i as u64 % 7) * 100, CpuCategory::Other),
                Stage::cpu(t2, 500, CpuCategory::Other),
            ],
            c,
            Count,
        );
    }
    w.run();
    assert_eq!(n.get(), 500);
}
