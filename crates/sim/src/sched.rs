//! A CFS-like fair CPU scheduler for simulated hosts.
//!
//! Each host has a fixed number of cores and a set of threads (vCPUs,
//! vhost-net I/O threads, hypervisor daemon threads, load generators).
//! Threads receive *work items* — the CPU stages of [`crate::Stage`]
//! chains — and become runnable whenever their work queue is non-empty.
//!
//! The policy mirrors Linux CFS closely enough to reproduce the phenomena
//! the paper measures:
//!
//! * **virtual runtime ordering** — the runnable thread with the smallest
//!   vruntime runs next; each host keeps one global run queue (the hosts in
//!   the paper are quad-cores; per-core queues + load balancing would add
//!   noise without changing the emergent behaviour);
//! * **slices** — a running thread is preempted after
//!   `clamp(LATENCY / nr_runnable, MIN_GRANULARITY, LATENCY)`;
//! * **wake-up placement** — a woken thread's vruntime is clamped to
//!   `min_vruntime − WAKEUP_BONUS`, the CFS sleeper credit, so interactive
//!   I/O threads win the CPU quickly *when a core can be taken*;
//! * **wake-up preemption** — a woken thread preempts the running thread
//!   with the largest vruntime if it leads it by more than
//!   `WAKEUP_GRANULARITY`.
//!
//! This is where the paper's "I/O threads synchronization overhead"
//! (Figure 3) comes from: with 4 VMs' worth of vCPU + vhost threads on 4
//! cores, wakeups stop finding idle cores and inter-VM round trips absorb
//! run-queue latency.

use std::collections::VecDeque;

use crate::cpu::CpuCategory;
use crate::engine::World;
use crate::ids::{ChainId, HostId, ThreadId};
use crate::span::SpanId;
use crate::time::{SimDuration, SimTime};

/// CFS `sched_latency`: target period in which every runnable thread runs
/// once.
const LATENCY: SimDuration = SimDuration::from_millis(6);
/// CFS `min_granularity`: minimum slice length.
const MIN_GRANULARITY: SimDuration = SimDuration::from_micros(750);
/// CFS `wakeup_granularity`: vruntime lead required for wake-up
/// preemption.
const WAKEUP_GRANULARITY: SimDuration = SimDuration::from_millis(1);
/// Sleeper credit applied on wake-up placement (CFS uses `latency / 2`).
const WAKEUP_BONUS: SimDuration = SimDuration::from_millis(3);
/// Direct cost of a context switch, charged to the incoming thread.
const CTX_SWITCH_CYCLES: u64 = 3_000;
/// Extra cost when a thread is dispatched on a core other than the one it
/// last ran on (cache/TLB refill after migration). This is the mechanism
/// behind the paper's Figure 3: background lookbusy VMs push the netperf
/// VMs' threads off their warm cores.
const MIGRATION_CYCLES: u64 = 26_000;

/// Converts cycles to wall nanoseconds at `ghz` (cycles per ns),
/// rounding up: the value of `(cycles / ghz).ceil().max(0.0) as u64`.
///
/// Baseline x86-64 has no SSE4.1 rounding instruction, so `f64::ceil`
/// is a libm call; this runs on every core-timer reprogram. The
/// saturating `as u64` cast truncates instead (NaN and negatives to 0,
/// 2^64 and up to `u64::MAX`), and one comparison adds the missing unit
/// when a fraction was cut off. Every `f64` from 2^53 up is an integer,
/// so the comparison only ever fires below that, where `t as f64` is
/// exact.
#[inline]
pub(crate) fn cycles_to_ns(cycles: f64, ghz: f64) -> u64 {
    let ns = cycles / ghz;
    let t = ns as u64;
    t.saturating_add(u64::from((t as f64) < ns))
}

/// A host's runnable-but-not-running threads, ordered by
/// `(vruntime, thread id)` — the order a `BTreeSet<(u64, u32)>` keeps.
///
/// The queue holds at most a host's thread count, a few dozen entries,
/// so a `Vec` kept sorted in *descending* order beats a tree: the
/// minimum pops from the back, an insert or removal is a binary search
/// plus a short shift, and once the `Vec` has grown to the host's
/// high-water mark nothing allocates.
#[derive(Debug, Default)]
pub(crate) struct RunQueue {
    /// Sorted descending; the minimum is last.
    desc: Vec<(u64, u32)>,
}

impl RunQueue {
    /// Where `key` sits (or would sit) in the descending order.
    fn search(&self, key: &(u64, u32)) -> Result<usize, usize> {
        self.desc.binary_search_by(|probe| key.cmp(probe))
    }

    /// Adds `key`; returns whether it was absent.
    pub fn insert(&mut self, key: (u64, u32)) -> bool {
        match self.search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.desc.insert(i, key);
                true
            }
        }
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: &(u64, u32)) -> bool {
        match self.search(key) {
            Ok(i) => {
                self.desc.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes and returns the minimum.
    pub fn pop_first(&mut self) -> Option<(u64, u32)> {
        self.desc.pop()
    }

    /// The minimum.
    pub fn first(&self) -> Option<&(u64, u32)> {
        self.desc.last()
    }

    /// Number of queued threads.
    pub fn len(&self) -> usize {
        self.desc.len()
    }

    /// Whether no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.desc.is_empty()
    }

    /// The queued threads' ids, by descending `(vruntime, id)`.
    pub fn threads(&self) -> impl Iterator<Item = u32> + '_ {
        self.desc.iter().map(|&(_, t)| t)
    }
}

/// One queued unit of CPU work (a CPU stage of a chain).
#[derive(Debug)]
pub(crate) struct Work {
    pub chain: ChainId,
    pub cycles_left: f64,
    pub cat: CpuCategory,
    /// Span the executed cycles are attributed to ([`SpanId::NONE`] when
    /// untraced).
    pub span: SpanId,
}

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    /// No queued work.
    Idle,
    /// Runnable, waiting in the host run queue.
    Queued,
    /// Executing on core `core`.
    Running { core: usize },
}

/// Scheduler-side per-thread state.
#[derive(Debug)]
pub(crate) struct ThreadSched {
    pub host: HostId,
    pub name: String,
    pub vr: u64,
    pub state: TState,
    pub work: VecDeque<Work>,
    /// The core this thread last ran on (cache affinity).
    pub prev_core: Option<usize>,
    /// When the thread last entered the run queue (for span queue-wait
    /// attribution; only read while `state == Queued`).
    pub queued_at: SimTime,
}

/// What a core is currently doing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Running {
    pub thread: u32,
    pub slice_end: SimTime,
    pub charged_until: SimTime,
}

/// One core of a host.
#[derive(Debug, Default)]
pub(crate) struct Core {
    pub running: Option<Running>,
    /// Wake-up preemptions of this core's thread so far; a core timer
    /// compares it around a completion to see that the completion's
    /// wake-ups preempted the core.
    pub preemptions: u64,
}

/// Scheduler-side per-host state.
#[derive(Debug)]
pub(crate) struct HostSched {
    pub name: String,
    /// Clock frequency in cycles per nanosecond (== GHz).
    pub ghz: f64,
    pub cores: Vec<Core>,
    /// Runnable (not running) threads, ordered by `(vruntime, id)`.
    pub runq: RunQueue,
    /// Monotonic minimum vruntime reference for wake-up placement.
    pub min_vr: u64,
    /// Shared-LLC contention factor: CPU work on this host (other than
    /// the polluters themselves) is inflated by this factor. 1.0 = no
    /// pressure. Calibrated against the paper's Figure 3 (two 85%
    /// lookbusy VMs cost an inter-VM TCP_RR pair ≈20%).
    pub cache_pressure: f64,
    /// Index of this host's first core in the world's timer table.
    pub core_base: usize,
}

impl HostSched {
    fn nr_runnable(&self) -> usize {
        self.runq.len() + self.cores.iter().filter(|c| c.running.is_some()).count()
    }

    fn quantum(&self) -> SimDuration {
        let nr = self.nr_runnable().max(1) as u64;
        (LATENCY / nr).clamp(MIN_GRANULARITY, LATENCY)
    }
}

/// All scheduler state of the world.
#[derive(Debug, Default)]
pub(crate) struct Sched {
    pub hosts: Vec<HostSched>,
    pub threads: Vec<ThreadSched>,
}

impl Sched {
    pub fn add_host(&mut self, name: &str, cores: usize, ghz: f64, core_base: usize) -> HostId {
        assert!(cores > 0, "a host needs at least one core");
        assert!(ghz > 0.0, "clock frequency must be positive");
        let id = HostId::from_raw(self.hosts.len().try_into().expect("host table fits u16"));
        self.hosts.push(HostSched {
            name: name.to_owned(),
            ghz,
            cores: (0..cores).map(|_| Core::default()).collect(),
            runq: RunQueue::default(),
            min_vr: 0,
            cache_pressure: 1.0,
            core_base,
        });
        id
    }

    pub fn add_thread(&mut self, host: HostId, name: &str) -> ThreadId {
        assert!((host.index()) < self.hosts.len(), "unknown host {host}");
        let id = ThreadId::from_raw(
            self.threads
                .len()
                .try_into()
                .expect("thread table fits u32"),
        );
        self.threads.push(ThreadSched {
            host,
            name: name.to_owned(),
            vr: 0,
            state: TState::Idle,
            work: VecDeque::new(),
            prev_core: None,
            queued_at: SimTime::ZERO,
        });
        id
    }
}

// ---------------------------------------------------------------------------
// Scheduling logic, implemented on `World` because it must push events and
// touch accounting/chains.
// ---------------------------------------------------------------------------

impl World {
    /// Queues a CPU work item on `thread`, waking it if idle.
    pub(crate) fn sched_enqueue(
        &mut self,
        thread: ThreadId,
        chain: ChainId,
        cycles: u64,
        cat: CpuCategory,
        span: SpanId,
    ) {
        let tix = thread.index();
        assert!(tix < self.sched.threads.len(), "unknown thread {thread}");
        let host = self.sched.threads[tix].host;
        // LLC pollution: cache-hungry background load (lookbusy) slows
        // everyone else's memory-bound work on the same socket.
        let pressure = if cat == CpuCategory::Lookbusy {
            1.0
        } else {
            self.sched.hosts[host.index()].cache_pressure
        };
        let th = &mut self.sched.threads[tix];
        th.work.push_back(Work {
            chain,
            cycles_left: cycles as f64 * pressure,
            cat,
            span,
        });
        if th.state == TState::Idle {
            self.wake_thread(thread);
        }
    }

    /// Wake-up path: place in run queue with sleeper credit, then take an
    /// idle core or try wake-up preemption.
    fn wake_thread(&mut self, thread: ThreadId) {
        let tix = thread.index();
        let host = self.sched.threads[tix].host;
        let hix = host.index();
        let min_vr = {
            let h = &self.sched.hosts[hix];
            // Reference vruntime: the smallest among currently runnable /
            // running threads (CFS's cfs_rq->min_vruntime), falling back
            // to the monotonic watermark when the host is idle.
            let mut ref_vr = h.runq.first().map(|&(vr, _)| vr);
            for core in &h.cores {
                if let Some(r) = core.running {
                    let vvr = self.sched.threads[r.thread as usize].vr;
                    ref_vr = Some(ref_vr.map_or(vvr, |m: u64| m.min(vvr)));
                }
            }
            ref_vr.unwrap_or(h.min_vr)
        };
        {
            let now = self.now();
            let th = &mut self.sched.threads[tix];
            th.vr = th.vr.max(min_vr.saturating_sub(WAKEUP_BONUS.as_nanos()));
            th.state = TState::Queued;
            th.queued_at = now;
            let vr = th.vr;
            self.sched.hosts[hix].runq.insert((vr, thread.raw()));
        }

        // Prefer an idle core — the thread's previous (cache-warm) core
        // first, like select_idle_sibling.
        let prev = self.sched.threads[tix].prev_core;
        let idle = match prev {
            Some(p) if self.sched.hosts[hix].cores[p].running.is_none() => Some(p),
            _ => self.sched.hosts[hix]
                .cores
                .iter()
                .position(|c| c.running.is_none()),
        };
        if let Some(cix) = idle {
            self.install(host, cix);
            return;
        }

        // Wake-up preemption: real CFS only tests the wakee's selected
        // CPU (wake affinity), so a wakeup that lands on a core whose
        // current thread is not far ahead in vruntime simply queues — the
        // source of the paper's I/O-thread synchronization delay. We
        // model the selection with a deterministic pseudo-random pick.
        let woken_vr = self.sched.threads[tix].vr;
        let ncores = self.sched.hosts[hix].cores.len() as u64;
        let cix = self.rng.below(ncores) as usize;
        if let Some(r) = self.sched.hosts[hix].cores[cix].running {
            let victim_vr = self.sched.threads[r.thread as usize].vr;
            if woken_vr + WAKEUP_GRANULARITY.as_nanos() < victim_vr {
                self.preempt(host, cix);
                self.install(host, cix);
            }
        }
    }

    /// Charges all running cores up to the current time, so accounting
    /// reads taken between events (e.g. after `run_until`) are exact.
    pub fn sync_accounting(&mut self) {
        let now = self.now();
        for hix in 0..self.sched.hosts.len() {
            let host = crate::ids::HostId::from_raw(hix.try_into().expect("host index fits u16"));
            for cix in 0..self.sched.hosts[hix].cores.len() {
                self.charge_core(host, cix, now);
            }
        }
    }

    /// Charges a preempted thread and returns it to the run queue.
    fn preempt(&mut self, host: HostId, cix: usize) {
        self.charge_core(host, cix, self.now());
        let hix = host.index();
        let r = self.sched.hosts[hix].cores[cix]
            .running
            .take()
            .expect("preempting an idle core");
        self.sched.hosts[hix].cores[cix].preemptions += 1;
        let now = self.now();
        let th = &mut self.sched.threads[r.thread as usize];
        th.state = TState::Queued;
        th.queued_at = now;
        let key = (th.vr, r.thread);
        self.sched.hosts[hix].runq.insert(key);
    }

    /// Installs the minimum-vruntime runnable thread on an idle core (or
    /// leaves the core idle if the run queue is empty).
    fn install(&mut self, host: HostId, cix: usize) {
        let hix = host.index();
        debug_assert!(self.sched.hosts[hix].cores[cix].running.is_none());
        let Some((vr, traw)) = self.sched.hosts[hix].runq.pop_first() else {
            return;
        };
        let now = self.now();
        let (quantum, ghz) = {
            let h = &mut self.sched.hosts[hix];
            h.min_vr = h.min_vr.max(vr);
            (h.quantum(), h.ghz)
        };
        // Direct context-switch cost, plus the cache-refill cost when the
        // thread migrated off its previous core.
        let migrated = matches!(self.sched.threads[traw as usize].prev_core, Some(p) if p != cix);
        let total_cycles = CTX_SWITCH_CYCLES + if migrated { MIGRATION_CYCLES } else { 0 };
        let switch_ns = cycles_to_ns(total_cycles as f64, ghz);
        {
            let th = &mut self.sched.threads[traw as usize];
            th.state = TState::Running { core: cix };
            th.prev_core = Some(cix);
            th.vr += switch_ns;
        }
        self.acct.add(
            traw as usize,
            CpuCategory::Other,
            total_cycles as f64,
            switch_ns,
        );
        if self.spans.is_enabled() {
            // Context-switch/migration overhead belongs to no read — it
            // lands in the recorder's unattributed pool so the cycle
            // conservation invariant still holds.
            self.spans
                .charge(SpanId::NONE, CpuCategory::Other, total_cycles as f64, now);
            // Attribute the time this thread spent waiting in the run
            // queue (and this dispatch) to the span of the work it is
            // about to execute.
            let th = &self.sched.threads[traw as usize];
            if let Some(w) = th.work.front() {
                let wait_ns = now.since(th.queued_at).as_nanos();
                self.spans.queue_wait(w.span, wait_ns);
            }
        }
        let start = now + SimDuration::from_nanos(switch_ns);
        self.sched.hosts[hix].cores[cix].running = Some(Running {
            thread: traw,
            slice_end: start + quantum,
            charged_until: start,
        });
        self.reprogram(host, cix);
    }

    /// Accounts executed time on `core` up to `upto`.
    fn charge_core(&mut self, host: HostId, cix: usize, upto: SimTime) {
        let hix = host.index();
        let ghz = self.sched.hosts[hix].ghz;
        let Some(r) = self.sched.hosts[hix].cores[cix].running.as_mut() else {
            return;
        };
        if upto <= r.charged_until {
            return;
        }
        let ns = upto.since(r.charged_until).as_nanos();
        r.charged_until = upto;
        let traw = r.thread;
        let cycles = ns as f64 * ghz;
        let th = &mut self.sched.threads[traw as usize];
        th.vr += ns;
        let (cat, span) = if let Some(w) = th.work.front_mut() {
            w.cycles_left = (w.cycles_left - cycles).max(0.0);
            (w.cat, w.span)
        } else {
            (CpuCategory::Other, SpanId::NONE)
        };
        self.acct.add(traw as usize, cat, cycles, ns);
        self.spans.charge(span, cat, cycles, upto);
    }

    /// Programs the core timer for the earlier of slice expiry and
    /// front-work completion.
    fn reprogram(&mut self, host: HostId, cix: usize) {
        let hix = host.index();
        let ghz = self.sched.hosts[hix].ghz;
        let r = self.sched.hosts[hix].cores[cix]
            .running
            .expect("reprogramming an idle core");
        let th = &self.sched.threads[r.thread as usize];
        let work_end = match th.work.front() {
            Some(w) => r.charged_until + SimDuration::from_nanos(cycles_to_ns(w.cycles_left, ghz)),
            // No work queued right now (mid-timer window); fire at the
            // slice end so the core gets re-evaluated.
            None => r.slice_end,
        };
        let t = work_end.min(r.slice_end).max(self.now());
        self.push_core_timer(t, host, cix);
    }

    /// Handles a core timer: charge, complete finished work, then either
    /// continue, rotate, or idle the core.
    pub(crate) fn on_core_timer(&mut self, host: HostId, cix: usize) {
        let hix = host.index();
        let now = self.now();
        self.charge_core(host, cix, now);
        let r = match self.sched.hosts[hix].cores[cix].running {
            Some(r) => r,
            None => return,
        };
        let tix = r.thread as usize;

        // Pop and complete the front work item if it is done.
        let completed = {
            let th = &mut self.sched.threads[tix];
            match th.work.front() {
                Some(w) if w.cycles_left < 0.5 => th.work.pop_front(),
                _ => None,
            }
        };
        if let Some(w) = completed {
            // May enqueue new work on this or other threads — and the
            // resulting wake-up may *preempt this very core*. Detect that
            // via the preemption count and stop: the preemption already
            // rescheduled everything.
            let preemptions_before = self.sched.hosts[hix].cores[cix].preemptions;
            self.advance_chain(w.chain);
            let core = &self.sched.hosts[hix].cores[cix];
            if core.preemptions != preemptions_before
                || core.running.map(|r2| r2.thread) != Some(r.thread)
            {
                // This thread was preempted mid-completion; if it has no
                // work left it must not linger in the run queue.
                let th = &mut self.sched.threads[tix];
                if th.work.is_empty() && th.state == TState::Queued {
                    let key = (th.vr, r.thread);
                    th.state = TState::Idle;
                    self.sched.hosts[hix].runq.remove(&key);
                }
                return;
            }
        }

        let has_work = !self.sched.threads[tix].work.is_empty();
        let slice_expired = now >= r.slice_end;
        let rq_waiting = !self.sched.hosts[hix].runq.is_empty();

        if !has_work {
            self.sched.threads[tix].state = TState::Idle;
            self.sched.hosts[hix].cores[cix].running = None;
            self.install(host, cix);
        } else if slice_expired && rq_waiting {
            // Rotate: requeue current, run the minimum-vruntime thread
            // (which may be the same thread if it still has the smallest
            // vruntime).
            let vr = self.sched.threads[tix].vr;
            self.sched.threads[tix].state = TState::Queued;
            self.sched.threads[tix].queued_at = now;
            self.sched.hosts[hix].runq.insert((vr, r.thread));
            self.sched.hosts[hix].cores[cix].running = None;
            self.install(host, cix);
        } else {
            if slice_expired {
                // Alone on the queue: grant a fresh slice.
                let q = self.sched.hosts[hix].quantum();
                if let Some(run) = self.sched.hosts[hix].cores[cix].running.as_mut() {
                    run.slice_end = now + q;
                }
            }
            self.reprogram(host, cix);
        }
    }

    /// Sets the shared-cache contention factor of `host` (see
    /// `HostSched::cache_pressure`; scenario builders set ≈1.12 per
    /// 85%-lookbusy background VM).
    pub fn set_cache_pressure(&mut self, host: HostId, factor: f64) {
        assert!(factor >= 1.0, "pressure factor below 1 is meaningless");
        self.sched.hosts[host.index()].cache_pressure = factor;
    }

    /// The host a thread belongs to.
    pub fn thread_host(&self, thread: ThreadId) -> HostId {
        self.sched.threads[thread.index()].host
    }

    /// The clock frequency of a host in GHz (cycles per nanosecond).
    pub fn host_ghz(&self, host: HostId) -> f64 {
        self.sched.hosts[host.index()].ghz
    }

    /// The diagnostic name a thread was registered with.
    pub fn thread_name(&self, thread: ThreadId) -> &str {
        &self.sched.threads[thread.index()].name
    }

    /// The diagnostic name a host was registered with.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.sched.hosts[host.index()].name
    }

    /// Number of registered hosts (host ids are `0..num_hosts`).
    pub fn num_hosts(&self) -> usize {
        self.sched.hosts.len()
    }

    /// Depth of a host's run queue: threads runnable but *not* on a core.
    /// This is the contention signal the timeline sampler tracks — it
    /// rises when vCPUs + I/O threads outnumber physical cores.
    pub fn host_runq_depth(&self, host: HostId) -> usize {
        self.sched.hosts[host.index()].runq.len()
    }

    /// Longest time any currently-queued thread on `host` has been
    /// waiting for a core (zero when the run queue is empty). This is the
    /// paper's I/O-thread scheduling delay, observed at one instant.
    pub fn host_max_queued_delay(&self, host: HostId) -> SimDuration {
        // The run queue holds exactly the host's `Queued` threads.
        let now = self.now();
        self.sched.hosts[host.index()]
            .runq
            .threads()
            .map(|t| now.since(self.sched.threads[t as usize].queued_at))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// The value `cycles_to_ns` must reproduce.
    fn ceil_ns(cycles: f64, ghz: f64) -> u64 {
        (cycles / ghz).ceil().max(0.0) as u64
    }

    #[test]
    fn cycles_to_ns_matches_ceil_on_edge_cases() {
        let two53 = 9_007_199_254_740_992.0_f64; // 2^53
        let two64 = 18_446_744_073_709_551_616.0_f64; // 2^64
        let cases = [
            0.0,
            -0.0,
            -1.0,
            -0.5,
            -1e300,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.000_000_000_000_000_2,
            2.0,
            3_000.0,
            3_000.000_1,
            two53 - 1.0,
            two53 - 0.5,
            two53,
            two53 + 2.0, // 2^53 + 1 is not an f64; its neighbours are
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for &x in &cases {
            assert_eq!(cycles_to_ns(x, 1.0), ceil_ns(x, 1.0), "cycles {x:e}");
        }
        // 2^53 - 1 and 2^53 + 1 as integer cycle counts, as the callers
        // pass them (`u64 as f64` rounds 2^53 + 1 to 2^53).
        for c in [(1u64 << 53) - 1, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(cycles_to_ns(c as f64, 1.0), ceil_ns(c as f64, 1.0), "{c}");
        }
        assert_eq!(cycles_to_ns(two64, 1.0), u64::MAX);
        assert_eq!(cycles_to_ns(f64::INFINITY, 2.0), u64::MAX);
        assert_eq!(cycles_to_ns(f64::NAN, 2.0), 0);
        assert_eq!(cycles_to_ns(-5.0, 2.0), 0);
        assert_eq!(cycles_to_ns(3_001.0, 3.0), 1_001);
        assert_eq!(cycles_to_ns(3_000.0, 3.0), 1_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary cycle counts and clock rates round like `ceil`.
        #[test]
        fn cycles_to_ns_matches_ceil(cycles in 0u64..u64::MAX, scale in 0u32..64, ghz_milli in 1u64..8_000) {
            let c = (cycles >> scale) as f64 + (cycles & 0xff) as f64 / 256.0;
            let ghz = ghz_milli as f64 / 1000.0;
            prop_assert_eq!(cycles_to_ns(c, ghz), ceil_ns(c, ghz));
        }
    }

    #[test]
    fn quantum_is_the_cfs_slice() {
        let mut sched = Sched::default();
        let h = sched.add_host("h", 1, 1.0, 0);
        let host = &mut sched.hosts[h.index()];
        let mut got = Vec::new();
        for k in 0..12 {
            got.push(host.quantum().as_nanos());
            host.runq.insert((0, k));
        }
        // 6 ms split among the runnable threads, floored at 750 us.
        let want = [
            6_000_000, 6_000_000, 3_000_000, 2_000_000, 1_500_000, 1_200_000, 1_000_000, 857_142,
            750_000, 750_000, 750_000, 750_000,
        ];
        assert_eq!(got, want);
    }

    #[derive(Debug, Clone)]
    enum RqOp {
        Insert(u64, u32),
        Remove(u64, u32),
        PopFirst,
        First,
    }

    /// Few distinct vruntimes and ids, so duplicates and removals of
    /// present keys are common.
    fn rq_op() -> impl Strategy<Value = RqOp> {
        prop_oneof![
            (0u64..6, 0u32..8).prop_map(|(vr, id)| RqOp::Insert(vr, id)),
            (0u64..6, 0u32..8).prop_map(|(vr, id)| RqOp::Insert(vr * 1_000_000, id)),
            (0u64..6, 0u32..8).prop_map(|(vr, id)| RqOp::Remove(vr, id)),
            Just(RqOp::PopFirst),
            Just(RqOp::First),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The run queue answers every call exactly as the
        /// `BTreeSet<(u64, u32)>` it replaced.
        #[test]
        fn run_queue_matches_btreeset(ops in proptest::collection::vec(rq_op(), 1..120)) {
            let mut rq = RunQueue::default();
            let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::new();
            for op in &ops {
                match *op {
                    RqOp::Insert(vr, id) => {
                        prop_assert_eq!(rq.insert((vr, id)), oracle.insert((vr, id)));
                    }
                    RqOp::Remove(vr, id) => {
                        prop_assert_eq!(rq.remove(&(vr, id)), oracle.remove(&(vr, id)));
                    }
                    RqOp::PopFirst => prop_assert_eq!(rq.pop_first(), oracle.pop_first()),
                    RqOp::First => prop_assert_eq!(rq.first(), oracle.first()),
                }
                prop_assert_eq!(rq.len(), oracle.len());
                prop_assert_eq!(rq.is_empty(), oracle.is_empty());
            }
            let rest: Vec<(u64, u32)> = std::iter::from_fn(|| rq.pop_first()).collect();
            let want: Vec<(u64, u32)> = oracle.into_iter().collect();
            prop_assert_eq!(rest, want);
        }
    }
}
