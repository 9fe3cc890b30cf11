//! The discrete-event world: event queue, actors, chains, resources.
//!
//! [`World`] owns everything; actors are dispatched one at a time (their
//! slot is temporarily vacated so they can freely mutate the world through
//! [`Ctx`]). All actor-to-actor communication flows through the event
//! queue, so there is no reentrancy and event ordering is fully
//! deterministic (time, then insertion sequence).
//!
//! # Hot-path layout
//!
//! Four structures carry nearly all of the run-loop cost, and each is
//! shaped to avoid per-event work:
//!
//! * **Same-time fast lane** — events scheduled for the current instant
//!   (`send_now`, zero delays) go to a FIFO ring buffer instead of the
//!   time-ordered timer table. Because the global sequence number is
//!   monotonic, anything pushed "at now" sorts after every pending
//!   same-time entry of the table, so FIFO order *is* `(time, seq)`
//!   order; RPC-style message ping-pong never touches the table at all.
//! * **Timer table** — every event due after the current instant lives
//!   in a slot of one table (`crate::timers`): each core's timer, each
//!   re-armable actor timer ([`Ctx::arm_timer`]), and a one-shot slot
//!   per delayed message, chain resume or timeline tick, released when
//!   it fires. The armed slots are kept in a `Vec` sorted descending by
//!   `(time, seq)`, so the earliest event is read and popped in O(1) and
//!   arming one costs a binary search plus a shift of the events due
//!   after it. Re-arming or disarming a core or actor slot drops its
//!   pending timer, so a watchdog whose work finished never fires as a
//!   no-op; a fired actor timer is an ordinary message delivery.
//! * **Chain slab** — in-flight chains live in a free-list slab indexed
//!   directly by [`ChainId`] (generation-tagged against stale resumes)
//!   rather than a hash map; see `crate::slab`.
//! * **Unboxed internal events** — engine-internal events (core timers,
//!   chain resumes) are plain enum variants, and a boxed zero-sized
//!   completion message does not allocate. A message that carries data
//!   is a `Box<dyn Any>` and costs one heap allocation; those boxes are
//!   the only steady-state allocations left (about 0.4 per event on a
//!   contended vanilla read workload — stage lists, the run queue and
//!   the host block-store indices allocate nothing).

use std::collections::VecDeque;

use crate::chain::{Chain, Stage, StageList};
use crate::cpu::{CpuAccounting, CpuCategory};
use crate::ext::Extensions;
use crate::ids::{ActorId, BlockDevId, ChainId, HostId, LinkId, ThreadId, TimerSlot};
use crate::job::{JobHandle, Jobs};
use crate::metrics::Metrics;
use crate::msg::BoxMsg;
use crate::resources::{BlockDev, Link};
use crate::rng::SimRng;
use crate::sched::Sched;
use crate::slab::ChainSlab;
use crate::span::{SpanId, SpanRecorder};
use crate::time::{SimDuration, SimTime};
use crate::timeline::Timeline;
use crate::timers::TimerTable;

/// A component that receives messages and reacts by scheduling work,
/// sending messages, and mutating shared state.
///
/// Actors are registered with [`World::add_actor`] and addressed by
/// [`ActorId`]. They are `'static` because the world owns them.
pub trait Actor: 'static {
    /// Handles one message. `msg` is type-erased; use
    /// [`crate::msg::downcast`] or `msg.is::<T>()` to interpret it.
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>);
}

/// What an event does when it runs: the payload of both the fast lane
/// and the timer table.
pub(crate) enum EvKind {
    Deliver {
        to: ActorId,
        msg: BoxMsg,
    },
    CoreTimer {
        host: HostId,
        core: usize,
    },
    ChainResume {
        chain: ChainId,
    },
    /// Timeline sampler tick (see [`crate::timeline`]). An ordinary
    /// `(time, seq)`-keyed event, so sampling instants replay
    /// identically on every run.
    TimelineTick,
}

/// The simulation world. See the crate docs for an end-to-end example.
pub struct World {
    now: SimTime,
    seq: u64,
    events_processed: u64,
    /// Single-event buffer in front of `fifo`: the earliest same-instant
    /// event. Serial request/response traffic (one event in flight) lives
    /// entirely in this slot and never touches the ring buffer.
    next_now: Option<(u64, EvKind)>,
    /// Fast lane for events scheduled at the current instant (their time
    /// is implicitly `now`). Invariant: entries are in ascending `seq`
    /// order, all larger than `next_now`'s seq and larger than any
    /// same-time timer-table entry armed before time advanced to `now`.
    fifo: VecDeque<(u64, EvKind)>,
    /// Every future event: one timer slot per core across all hosts, the
    /// actors' timer slots and one-shot slots, with the armed ones in a
    /// sorted list whose last entry is the earliest (see `crate::timers`).
    timers: TimerTable,
    /// `None` once an actor is removed, and while it handles a message.
    actors: Vec<Option<Box<dyn Actor>>>,
    pub(crate) sched: Sched,
    chains: ChainSlab,
    links: Vec<Link>,
    devs: Vec<BlockDev>,
    /// Per-thread, per-category CPU accounting.
    pub acct: CpuAccounting,
    /// Counters and sample distributions recorded by workloads.
    pub metrics: Metrics,
    /// Pre-interned id for the scheduler's migration counter (bumped on
    /// every cross-core install — far too hot for a string lookup).
    pub(crate) m_sched_migrations: crate::metrics::CounterId,
    /// The world's deterministic RNG.
    pub rng: SimRng,
    /// Typed blackboard for shared hardware/software state (page caches,
    /// filesystems, mount tables …).
    pub ext: Extensions,
    /// Optional causal span recorder — the flight recorder (see
    /// [`crate::span`]). Disabled by default; enabling it attributes
    /// every charged cycle and every [`Stage::Copy`] to a span.
    pub spans: SpanRecorder,
    /// Registered jobs and their completion state (see [`crate::job`]).
    pub jobs: Jobs,
    /// Optional telemetry timeline (see [`crate::timeline`]). Disabled
    /// by default; [`World::start_timeline`] turns sampling on.
    pub timeline: Timeline,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .field("pending_events", &self.pending_events())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl World {
    /// Creates an empty world seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut metrics = Metrics::new();
        let m_sched_migrations = metrics.register_counter("sched_migrations");
        World {
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
            next_now: None,
            fifo: VecDeque::new(),
            timers: TimerTable::default(),
            actors: Vec::new(),
            sched: Sched::default(),
            chains: ChainSlab::new(),
            links: Vec::new(),
            devs: Vec::new(),
            acct: CpuAccounting::new(),
            metrics,
            m_sched_migrations,
            rng: SimRng::new(seed),
            ext: Extensions::new(),
            spans: SpanRecorder::new(),
            jobs: Jobs::default(),
            timeline: Timeline::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // -- construction -------------------------------------------------------

    /// Adds a host with `cores` cores at `ghz` GHz.
    pub fn add_host(&mut self, name: &str, cores: usize, ghz: f64) -> HostId {
        let core_base = self.timers.len();
        let id = self.sched.add_host(name, cores, ghz, core_base);
        self.timers.add_host(id, cores);
        id
    }

    /// Adds a schedulable thread to `host`.
    pub fn add_thread(&mut self, host: HostId, name: &str) -> ThreadId {
        let t = self.sched.add_thread(host, name);
        self.acct.ensure(t.index());
        t
    }

    /// Registers a network link.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        let id = LinkId::from_raw(self.links.len().try_into().expect("link table fits u32"));
        self.links.push(link);
        id
    }

    /// Registers a block device.
    pub fn add_blockdev(&mut self, dev: BlockDev) -> BlockDevId {
        let id = BlockDevId::from_raw(self.devs.len().try_into().expect("device table fits u32"));
        self.devs.push(dev);
        id
    }

    /// Registers an actor and returns its address. `_name` labels the
    /// actor where it is created; the world does not keep it.
    pub fn add_actor(&mut self, _name: &str, actor: impl Actor) -> ActorId {
        let id = ActorId::from_raw(self.actors.len().try_into().expect("actor table fits u32"));
        self.actors.push(Some(Box::new(actor)));
        id
    }

    /// Removes an actor (e.g. fault injection: crash a server). Messages
    /// already queued for it — and any sent later — are silently dropped,
    /// like packets to a dead process.
    pub fn remove_actor(&mut self, id: ActorId) -> Option<Box<dyn Actor>> {
        self.actors.get_mut(id.index()).and_then(Option::take)
    }

    /// Number of registered links (link ids are `0..num_links`).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Shared access to a registered link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a registered link (fault injection: degrade or
    /// restore bandwidth/latency mid-run).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Mutable access to a registered block device (fault injection:
    /// slow a disk mid-run).
    pub fn blockdev_mut(&mut self, id: BlockDevId) -> &mut BlockDev {
        &mut self.devs[id.index()]
    }

    // -- messaging ----------------------------------------------------------

    /// Delivers `msg` to `to` at the current time (after already-queued
    /// same-time events).
    pub fn send_now<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        // Always the fast lane: `t == now` by definition.
        self.push_now(EvKind::Deliver {
            to,
            msg: Box::new(msg),
        });
    }

    #[inline]
    fn push_now(&mut self, kind: EvKind) {
        self.seq += 1;
        if self.next_now.is_none() && self.fifo.is_empty() {
            self.next_now = Some((self.seq, kind));
        } else {
            self.fifo.push_back((self.seq, kind));
        }
    }

    /// Delivers `msg` to `to` after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        self.push_event(
            self.now + delay,
            EvKind::Deliver {
                to,
                msg: Box::new(msg),
            },
        );
    }

    fn push_event(&mut self, t: SimTime, kind: EvKind) {
        debug_assert!(t >= self.now, "event scheduled in the past");
        if t == self.now {
            // Same-instant events keep FIFO order by construction (seq is
            // monotonic), so they skip the timer table entirely.
            self.push_now(kind);
        } else {
            self.seq += 1;
            self.timers.schedule(t, self.seq, kind);
        }
    }

    pub(crate) fn push_core_timer(&mut self, t: SimTime, host: HostId, core: usize) {
        let slot = self.sched.hosts[host.index()].core_base + core;
        self.seq += 1;
        self.timers.arm_core(slot, t, self.seq);
    }

    /// Events waiting to run: fast lane and armed timer slots.
    fn pending_events(&self) -> usize {
        self.fifo.len() + usize::from(self.next_now.is_some()) + self.timers.armed()
    }

    // -- actor timers -------------------------------------------------------

    /// Gives `owner` an unarmed, re-armable timer slot. Each slot holds
    /// at most one pending timer; slots released with
    /// [`World::release_timer`] are reused last-in first-out.
    pub fn add_timer(&mut self, owner: ActorId) -> TimerSlot {
        let i = self.timers.alloc(owner);
        TimerSlot::from_raw(i.try_into().expect("timer table fits u32"))
    }

    /// Arms `slot` to deliver `msg` to its owner after `delay`, dropping
    /// any timer pending there. The timer takes its place in `(time,
    /// seq)` order at this call, exactly as [`World::send_after`] would.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was released.
    pub fn arm_timer<M: Send + 'static>(&mut self, slot: TimerSlot, msg: M, delay: SimDuration) {
        self.seq += 1;
        let t = self.now + delay;
        self.timers
            .arm_actor(slot.index(), t, self.seq, Box::new(msg));
    }

    /// Disarms `slot`: its pending timer, if any, never fires.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was released.
    pub fn disarm_timer(&mut self, slot: TimerSlot) {
        self.timers.disarm(slot.index());
    }

    /// Disarms `slot` and returns it to the table for reuse. The slot id
    /// must not be used again.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was already released.
    pub fn release_timer(&mut self, slot: TimerSlot) {
        self.timers.release(slot.index());
    }

    // -- chains -------------------------------------------------------------

    /// Starts a chain of stages; when the last stage completes, `msg` is
    /// delivered to `to`. Returns the chain id (useful for tracing).
    ///
    /// Accepts anything convertible to a [`StageList`]: a single
    /// [`Stage`], a fixed-size array, a slice, or a `Vec<Stage>`.
    pub fn start_chain<M: Send + 'static>(
        &mut self,
        stages: impl Into<StageList>,
        to: ActorId,
        msg: M,
    ) -> ChainId {
        let id = self
            .chains
            .insert(Chain::new(stages.into(), to, Box::new(msg)));
        self.advance_chain(id);
        id
    }

    /// Like [`World::start_chain`], but attributes the chain's CPU work
    /// and data copies to `span` (pass [`SpanId::NONE`] for untraced).
    pub fn start_chain_on<M: Send + 'static>(
        &mut self,
        stages: impl Into<StageList>,
        to: ActorId,
        msg: M,
        span: SpanId,
    ) -> ChainId {
        let id = self
            .chains
            .insert(Chain::new_on(stages.into(), to, Box::new(msg), span));
        self.advance_chain(id);
        id
    }

    /// Advances a chain past its next stage (or completes it).
    pub(crate) fn advance_chain(&mut self, id: ChainId) {
        loop {
            let (stage, span) = {
                let Some(ch) = self.chains.get_mut(id) else {
                    return;
                };
                (ch.stages.pop_front(), ch.span)
            };
            match stage {
                None => {
                    let ch = self.chains.remove(id).expect("chain vanished");
                    if let Some((to, msg)) = ch.then {
                        self.push_event(self.now, EvKind::Deliver { to, msg });
                    }
                    return;
                }
                Some(Stage::Cpu {
                    thread,
                    cycles,
                    cat,
                }) => {
                    if cycles == 0 {
                        continue;
                    }
                    self.sched_enqueue(thread, id, cycles, cat, span);
                    return;
                }
                Some(Stage::Copy {
                    thread,
                    cycles,
                    cat,
                    bytes,
                }) => {
                    // A copy is timed and accounted exactly like a Cpu
                    // stage; the only extra effect is the ledger entry.
                    self.spans.copy(span, bytes, self.now);
                    if cycles == 0 {
                        continue;
                    }
                    self.sched_enqueue(thread, id, cycles, cat, span);
                    return;
                }
                Some(Stage::Map {
                    thread,
                    cycles,
                    cat,
                    bytes,
                }) => {
                    // Timed like a Cpu stage; the payload is recorded as
                    // mapped, not copied, in the span ledger.
                    self.spans.mapped(span, bytes, self.now);
                    if cycles == 0 {
                        continue;
                    }
                    self.sched_enqueue(thread, id, cycles, cat, span);
                    return;
                }
                Some(Stage::Link { link, bytes }) => {
                    let t = self.links[link.index()].submit(self.now, bytes);
                    self.push_event(t, EvKind::ChainResume { chain: id });
                    return;
                }
                Some(Stage::Disk { dev, bytes }) => {
                    let t = self.devs[dev.index()].submit(self.now, bytes);
                    self.push_event(t, EvKind::ChainResume { chain: id });
                    return;
                }
                Some(Stage::Delay { dur }) => {
                    if dur == SimDuration::ZERO {
                        continue;
                    }
                    let t = self.now + dur;
                    self.push_event(t, EvKind::ChainResume { chain: id });
                    return;
                }
            }
        }
    }

    // -- run loop -----------------------------------------------------------

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // Fast-lane entries are always at `now`, earlier than (or tied
        // with) anything in the timer table.
        if self.next_now.is_some() {
            return Some(self.now);
        }
        self.timers.min().map(|(t, _, _)| t)
    }

    /// Pops the globally next event in `(time, seq)` order, returning its
    /// time and payload. Fast-lane entries are implicitly at `now`.
    fn pop_event(&mut self) -> Option<(SimTime, EvKind)> {
        // Both candidates are ordered by the same `(t, seq)` key. The
        // timer table may still hold same-time events armed before time
        // advanced to `now`, whose seq is necessarily smaller than any
        // fast-lane entry — they go first.
        let timer = self.timers.min();
        if let Some((fseq, _)) = &self.next_now {
            if timer.is_none_or(|(t, seq, _)| (self.now, *fseq) < (t, seq)) {
                let (_, kind) = self.next_now.take().expect("fronted");
                // Promote the next fast-lane entry into the front slot.
                self.next_now = self.fifo.pop_front();
                return Some((self.now, kind));
            }
        }
        timer.map(|(_, _, slot)| self.timers.pop(slot))
    }

    /// Processes a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((t, kind)) = self.pop_event() else {
            return false;
        };
        debug_assert!(t >= self.now);
        self.now = t;
        self.events_processed += 1;
        match kind {
            EvKind::Deliver { to, msg } => self.dispatch(to, msg),
            EvKind::CoreTimer { host, core } => self.on_core_timer(host, core),
            EvKind::ChainResume { chain } => self.advance_chain(chain),
            EvKind::TimelineTick => self.on_timeline_tick(),
        }
        true
    }

    /// Turns on timeline sampling with the given period and schedules
    /// the first tick at `now + sample`. Idempotent in effect (calling
    /// again reschedules an extra tick train — don't).
    ///
    /// # Panics
    ///
    /// Panics on a zero sample period.
    pub fn start_timeline(&mut self, sample: SimDuration) {
        self.timeline.enable(sample);
        self.push_event(self.now + sample, EvKind::TimelineTick);
    }

    /// One sampler tick: observe the world, then re-arm while there is
    /// still work (further events, or jobs that a cap fast-forward will
    /// finish). The stop condition makes `run()` terminate — a tick
    /// never re-arms into an otherwise-quiet world.
    fn on_timeline_tick(&mut self) {
        // The timeline steps out of the world so it can read `self`
        // without aliasing; it never touches `self.timeline` itself.
        let mut tl = std::mem::take(&mut self.timeline);
        tl.sample_now(self);
        self.timeline = tl;
        if self.next_event_time().is_some() || self.jobs.pending() > 0 {
            let at = self.now + self.timeline.sample_every();
            self.push_event(at, EvKind::TimelineTick);
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until simulated time `t` (inclusive of events at `t`), then
    /// fast-forwards the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(et) = self.next_event_time() {
            if et > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
        self.sync_accounting();
    }

    /// Registers a pending job and returns its completion token (see
    /// [`crate::job`]).
    pub fn register_job(&mut self, label: &str) -> JobHandle {
        self.jobs.register(label)
    }

    /// Runs until **every registered job has completed**, or until `cap`
    /// of simulated time elapses. Returns `true` when all jobs finished.
    ///
    /// On success the clock stops *exactly at the completing event* —
    /// unlike slice-based polling there is no trailing over-run, so
    /// measurements taken afterwards see the world precisely as of
    /// completion. On a cap miss the clock fast-forwards to the
    /// deadline. Either way accounting is synced, so between-run busy
    /// reads are exact.
    pub fn run_jobs_for(&mut self, cap: SimDuration) -> bool {
        let deadline = self.now + cap;
        while self.jobs.pending() > 0 {
            match self.next_event_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.jobs.pending() > 0 && self.now < deadline {
            self.now = deadline;
        }
        self.sync_accounting();
        self.jobs.pending() == 0
    }

    fn dispatch(&mut self, to: ActorId, msg: BoxMsg) {
        let idx = to.index();
        let Some(slot) = self.actors.get_mut(idx) else {
            return;
        };
        let Some(mut actor) = slot.take() else {
            // Actor is gone (removed) — drop the message.
            return;
        };
        let mut ctx = Ctx {
            world: self,
            me: to,
        };
        actor.handle(msg, &mut ctx);
        self.actors[idx] = Some(actor);
    }
}

/// The interface an [`Actor`] uses to interact with the world while
/// handling a message.
pub struct Ctx<'a> {
    /// The world (the handling actor's own slot is vacant).
    pub world: &'a mut World,
    me: ActorId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The address of the actor handling the current message.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Sends `msg` to `to` at the current time.
    pub fn send<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        self.world.send_now(to, msg);
    }

    /// Sends `msg` to `to` after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        self.world.send_after(to, msg, delay);
    }

    /// Sends `msg` back to the current actor after `delay` (a
    /// fire-and-forget timer; see [`Ctx::arm_timer`] for one that can be
    /// re-armed or cancelled).
    pub fn timer<M: Send + 'static>(&mut self, msg: M, delay: SimDuration) {
        let me = self.me;
        self.world.send_after(me, msg, delay);
    }

    /// Gives the current actor a re-armable timer slot (see
    /// [`World::add_timer`]).
    pub fn timer_slot(&mut self) -> TimerSlot {
        let me = self.me;
        self.world.add_timer(me)
    }

    /// Arms `slot` to send `msg` back to its owner after `delay`,
    /// replacing any timer pending there (see [`World::arm_timer`]).
    pub fn arm_timer<M: Send + 'static>(&mut self, slot: TimerSlot, msg: M, delay: SimDuration) {
        self.world.arm_timer(slot, msg, delay);
    }

    /// Disarms `slot`; its pending timer, if any, never fires.
    pub fn disarm_timer(&mut self, slot: TimerSlot) {
        self.world.disarm_timer(slot);
    }

    /// Disarms `slot` and hands it back for reuse.
    pub fn release_timer(&mut self, slot: TimerSlot) {
        self.world.release_timer(slot);
    }

    /// Starts a stage chain completing with `msg` to `to`.
    pub fn chain<M: Send + 'static>(
        &mut self,
        stages: impl Into<StageList>,
        to: ActorId,
        msg: M,
    ) -> ChainId {
        self.world.start_chain(stages, to, msg)
    }

    /// Starts a stage chain attributed to `span` (see [`crate::span`]).
    pub fn chain_on<M: Send + 'static>(
        &mut self,
        stages: impl Into<StageList>,
        to: ActorId,
        msg: M,
        span: SpanId,
    ) -> ChainId {
        self.world.start_chain_on(stages, to, msg, span)
    }

    /// Shorthand for a single-CPU-stage chain (allocation-free).
    pub fn cpu<M: Send + 'static>(
        &mut self,
        thread: ThreadId,
        cycles: u64,
        cat: CpuCategory,
        to: ActorId,
        msg: M,
    ) -> ChainId {
        self.chain(Stage::cpu(thread, cycles, cat), to, msg)
    }

    /// Registers a new actor (usable immediately).
    pub fn spawn(&mut self, name: &str, actor: impl Actor) -> ActorId {
        self.world.add_actor(name, actor)
    }

    /// The metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.world.metrics
    }

    /// Marks `job` started now (see [`crate::job`]).
    pub fn job_started(&mut self, job: JobHandle) {
        let now = self.world.now;
        self.world.jobs.start(job, now);
    }

    /// Adds progress (`bytes`, `ops`) to `job`.
    pub fn job_progress(&mut self, job: JobHandle, bytes: u64, ops: u64) {
        self.world.jobs.progress(job, bytes, ops);
    }

    /// Marks `job` completed now; the engine's job-driven run loop stops
    /// once every registered job has completed.
    pub fn job_completed(&mut self, job: JobHandle) {
        let now = self.world.now;
        self.world.jobs.complete(job, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{downcast, Start};

    // -- plumbing tests ------------------------------------------------------

    struct Recorder {
        got: Vec<(SimTime, u32)>,
    }

    struct Tag(u32);

    impl Actor for Recorder {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if let Ok(t) = downcast::<Tag>(msg) {
                self.got.push((ctx.now(), t.0));
                ctx.metrics().incr("tags");
            }
        }
    }

    fn recorder_events(w: &World, _a: ActorId) -> f64 {
        w.metrics.counter("tags")
    }

    #[test]
    fn messages_deliver_in_time_order() {
        let mut w = World::new(1);
        let a = w.add_actor("rec", Recorder { got: vec![] });
        w.send_after(a, Tag(2), SimDuration::from_micros(20));
        w.send_after(a, Tag(1), SimDuration::from_micros(10));
        w.send_after(a, Tag(3), SimDuration::from_micros(20)); // ties break by insertion
        w.run();
        assert_eq!(recorder_events(&w, a), 3.0);
        assert_eq!(w.now(), SimTime::from_nanos(20_000));
    }

    #[test]
    fn run_until_advances_clock() {
        let mut w = World::new(1);
        let a = w.add_actor("rec", Recorder { got: vec![] });
        w.send_after(a, Tag(1), SimDuration::from_millis(5));
        w.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(w.now(), SimTime::from_nanos(1_000_000));
        assert_eq!(w.metrics.counter("tags"), 0.0);
        w.run();
        assert_eq!(w.metrics.counter("tags"), 1.0);
    }

    // -- chain + scheduler tests ---------------------------------------------

    struct Done;

    struct Waiter {
        done_at: Option<SimTime>,
    }
    impl Actor for Waiter {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Done>() {
                self.done_at = Some(ctx.now());
                let ms = ctx.now().as_secs_f64() * 1e3;
                ctx.metrics().sample("done_at_ms", ms);
            }
        }
    }

    #[test]
    fn cpu_chain_takes_cycles_over_frequency() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 2.0); // 2 GHz
        let t = w.add_thread(h, "t");
        let a = w.add_actor("waiter", Waiter { done_at: None });
        // 2M cycles at 2GHz = 1ms (+ context switch ~1.5us)
        w.start_chain(
            vec![Stage::cpu(t, 2_000_000, CpuCategory::ClientApp)],
            a,
            Done,
        );
        w.run();
        let ms = w.metrics.mean("done_at_ms");
        assert!(ms > 0.99 && ms < 1.05, "took {ms}ms, expected ~1ms");
        // accounting recorded the cycles
        let cyc = w.acct.cycles(t.index(), CpuCategory::ClientApp);
        assert!(
            (cyc - 2_000_000.0).abs() < 5_000.0,
            "accounted {cyc} cycles"
        );
    }

    #[test]
    fn chain_spans_threads_and_delay() {
        let mut w = World::new(1);
        let h = w.add_host("h", 2, 1.0);
        let t1 = w.add_thread(h, "t1");
        let t2 = w.add_thread(h, "t2");
        let a = w.add_actor("waiter", Waiter { done_at: None });
        w.start_chain(
            vec![
                Stage::cpu(t1, 1_000_000, CpuCategory::Other), // 1ms
                Stage::delay(SimDuration::from_millis(2)),
                Stage::cpu(t2, 3_000_000, CpuCategory::Other), // 3ms
            ],
            a,
            Done,
        );
        w.run();
        let ms = w.metrics.mean("done_at_ms");
        assert!(ms > 5.9 && ms < 6.2, "took {ms}ms, expected ~6ms");
        assert!(w.acct.cycles(t2.index(), CpuCategory::Other) >= 3_000_000.0);
    }

    #[test]
    fn link_stage_serializes() {
        let mut w = World::new(1);
        let l = w.add_link(Link::new(1e9, SimDuration::from_micros(5)));
        let a = w.add_actor("waiter", Waiter { done_at: None });
        let b = w.add_actor("waiter2", Waiter { done_at: None });
        // Two 1MB transfers share the link: second finishes ~2ms in.
        w.start_chain(vec![Stage::link(l, 1_000_000)], a, Done);
        w.start_chain(vec![Stage::link(l, 1_000_000)], b, Done);
        w.run();
        let s = w.metrics.samples("done_at_ms").unwrap();
        assert_eq!(s.count(), 2);
        assert!((s.values()[0] - 1.005).abs() < 0.01);
        assert!((s.values()[1] - 2.005).abs() < 0.01);
    }

    #[test]
    fn disk_stage_adds_latency() {
        let mut w = World::new(1);
        let d = w.add_blockdev(BlockDev::new(SimDuration::from_micros(80), 500e6));
        let a = w.add_actor("waiter", Waiter { done_at: None });
        w.start_chain(vec![Stage::disk(d, 500_000)], a, Done); // 1ms xfer + 80us
        w.run();
        let ms = w.metrics.mean("done_at_ms");
        assert!((ms - 1.08).abs() < 0.01, "took {ms}ms");
    }

    // -- fairness ------------------------------------------------------------

    struct Hog {
        thread: ThreadId,
        burst: u64,
        cat: CpuCategory,
    }
    impl Actor for Hog {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if msg.is::<Start>() || msg.is::<Done>() {
                let me = ctx.me();
                ctx.cpu(self.thread, self.burst, self.cat, me, Done);
            }
        }
    }

    #[test]
    fn two_hogs_share_one_core_fairly() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 1.0);
        let t1 = w.add_thread(h, "hog1");
        let t2 = w.add_thread(h, "hog2");
        let a1 = w.add_actor(
            "hog1",
            Hog {
                thread: t1,
                burst: 500_000,
                cat: CpuCategory::ClientApp,
            },
        );
        let a2 = w.add_actor(
            "hog2",
            Hog {
                thread: t2,
                burst: 500_000,
                cat: CpuCategory::Lookbusy,
            },
        );
        w.send_now(a1, Start);
        w.send_now(a2, Start);
        w.run_until(w.now() + SimDuration::from_millis(200));
        let b1 = w.acct.busy_ns(t1.index()) as f64;
        let b2 = w.acct.busy_ns(t2.index()) as f64;
        let share = b1 / (b1 + b2);
        assert!(
            (share - 0.5).abs() < 0.05,
            "unfair split: {share} ({b1} vs {b2})"
        );
        // Both together roughly saturate one core for 200ms.
        assert!(
            b1 + b2 > 190e6 && b1 + b2 <= 201e6,
            "core busy {}ms",
            (b1 + b2) / 1e6
        );
    }

    #[test]
    fn hogs_spread_across_idle_cores() {
        let mut w = World::new(1);
        let h = w.add_host("h", 2, 1.0);
        let t1 = w.add_thread(h, "hog1");
        let t2 = w.add_thread(h, "hog2");
        for (name, t) in [("a1", t1), ("a2", t2)] {
            let a = w.add_actor(
                name,
                Hog {
                    thread: t,
                    burst: 100_000,
                    cat: CpuCategory::Other,
                },
            );
            w.send_now(a, Start);
        }
        w.run_until(w.now() + SimDuration::from_millis(50));
        // both threads should be nearly fully busy (own core each)
        assert!(w.acct.busy_ns(t1.index()) > 45_000_000);
        assert!(w.acct.busy_ns(t2.index()) > 45_000_000);
    }

    #[test]
    fn host_ghz_scales_runtime() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 4.0);
        let t = w.add_thread(h, "t");
        let a = w.add_actor("waiter", Waiter { done_at: None });
        w.start_chain(vec![Stage::cpu(t, 4_000_000, CpuCategory::Other)], a, Done);
        w.run();
        let ms = w.metrics.mean("done_at_ms");
        assert!(ms < 1.1, "4M cycles at 4GHz should be ~1ms, got {ms}");
    }

    /// Short CPU bursts on an I/O thread, `left` times, `every` apart.
    struct Burst {
        thread: ThreadId,
        every: SimDuration,
        left: u32,
    }
    struct Tick;
    impl Actor for Burst {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            let me = ctx.me();
            if msg.is::<Start>() || msg.is::<Tick>() {
                ctx.cpu(self.thread, 20_000, CpuCategory::Other, me, Done);
            } else if msg.is::<Done>() && self.left > 0 {
                self.left -= 1;
                ctx.timer(Tick, self.every);
            }
        }
    }

    /// 20 hosts × 4 cores, every core contended by hogs of uneven burst
    /// lengths, plus an I/O thread per host waking up on its own period.
    fn timer_heavy_world() -> World {
        let mut w = World::new(7);
        for h in 0..20u64 {
            let host = w.add_host(&format!("h{h}"), 4, 2.0);
            for k in 0..6u64 {
                let thread = w.add_thread(host, &format!("hog{h}.{k}"));
                let a = w.add_actor(
                    "hog",
                    Hog {
                        thread,
                        burst: 300_000 + 70_000 * k + 1_000 * h,
                        cat: CpuCategory::Lookbusy,
                    },
                );
                w.send_now(a, Start);
            }
            let thread = w.add_thread(host, &format!("io{h}"));
            let a = w.add_actor(
                "io",
                Burst {
                    thread,
                    every: SimDuration::from_micros(150 + 10 * h),
                    left: 100,
                },
            );
            w.send_now(a, Start);
        }
        w
    }

    #[test]
    fn host_queued_delay_matches_a_scan_of_every_thread() {
        use crate::sched::TState;
        let mut w = timer_heavy_world();
        let mut waiting = 0;
        for k in 1..=60 {
            w.run_until(SimTime::from_nanos(k * 250_000));
            let now = w.now();
            for hix in 0..w.num_hosts() {
                let host = HostId::from_raw(hix.try_into().expect("host index fits u16"));
                let scan = w
                    .sched
                    .threads
                    .iter()
                    .filter(|th| th.host == host && th.state == TState::Queued)
                    .map(|th| now.since(th.queued_at))
                    .max()
                    .unwrap_or(SimDuration::ZERO);
                assert_eq!(w.host_max_queued_delay(host), scan, "host {hix} at {now:?}");
                waiting += u32::from(scan > SimDuration::ZERO);
            }
        }
        assert!(
            waiting > 100,
            "too few waiting threads to matter: {waiting}"
        );
    }

    #[test]
    fn timer_queue_matches_scan_at_scale() {
        let end = SimTime::from_nanos(30_000_000);
        let mut ran = timer_heavy_world();
        ran.run_until(end);
        // The same world driven one event at a time, checking the timer
        // list's minimum against a scan of every core before each event.
        let mut stepped = timer_heavy_world();
        while let Some(t) = stepped.next_event_time() {
            if t > end {
                break;
            }
            #[cfg(debug_assertions)]
            assert_eq!(stepped.timers.min(), stepped.timers.scan_min());
            stepped.step();
        }
        stepped.run_until(end);
        assert!(ran.events_processed() > 10_000, "too few events to matter");
        assert_eq!(
            (ran.now(), ran.events_processed()),
            (stepped.now(), stepped.events_processed())
        );
        for t in 0..ran.sched.threads.len() {
            assert_eq!(ran.acct.busy_ns(t), stepped.acct.busy_ns(t), "thread {t}");
        }
    }

    #[test]
    fn dump_state_counts_armed_timers() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 1.0);
        let thread = w.add_thread(h, "hog");
        let hog = w.add_actor(
            "hog",
            Hog {
                thread,
                burst: 1_000_000,
                cat: CpuCategory::Other,
            },
        );
        w.send_now(hog, Start);
        w.step(); // the hog's first burst arms the core timer
        assert_eq!(w.timers.armed(), 1);
        assert!(format!("{w:?}").contains("pending_events: 1,"));
    }

    // -- actor timers ----------------------------------------------------------

    /// Records every `Tag` as a `tag` sample and its arrival time as an
    /// `at_ns` sample. On `Tag(10)` it also sends itself `Tag(13)` now,
    /// arms a timer slot of its own with `Tag(15)` for now, and sends
    /// `Tag(14)`.
    #[derive(Default)]
    struct Tagger {
        react: Option<TimerSlot>,
    }

    impl Actor for Tagger {
        fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
            if let Ok(t) = downcast::<Tag>(msg) {
                let now = ctx.now().as_nanos() as f64;
                ctx.metrics().sample("tag", f64::from(t.0));
                ctx.metrics().sample("at_ns", now);
                if t.0 == 10 {
                    let slot = *self.react.get_or_insert_with(|| ctx.timer_slot());
                    let me = ctx.me();
                    ctx.send(me, Tag(13));
                    ctx.arm_timer(slot, Tag(15), SimDuration::ZERO);
                    ctx.send(me, Tag(14));
                }
            }
        }
    }

    fn tags(w: &World) -> Vec<f64> {
        w.metrics
            .samples("tag")
            .map_or(vec![], |s| s.values().to_vec())
    }

    #[test]
    fn a_disarmed_timer_never_fires() {
        let mut w = World::new(1);
        let a = w.add_actor("tagger", Tagger::default());
        let slot = w.add_timer(a);
        w.arm_timer(slot, Tag(1), SimDuration::from_secs(2));
        w.send_after(a, Tag(2), SimDuration::from_millis(3));
        assert_eq!(w.pending_events(), 2);
        w.disarm_timer(slot);
        assert_eq!(w.pending_events(), 1);
        w.run();
        assert_eq!(tags(&w), [2.0]);
        // the clock stops at the last real event, not at the watchdog
        assert_eq!(w.now(), SimTime::from_nanos(3_000_000));
        assert_eq!(w.events_processed(), 1);
        assert_eq!(w.next_event_time(), None);
    }

    #[test]
    fn a_rearm_replaces_the_pending_timer() {
        let mut w = World::new(1);
        let a = w.add_actor("tagger", Tagger::default());
        let slot = w.add_timer(a);
        w.arm_timer(slot, Tag(1), SimDuration::from_micros(50));
        w.arm_timer(slot, Tag(2), SimDuration::from_micros(80)); // later
        w.run_until(SimTime::from_nanos(10_000));
        w.arm_timer(slot, Tag(3), SimDuration::from_micros(5)); // earlier
        assert_eq!(w.pending_events(), 1);
        w.run();
        assert_eq!(tags(&w), [3.0]);
        assert_eq!(w.now(), SimTime::from_nanos(15_000));
        // a fired slot stays allocated and can be armed again
        w.arm_timer(slot, Tag(4), SimDuration::from_micros(1));
        w.run();
        assert_eq!(tags(&w), [3.0, 4.0]);
    }

    #[test]
    fn a_released_slot_is_reused_lifo() {
        let mut w = World::new(1);
        let a = w.add_actor("tagger", Tagger::default());
        let b = w.add_actor("tagger", Tagger::default());
        let h = w.add_host("h", 2, 1.0); // core slots 0 and 1
        let (s1, s2, s3) = (w.add_timer(a), w.add_timer(a), w.add_timer(b));
        assert_eq!((s1.raw(), s2.raw(), s3.raw()), (2, 3, 4));
        w.arm_timer(s1, Tag(1), SimDuration::from_micros(1));
        w.release_timer(s1); // drops its pending timer
        w.release_timer(s3);
        assert_eq!((w.add_timer(b), w.add_timer(b)), (s3, s1));
        let h2 = w.add_host("h2", 1, 1.0); // cores still append
        assert_eq!(w.sched.hosts[h2.index()].core_base, 5);
        assert_eq!(w.sched.hosts[h.index()].core_base, 0);
        w.arm_timer(s1, Tag(7), SimDuration::from_micros(2));
        w.run();
        assert_eq!(tags(&w), [7.0], "the reused slot delivers to its new owner");
        assert_eq!(
            w.metrics.samples("at_ns").map(|s| s.values()[0]),
            Some(2_000.0)
        );
    }

    #[test]
    fn actor_timers_tie_with_fast_lane_and_one_shots_in_time_seq_order() {
        let mut w = World::new(1);
        let a = w.add_actor("tagger", Tagger::default());
        let (now_slot, later_slot) = (w.add_timer(a), w.add_timer(a));
        let at = SimDuration::from_micros(5);
        // at time 0: fast lane, timer, fast lane
        w.send_now(a, Tag(1));
        w.arm_timer(now_slot, Tag(2), SimDuration::ZERO);
        w.send_now(a, Tag(3));
        // at 5 us: one-shot, timer, one-shot; then Tag(10)'s reactions queue a
        // fast-lane event, a zero-delay timer and another fast-lane event
        w.send_after(a, Tag(10), at);
        w.arm_timer(later_slot, Tag(11), at);
        w.send_after(a, Tag(12), at);
        w.run();
        assert_eq!(
            tags(&w),
            [1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0, 15.0, 14.0]
        );
        let at_ns = w.metrics.samples("at_ns").unwrap().values().to_vec();
        assert_eq!(at_ns, [0.0, 0.0, 0.0, 5e3, 5e3, 5e3, 5e3, 5e3, 5e3]);
    }

    #[test]
    fn wakeup_preempts_long_running_hog() {
        let mut w = World::new(1);
        let h = w.add_host("h", 1, 1.0);
        let hog_t = w.add_thread(h, "hog");
        let io_t = w.add_thread(h, "io");
        let hog = w.add_actor(
            "hog",
            Hog {
                thread: hog_t,
                burst: 50_000_000, // 50ms bursts
                cat: CpuCategory::Lookbusy,
            },
        );
        w.send_now(hog, Start);
        // Let the hog accumulate vruntime.
        w.run_until(w.now() + SimDuration::from_millis(20));
        let a = w.add_actor("waiter", Waiter { done_at: None });
        let t0 = w.now();
        w.start_chain(vec![Stage::cpu(io_t, 10_000, CpuCategory::Other)], a, Done);
        w.run_until(w.now() + SimDuration::from_millis(10));
        let s = w.metrics.samples("done_at_ms").expect("io work finished");
        let done_ms = s.values()[0];
        let lat = done_ms - t0.as_secs_f64() * 1e3;
        // The freshly-woken IO thread preempts the hog well before the
        // hog's 50ms burst would end.
        assert!(lat < 1.0, "wakeup latency {lat}ms too high");
    }
}
