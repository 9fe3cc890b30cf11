//! The future-event list: timer slots, each holding at most one pending
//! event, and a sorted list of the armed ones. Every event due after the
//! current instant waits here; same-instant events take the engine's
//! fast lane instead.
//!
//! A slot belongs to a core, to an actor, or to one event:
//!
//! * **Core slots** carry the scheduler's per-core timer. A core has at
//!   most one pending timer, armed exactly while the core runs a thread,
//!   so the table holds one slot per core, added with the host.
//! * **Actor slots** carry a timer an actor re-arms in place, such as an
//!   HDFS read's fetch watchdog. An actor allocates a slot, arms it with
//!   a message (replacing whatever was pending), disarms it when the
//!   guarded work finishes and releases it when done.
//! * **One-shot slots** carry any other future event: a delayed message,
//!   a chain resuming after a link, disk or delay stage, a timeline tick.
//!   [`TimerTable::schedule`] takes a slot and arms it; the slot releases
//!   itself when its event pops.
//!
//! Released slots of either kind go on one LIFO free list, so slot reuse
//! is deterministic. Arming a core or actor slot is a slot overwrite: a
//! replaced or disarmed timer vanishes instead of firing later as a
//! no-op.
//!
//! The engine asks for the earliest armed slot twice per event and pops
//! it once per future event, so the table also keeps every armed slot in
//! a `Vec` sorted by `(time, seq)` in *descending* order — the same idiom
//! as the scheduler's run queue. The earliest event is the last element:
//! reading it and popping it are O(1). Arming a slot binary-searches its
//! old key out of the list and its new key in, so an arm costs a search
//! plus a shift of the entries due *after* it. Core timers are due
//! within a slice, near the cheap end of the list; actor watchdogs are
//! due seconds out, near the far end. On the benchmark's 80-core,
//! 40-reader workload at most 156 slots are armed at once: up to 59
//! timers and 108 one-shot events. `seq` values are unique, so the last
//! element is exactly the slot a linear scan would pick.

use crate::engine::EvKind;
use crate::ids::{ActorId, HostId};
use crate::msg::BoxMsg;
use crate::time::SimTime;

/// Sort key of an unarmed slot: `(SimTime::MAX, u64::MAX)` packed, after
/// every armed timer.
const UNARMED: u128 = u128::MAX;

/// Packs `(time, seq)` so that one integer comparison orders two timers.
fn pack(t: SimTime, seq: u64) -> u128 {
    (u128::from(t.as_nanos()) << 64) | u128::from(seq)
}

/// Splits a packed key back into `(time, seq)` (the low half is `seq`).
fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

/// Whom a slot belongs to, and what its pending event carries.
enum Slot {
    /// A core's timer.
    Core { host: HostId, core: u32 },
    /// An actor's timer and, while armed, the message it delivers.
    Actor { to: ActorId, msg: Option<BoxMsg> },
    /// A one-shot event, armed until it pops.
    Once(EvKind),
    /// A released slot, on the free list.
    Free,
}

/// The timer table (see the module docs).
#[derive(Default)]
pub(crate) struct TimerTable {
    /// Core slots (one per core, host by host), actor slots and one-shot
    /// slots, in the order they were added.
    slots: Vec<Slot>,
    /// Packed `(time, seq)` per slot; unarmed slots hold [`UNARMED`].
    keys: Vec<u128>,
    /// `(key, slot)` of every armed slot, sorted descending by key: the
    /// earliest timer is last.
    desc: Vec<(u128, u32)>,
    /// Released actor and one-shot slots, reused last-in first-out.
    free: Vec<u32>,
}

impl TimerTable {
    /// Number of slots (cores across all hosts, plus the most actor and
    /// one-shot slots ever in use at once).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of armed slots.
    pub(crate) fn armed(&self) -> usize {
        self.desc.len()
    }

    /// Appends one unarmed slot per core of `host`.
    pub(crate) fn add_host(&mut self, host: HostId, cores: usize) {
        for c in 0..cores {
            self.slots.push(Slot::Core {
                host,
                core: c.try_into().expect("core count fits u32"),
            });
            self.keys.push(UNARMED);
        }
    }

    /// Gives `to` an unarmed actor slot (see [`TimerTable::take`]).
    pub(crate) fn alloc(&mut self, to: ActorId) -> usize {
        self.take(Slot::Actor { to, msg: None })
    }

    /// Arms a one-shot slot to deliver `ev` at `t`, returning the slot.
    /// The slot goes back on the free list when `ev` pops.
    #[inline]
    pub(crate) fn schedule(&mut self, t: SimTime, seq: u64, ev: EvKind) -> usize {
        let i = self.take(Slot::Once(ev));
        self.set_key(i, t, seq);
        i
    }

    /// Puts `slot` in the most recently released slot, or a new one.
    #[inline]
    fn take(&mut self, slot: Slot) -> usize {
        if let Some(i) = self.free.pop() {
            let i = i as usize;
            self.slots[i] = slot;
            i
        } else {
            self.slots.push(slot);
            self.keys.push(UNARMED);
            self.slots.len() - 1
        }
    }

    /// Where `key` sits (or would sit) in the descending list.
    #[inline]
    fn search(&self, key: u128) -> Result<usize, usize> {
        self.desc.binary_search_by(|&(k, _)| key.cmp(&k))
    }

    /// Takes the armed timer `key` out of the list.
    #[inline]
    fn unlist(&mut self, key: u128) {
        if self.desc.last().is_some_and(|&(k, _)| k == key) {
            self.desc.pop();
        } else {
            let at = self.search(key).expect("an armed timer is listed");
            self.desc.remove(at);
        }
    }

    /// Gives slot `i` the key `(t, seq)`, replacing any pending timer.
    #[inline]
    fn set_key(&mut self, i: usize, t: SimTime, seq: u64) {
        self.clear_key(i);
        let key = pack(t, seq);
        self.keys[i] = key;
        let slot = u32::try_from(i).expect("timer table fits u32");
        let at = self.search(key).expect_err("timer seqs are unique");
        self.desc.insert(at, (key, slot));
    }

    /// Unarms slot `i`'s key, returning the old one ([`UNARMED`] if none).
    #[inline]
    fn clear_key(&mut self, i: usize) -> u128 {
        let old = std::mem::replace(&mut self.keys[i], UNARMED);
        if old != UNARMED {
            self.unlist(old);
        }
        old
    }

    /// Arms core slot `i` to fire at `t`, replacing any pending timer.
    #[inline]
    pub(crate) fn arm_core(&mut self, i: usize, t: SimTime, seq: u64) {
        assert!(
            matches!(self.slots[i], Slot::Core { .. }),
            "arming a core timer in another slot"
        );
        self.set_key(i, t, seq);
    }

    /// Arms actor slot `i` to deliver `msg` at `t`, replacing (and
    /// dropping) any pending timer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is a core slot or a released one.
    pub(crate) fn arm_actor(&mut self, i: usize, t: SimTime, seq: u64, msg: BoxMsg) {
        let Slot::Actor { msg: m, .. } = &mut self.slots[i] else {
            panic!("arming an actor timer in a core or released slot");
        };
        *m = Some(msg);
        self.set_key(i, t, seq);
    }

    /// Disarms actor slot `i`, dropping its pending message if any.
    ///
    /// # Panics
    ///
    /// Panics if `i` is a core slot or a released one.
    pub(crate) fn disarm(&mut self, i: usize) {
        let Slot::Actor { msg, .. } = &mut self.slots[i] else {
            panic!("disarming a core or released timer slot");
        };
        *msg = None;
        self.clear_key(i);
    }

    /// Disarms actor slot `i` and puts it on the free list.
    ///
    /// # Panics
    ///
    /// Panics if `i` is a core slot or already released.
    pub(crate) fn release(&mut self, i: usize) {
        self.disarm(i);
        self.free_slot(i);
    }

    /// Marks slot `i` released and puts it on the free list.
    #[inline]
    fn free_slot(&mut self, i: usize) -> Slot {
        self.free
            .push(u32::try_from(i).expect("timer table fits u32"));
        std::mem::replace(&mut self.slots[i], Slot::Free)
    }

    /// Disarms slot `i`, returning its fire time and the event it
    /// delivers. A one-shot slot is released.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not armed.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> (SimTime, EvKind) {
        let key = self.clear_key(i);
        assert!(key != UNARMED, "popping an unarmed timer");
        let ev = match &mut self.slots[i] {
            &mut Slot::Core { host, core } => EvKind::CoreTimer {
                host,
                core: core as usize,
            },
            Slot::Actor { to, msg } => EvKind::Deliver {
                to: *to,
                msg: msg.take().expect("an armed actor slot holds its message"),
            },
            Slot::Once(_) => {
                let Slot::Once(ev) = self.free_slot(i) else {
                    unreachable!("matched a one-shot slot")
                };
                ev
            }
            Slot::Free => unreachable!("a released slot is never armed"),
        };
        (unpack(key).0, ev)
    }

    /// Earliest armed timer as `(time, seq, slot)`, if any: the last
    /// element of the list.
    #[inline]
    pub(crate) fn min(&self) -> Option<(SimTime, u64, usize)> {
        let min = self.desc.last().map(|&(key, slot)| {
            let (t, seq) = unpack(key);
            (t, seq, slot as usize)
        });
        #[cfg(debug_assertions)]
        assert_eq!(min, self.scan_min(), "timer list diverged from a scan");
        min
    }

    /// Earliest armed timer by linear scan: the reference the list is
    /// checked against in debug builds.
    #[cfg(debug_assertions)]
    pub(crate) fn scan_min(&self) -> Option<(SimTime, u64, usize)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, &key) in self.keys.iter().enumerate() {
            if key != UNARMED {
                let (t, seq) = unpack(key);
                if best.is_none_or(|(bt, bs, _)| (t, seq) < (bt, bs)) {
                    best = Some((t, seq, i));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn host(n: u16) -> HostId {
        HostId::from_raw(n)
    }

    /// Addressee of the one-shot deliveries the tests schedule.
    const ONCE_TO: ActorId = ActorId::from_raw(u32::MAX);

    /// A one-shot delivery of `n` to [`ONCE_TO`].
    fn once(n: u64) -> EvKind {
        EvKind::Deliver {
            to: ONCE_TO,
            msg: Box::new(n),
        }
    }

    /// Pops slot `i`, expecting a core timer: `(time, host, core)`.
    fn pop_core(t: &mut TimerTable, i: usize) -> (SimTime, HostId, usize) {
        match t.pop(i) {
            (at, EvKind::CoreTimer { host, core }) => (at, host, core),
            _ => panic!("slot {i} fired something other than a core timer"),
        }
    }

    /// Pops slot `i`, expecting a delivery carrying a `u64`:
    /// `(time, actor, payload)`.
    fn pop_actor(t: &mut TimerTable, i: usize) -> (SimTime, ActorId, u64) {
        match t.pop(i) {
            (at, EvKind::Deliver { to, msg }) => {
                (at, to, *msg.downcast::<u64>().expect("a u64 payload"))
            }
            _ => panic!("slot {i} fired something other than a delivery"),
        }
    }

    #[test]
    fn keys_pack_in_time_then_seq_order() {
        let at = SimTime::from_nanos;
        assert!(pack(at(1), u64::MAX - 1) < pack(at(2), 0));
        assert!(pack(at(2), 3) < pack(at(2), 4));
        assert!(pack(at(u64::MAX), u64::MAX - 1) < UNARMED);
        assert_eq!(unpack(pack(at(7), 9)), (at(7), 9));
    }

    #[test]
    fn empty_table_has_no_minimum() {
        let mut t = TimerTable::default();
        assert_eq!(t.min(), None);
        t.add_host(host(0), 3);
        assert_eq!((t.len(), t.armed(), t.min()), (3, 0, None));
    }

    #[test]
    fn minimum_tracks_arms_pops_and_rearms() {
        let mut t = TimerTable::default();
        t.add_host(host(0), 2);
        t.add_host(host(1), 3);
        let at = SimTime::from_nanos;
        t.arm_core(4, at(50), 1);
        t.arm_core(1, at(30), 2);
        t.arm_core(2, at(30), 3);
        assert_eq!(t.min(), Some((at(30), 2, 1)), "equal times break by seq");
        t.arm_core(1, at(60), 4); // re-arm moves slot 1 behind the others
        assert_eq!(t.armed(), 3);
        assert_eq!(t.min(), Some((at(30), 3, 2)));
        assert_eq!(pop_core(&mut t, 2), (at(30), host(1), 0));
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        t.arm_core(3, at(55), 5); // a later arm leaves the minimum alone
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        assert_eq!(pop_core(&mut t, 4), (at(50), host(1), 2));
        assert_eq!(pop_core(&mut t, 3), (at(55), host(1), 1));
        assert_eq!(pop_core(&mut t, 1), (at(60), host(0), 1));
        assert_eq!((t.armed(), t.min()), (0, None));
    }

    #[test]
    fn growth_keeps_armed_timers() {
        let mut t = TimerTable::default();
        t.add_host(host(0), 1);
        t.arm_core(0, SimTime::from_nanos(9), 1);
        for h in 1..20 {
            t.add_host(host(h), 4);
            assert_eq!(t.min(), Some((SimTime::from_nanos(9), 1, 0)));
        }
        assert_eq!(t.len(), 77);
        t.arm_core(76, SimTime::from_nanos(3), 2);
        assert_eq!(t.min(), Some((SimTime::from_nanos(3), 2, 76)));
    }

    #[test]
    #[should_panic(expected = "arming an actor timer in a core or released slot")]
    fn a_released_slot_cannot_be_armed() {
        let mut t = TimerTable::default();
        let i = t.alloc(ActorId::from_raw(0));
        t.release(i);
        t.arm_actor(i, SimTime::ZERO, 1, Box::new(0u64));
    }

    #[derive(Debug, Clone)]
    enum TimerOp {
        /// A host with this many cores joins the table.
        AddHost(usize),
        /// Arms (or re-arms) core `pick % cores` at this time.
        ArmCore(usize, u64),
        /// An actor allocates a slot.
        Alloc,
        /// Arms (or re-arms) live actor slot `pick % live` at this time.
        ArmActor(usize, u64),
        /// Disarms live actor slot `pick % live`.
        Disarm(usize),
        /// Releases live actor slot `pick % live`.
        Release(usize),
        /// Schedules a one-shot event at this time.
        Schedule(u64),
        /// Pops the earliest armed slot.
        PopMin,
    }

    /// Few distinct times and slots, so ties on time and re-arms of
    /// armed slots are common.
    fn timer_op() -> impl Strategy<Value = TimerOp> {
        prop_oneof![
            (1usize..5).prop_map(TimerOp::AddHost),
            (0usize..64, 0u64..8).prop_map(|(pick, t)| TimerOp::ArmCore(pick, t)),
            (0usize..64, 0u64..8).prop_map(|(pick, t)| TimerOp::ArmCore(pick, t * 1_000_000)),
            Just(TimerOp::Alloc),
            (0usize..64, 0u64..8).prop_map(|(pick, t)| TimerOp::ArmActor(pick, t)),
            (0usize..64).prop_map(TimerOp::Disarm),
            (0usize..64).prop_map(TimerOp::Release),
            (0u64..8).prop_map(TimerOp::Schedule),
            Just(TimerOp::PopMin),
        ]
    }

    /// Whom the oracle thinks a slot belongs to.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Core { host: HostId, core: usize },
        Actor(ActorId),
        Once,
        Free,
    }

    /// What the oracle knows about one slot.
    #[derive(Debug, Clone, Copy)]
    struct SlotModel {
        kind: Kind,
        armed: Option<(SimTime, u64)>,
    }

    /// Pops the earliest slot `(t, seq, i)` and checks that it delivers
    /// what the model says; a fired one-shot slot goes on `free`.
    fn pop_as_modelled(
        timers: &mut TimerTable,
        model: &mut [SlotModel],
        free: &mut Vec<usize>,
        (t, seq, i): (SimTime, u64, usize),
    ) -> Result<(), String> {
        model[i].armed = None;
        match model[i].kind {
            Kind::Core { host, core } => prop_assert_eq!(pop_core(timers, i), (t, host, core)),
            Kind::Actor(to) => prop_assert_eq!(pop_actor(timers, i), (t, to, seq)),
            Kind::Once => {
                prop_assert_eq!(pop_actor(timers, i), (t, ONCE_TO, seq));
                model[i].kind = Kind::Free;
                free.push(i);
            }
            Kind::Free => unreachable!("released slot {i} fired"),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The timer list answers every call exactly as a
        /// `BTreeSet<(time, seq, slot)>` of the armed slots, core, actor
        /// and one-shot alike, and released and fired one-shot slots
        /// come back LIFO to actors and one-shots alike.
        #[test]
        fn timer_slots_match_btreeset(ops in proptest::collection::vec(timer_op(), 1..150)) {
            let mut timers = TimerTable::default();
            let mut oracle: BTreeSet<(SimTime, u64, usize)> = BTreeSet::new();
            let mut model: Vec<SlotModel> = Vec::new();
            let mut cores: Vec<usize> = Vec::new();
            let mut live: Vec<usize> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            let mut hosts = 0u16;
            let mut seq = 0u64;
            let disarm = |model: &mut Vec<SlotModel>, oracle: &mut BTreeSet<_>, i: usize| {
                if let Some((t, s)) = model[i].armed.take() {
                    oracle.remove(&(t, s, i));
                }
            };
            for op in &ops {
                match *op {
                    TimerOp::AddHost(n) => {
                        timers.add_host(host(hosts), n);
                        cores.extend(model.len()..model.len() + n);
                        model.extend((0..n).map(|core| SlotModel {
                            kind: Kind::Core { host: host(hosts), core },
                            armed: None,
                        }));
                        hosts += 1;
                    }
                    TimerOp::ArmCore(pick, t) => {
                        if cores.is_empty() {
                            continue;
                        }
                        let i = cores[pick % cores.len()];
                        seq += 1;
                        let t = SimTime::from_nanos(t);
                        timers.arm_core(i, t, seq);
                        disarm(&mut model, &mut oracle, i);
                        model[i].armed = Some((t, seq));
                        oracle.insert((t, seq, i));
                    }
                    TimerOp::Alloc | TimerOp::Schedule(_) => {
                        let want = free.pop().unwrap_or(model.len());
                        if want == model.len() {
                            model.push(SlotModel { kind: Kind::Free, armed: None });
                        }
                        let i = if let TimerOp::Schedule(t) = *op {
                            seq += 1;
                            let t = SimTime::from_nanos(t);
                            model[want] = SlotModel { kind: Kind::Once, armed: Some((t, seq)) };
                            oracle.insert((t, seq, want));
                            timers.schedule(t, seq, once(seq))
                        } else {
                            let to = ActorId::from_raw(u32::try_from(live.len()).unwrap());
                            model[want].kind = Kind::Actor(to);
                            live.push(want);
                            timers.alloc(to)
                        };
                        prop_assert_eq!(i, want, "released slots are reused LIFO");
                    }
                    TimerOp::ArmActor(pick, t) => {
                        if live.is_empty() {
                            continue;
                        }
                        let i = live[pick % live.len()];
                        seq += 1;
                        let t = SimTime::from_nanos(t);
                        timers.arm_actor(i, t, seq, Box::new(seq));
                        disarm(&mut model, &mut oracle, i);
                        model[i].armed = Some((t, seq));
                        oracle.insert((t, seq, i));
                    }
                    TimerOp::Disarm(pick) | TimerOp::Release(pick) => {
                        if live.is_empty() {
                            continue;
                        }
                        let at = pick % live.len();
                        let i = live[at];
                        disarm(&mut model, &mut oracle, i);
                        if matches!(op, TimerOp::Release(_)) {
                            timers.release(i);
                            live.remove(at);
                            free.push(i);
                            model[i].kind = Kind::Free;
                        } else {
                            timers.disarm(i);
                        }
                    }
                    TimerOp::PopMin => {
                        let min = timers.min();
                        prop_assert_eq!(min, oracle.first().copied());
                        if let Some(min) = min {
                            oracle.remove(&min);
                            pop_as_modelled(&mut timers, &mut model, &mut free, min)?;
                        }
                    }
                }
                prop_assert_eq!(timers.len(), model.len());
                prop_assert_eq!(timers.armed(), oracle.len());
                prop_assert_eq!(timers.min(), oracle.first().copied());
            }
            while let Some(min) = timers.min() {
                prop_assert_eq!(Some(min), oracle.pop_first());
                pop_as_modelled(&mut timers, &mut model, &mut free, min)?;
            }
            prop_assert!(oracle.is_empty());
        }
    }
}
