//! The timer table: re-armable timer slots, each holding at most one
//! pending timer, and a sorted list of the armed ones.
//!
//! A slot belongs either to a core or to an actor:
//!
//! * **Core slots** carry the scheduler's per-core timer. A core has at
//!   most one *valid* pending timer at any time (re-arming always bumps
//!   the core's generation, invalidating the previous timer), so the
//!   table holds one slot per core, added with the host.
//! * **Actor slots** carry a timer an actor re-arms in place, such as an
//!   HDFS read's fetch watchdog. An actor allocates a slot, arms it with
//!   a message (replacing whatever was pending), disarms it when the
//!   guarded work finishes and releases it when done. Released slots go
//!   on a LIFO free list, so slot reuse is deterministic.
//!
//! Either way, arming is a slot overwrite: a replaced or disarmed timer
//! vanishes instead of firing later as a no-op.
//!
//! The engine asks for the earliest armed timer twice per event and pops
//! it once per fired timer, so the table also keeps every armed timer in
//! a `Vec` sorted by `(time, seq)` in *descending* order — the same
//! idiom as the scheduler's run queue. The earliest timer is the last
//! element: reading it and popping it are O(1). Arming a slot
//! binary-searches its old key out of the list and its new key in, so
//! an arm costs a search plus a shift of the entries due *after* it.
//! Core timers are due within a slice, near the cheap end of the list;
//! actor watchdogs are due seconds out, near the far end. The armed
//! count peaks at 59 on the benchmark's 80-core, 40-reader workload.
//! `seq` values are unique, so the last element is exactly the slot a
//! linear scan would pick.

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

/// Whom a slot belongs to, and what its pending timer carries.
enum Slot {
    /// A core's timer and the generation it carries.
    Core { host: HostId, core: u32, gen: u64 },
    /// An actor's timer and, while armed, the message it delivers.
    Actor { to: ActorId, msg: Option<BoxMsg> },
    /// A released actor slot, on the free list.
    Free,
}

/// What a popped timer delivers.
pub(crate) enum Fired {
    /// A core timer: the scheduler re-evaluates `core` of `host`.
    Core { host: HostId, core: usize, gen: u64 },
    /// An actor timer: `msg` goes to `to` like any message.
    Actor { to: ActorId, msg: BoxMsg },
}

/// The timer table (see the module docs).
#[derive(Default)]
pub(crate) struct TimerTable {
    /// Core slots (one per core, host by host) and actor slots, in the
    /// order they were added.
    slots: Vec<Slot>,
    /// Packed `(time, seq)` per slot; unarmed slots hold [`UNARMED`].
    keys: Vec<u128>,
    /// `(key, slot)` of every armed slot, sorted descending by key: the
    /// earliest timer is last.
    desc: Vec<(u128, u32)>,
    /// Released actor slots, reused last-in first-out.
    free: Vec<u32>,
}

impl TimerTable {
    /// Number of slots (cores across all hosts, plus actor slots ever
    /// allocated).
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
                gen: 0,
            });
            self.keys.push(UNARMED);
        }
    }

    /// Gives `to` an unarmed actor slot: the most recently released one,
    /// or a new one.
    pub(crate) fn alloc(&mut self, to: ActorId) -> usize {
        let slot = Slot::Actor { to, msg: None };
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
    pub(crate) fn arm_core(&mut self, i: usize, t: SimTime, seq: u64, gen: u64) {
        let Slot::Core { gen: g, .. } = &mut self.slots[i] else {
            panic!("arming a core timer in an actor slot");
        };
        *g = gen;
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
        self.slots[i] = Slot::Free;
        self.free
            .push(u32::try_from(i).expect("timer table fits u32"));
    }

    /// Disarms slot `i`, returning its fire time and what it delivers.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not armed.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> (SimTime, Fired) {
        let key = self.clear_key(i);
        assert!(key != UNARMED, "popping an unarmed timer");
        let fired = match &mut self.slots[i] {
            &mut Slot::Core { host, core, gen } => Fired::Core {
                host,
                core: core as usize,
                gen,
            },
            Slot::Actor { to, msg } => Fired::Actor {
                to: *to,
                msg: msg.take().expect("an armed actor slot holds its message"),
            },
            Slot::Free => unreachable!("a released slot is never armed"),
        };
        (unpack(key).0, fired)
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

    /// Pops slot `i`, expecting a core timer: `(time, host, core, gen)`.
    fn pop_core(t: &mut TimerTable, i: usize) -> (SimTime, HostId, usize, u64) {
        match t.pop(i) {
            (at, Fired::Core { host, core, gen }) => (at, host, core, gen),
            (_, Fired::Actor { .. }) => panic!("slot {i} fired an actor timer"),
        }
    }

    /// Pops slot `i`, expecting an actor timer carrying a `u64`:
    /// `(time, actor, payload)`.
    fn pop_actor(t: &mut TimerTable, i: usize) -> (SimTime, ActorId, u64) {
        match t.pop(i) {
            (at, Fired::Actor { to, msg }) => {
                (at, to, *msg.downcast::<u64>().expect("a u64 payload"))
            }
            (_, Fired::Core { .. }) => panic!("slot {i} fired a core timer"),
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
        t.arm_core(4, at(50), 1, 7);
        t.arm_core(1, at(30), 2, 1);
        t.arm_core(2, at(30), 3, 1);
        assert_eq!(t.min(), Some((at(30), 2, 1)), "equal times break by seq");
        t.arm_core(1, at(60), 4, 2); // re-arm moves slot 1 behind the others
        assert_eq!(t.armed(), 3);
        assert_eq!(t.min(), Some((at(30), 3, 2)));
        assert_eq!(pop_core(&mut t, 2), (at(30), host(1), 0, 1));
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        t.arm_core(3, at(55), 5, 4); // a later arm leaves the minimum alone
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        assert_eq!(pop_core(&mut t, 4), (at(50), host(1), 2, 7));
        assert_eq!(pop_core(&mut t, 3), (at(55), host(1), 1, 4));
        assert_eq!(pop_core(&mut t, 1), (at(60), host(0), 1, 2));
        assert_eq!((t.armed(), t.min()), (0, None));
    }

    #[test]
    fn growth_keeps_armed_timers() {
        let mut t = TimerTable::default();
        t.add_host(host(0), 1);
        t.arm_core(0, SimTime::from_nanos(9), 1, 1);
        for h in 1..20 {
            t.add_host(host(h), 4);
            assert_eq!(t.min(), Some((SimTime::from_nanos(9), 1, 0)));
        }
        assert_eq!(t.len(), 77);
        t.arm_core(76, SimTime::from_nanos(3), 2, 1);
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
        /// Pops the earliest armed timer.
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
            Just(TimerOp::PopMin),
        ]
    }

    /// Whom the oracle thinks a slot belongs to.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Core { host: HostId, core: usize, gen: u64 },
        Actor(ActorId),
        Free,
    }

    /// What the oracle knows about one slot.
    #[derive(Debug, Clone, Copy)]
    struct SlotModel {
        kind: Kind,
        armed: Option<(SimTime, u64)>,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The timer list answers every call exactly as a
        /// `BTreeSet<(time, seq, slot)>` of the armed timers, core and
        /// actor slots alike, and released slots come back LIFO.
        #[test]
        fn core_timers_match_btreeset(ops in proptest::collection::vec(timer_op(), 1..150)) {
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
                            kind: Kind::Core { host: host(hosts), core, gen: 0 },
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
                        let (t, gen) = (SimTime::from_nanos(t), seq * 3);
                        timers.arm_core(i, t, seq, gen);
                        disarm(&mut model, &mut oracle, i);
                        let Kind::Core { gen: g, .. } = &mut model[i].kind else {
                            unreachable!("core list holds core slots")
                        };
                        *g = gen;
                        model[i].armed = Some((t, seq));
                        oracle.insert((t, seq, i));
                    }
                    TimerOp::Alloc => {
                        let to = ActorId::from_raw(u32::try_from(live.len()).unwrap());
                        let i = timers.alloc(to);
                        let want = free.pop().unwrap_or(model.len());
                        prop_assert_eq!(i, want, "released slots are reused LIFO");
                        if i == model.len() {
                            model.push(SlotModel { kind: Kind::Free, armed: None });
                        }
                        model[i].kind = Kind::Actor(to);
                        live.push(i);
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
                        if let Some((t, s, i)) = min {
                            oracle.remove(&(t, s, i));
                            model[i].armed = None;
                            match model[i].kind {
                                Kind::Core { host, core, gen } => {
                                    prop_assert_eq!(pop_core(&mut timers, i), (t, host, core, gen));
                                }
                                Kind::Actor(to) => {
                                    prop_assert_eq!(pop_actor(&mut timers, i), (t, to, s));
                                }
                                Kind::Free => unreachable!("released slot {i} fired"),
                            }
                        }
                    }
                }
                prop_assert_eq!(timers.len(), model.len());
                prop_assert_eq!(timers.armed(), oracle.len());
                prop_assert_eq!(timers.min(), oracle.first().copied());
            }
            while let Some(min) = timers.min() {
                prop_assert_eq!(Some(min), oracle.pop_first());
                let (t, s, i) = min;
                match model[i].kind {
                    Kind::Core { host, core, gen } => {
                        prop_assert_eq!(pop_core(&mut timers, i), (t, host, core, gen));
                    }
                    Kind::Actor(to) => prop_assert_eq!(pop_actor(&mut timers, i), (t, to, s)),
                    Kind::Free => unreachable!("released slot {i} fired"),
                }
            }
            prop_assert!(oracle.is_empty());
        }
    }
}
