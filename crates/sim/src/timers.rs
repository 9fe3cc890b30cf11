//! The core-timer table: one armed-timer slot per core, and a sorted
//! list of the armed ones.
//!
//! A core has at most one *valid* pending timer at any time (re-arming
//! always bumps the core's generation, invalidating the previous timer),
//! so core timers live in a flat per-core table instead of the event
//! heap: arming is a slot overwrite and stale timers vanish instead of
//! firing as no-ops.
//!
//! The engine asks for the earliest armed timer twice per event and pops
//! it once per fired timer, so the table also keeps every armed timer in
//! a `Vec` sorted by `(time, seq)` in *descending* order — the same
//! idiom as the scheduler's run queue. The earliest timer is the last
//! element: reading it and popping it are O(1). Arming a slot
//! binary-searches its old key out of the list and its new key in, so
//! an arm costs a search plus a shift of at most the armed count. Only
//! a few dozen timers are armed at once even on an 80-core world, which
//! keeps those shifts short. `seq` values are unique, so the last
//! element is exactly the slot a linear scan would pick.

use crate::ids::HostId;
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

/// Which core a slot belongs to, and the generation its timer carries.
struct Slot {
    host: HostId,
    core: u32,
    gen: u64,
}

/// The per-core timer table (see the module docs).
#[derive(Default)]
pub(crate) struct CoreTimers {
    /// One slot per core across all hosts, host by host.
    slots: Vec<Slot>,
    /// Packed `(time, seq)` per slot; unarmed slots hold [`UNARMED`].
    keys: Vec<u128>,
    /// `(key, slot)` of every armed slot, sorted descending by key: the
    /// earliest timer is last.
    desc: Vec<(u128, u32)>,
}

impl CoreTimers {
    /// Number of slots (cores across all hosts).
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
            self.slots.push(Slot {
                host,
                core: c.try_into().expect("core count fits u32"),
                gen: 0,
            });
            self.keys.push(UNARMED);
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

    /// Arms slot `i` to fire at `t`, replacing any pending timer there.
    #[inline]
    pub(crate) fn arm(&mut self, i: usize, t: SimTime, seq: u64, gen: u64) {
        let old = self.keys[i];
        if old != UNARMED {
            self.unlist(old);
        }
        let key = pack(t, seq);
        self.keys[i] = key;
        self.slots[i].gen = gen;
        let slot = u32::try_from(i).expect("core-timer table fits u32");
        let at = self.search(key).expect_err("timer seqs are unique");
        self.desc.insert(at, (key, slot));
    }

    /// Disarms slot `i`, returning `(fire_time, host, core, gen)`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not armed.
    #[inline]
    pub(crate) fn pop(&mut self, i: usize) -> (SimTime, HostId, usize, u64) {
        let key = std::mem::replace(&mut self.keys[i], UNARMED);
        assert!(key != UNARMED, "popping an unarmed core timer");
        self.unlist(key);
        let s = &self.slots[i];
        (unpack(key).0, s.host, s.core as usize, s.gen)
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
        assert_eq!(min, self.scan_min(), "core-timer list diverged from a scan");
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
        let mut t = CoreTimers::default();
        assert_eq!(t.min(), None);
        t.add_host(host(0), 3);
        assert_eq!((t.len(), t.armed(), t.min()), (3, 0, None));
    }

    #[test]
    fn minimum_tracks_arms_pops_and_rearms() {
        let mut t = CoreTimers::default();
        t.add_host(host(0), 2);
        t.add_host(host(1), 3);
        let at = SimTime::from_nanos;
        t.arm(4, at(50), 1, 7);
        t.arm(1, at(30), 2, 1);
        t.arm(2, at(30), 3, 1);
        assert_eq!(t.min(), Some((at(30), 2, 1)), "equal times break by seq");
        t.arm(1, at(60), 4, 2); // re-arm moves slot 1 behind the others
        assert_eq!(t.armed(), 3);
        assert_eq!(t.min(), Some((at(30), 3, 2)));
        assert_eq!(t.pop(2), (at(30), host(1), 0, 1));
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        t.arm(3, at(55), 5, 4); // a later arm leaves the minimum alone
        assert_eq!(t.min(), Some((at(50), 1, 4)));
        assert_eq!(t.pop(4), (at(50), host(1), 2, 7));
        assert_eq!(t.pop(3), (at(55), host(1), 1, 4));
        assert_eq!(t.pop(1), (at(60), host(0), 1, 2));
        assert_eq!((t.armed(), t.min()), (0, None));
    }

    #[test]
    fn growth_keeps_armed_timers() {
        let mut t = CoreTimers::default();
        t.add_host(host(0), 1);
        t.arm(0, SimTime::from_nanos(9), 1, 1);
        for h in 1..20 {
            t.add_host(host(h), 4);
            assert_eq!(t.min(), Some((SimTime::from_nanos(9), 1, 0)));
        }
        assert_eq!(t.len(), 77);
        t.arm(76, SimTime::from_nanos(3), 2, 1);
        assert_eq!(t.min(), Some((SimTime::from_nanos(3), 2, 76)));
    }

    #[derive(Debug, Clone)]
    enum TimerOp {
        /// A host with this many cores joins the table.
        AddHost(usize),
        /// Arms (or re-arms) slot `pick % len` at this time.
        Arm(usize, u64),
        /// Pops the earliest armed timer.
        PopMin,
    }

    /// Few distinct times and slots, so ties on time and re-arms of
    /// armed slots are common.
    fn timer_op() -> impl Strategy<Value = TimerOp> {
        prop_oneof![
            (1usize..5).prop_map(TimerOp::AddHost),
            (0usize..64, 0u64..8).prop_map(|(pick, t)| TimerOp::Arm(pick, t)),
            (0usize..64, 0u64..8).prop_map(|(pick, t)| TimerOp::Arm(pick, t * 1_000_000)),
            Just(TimerOp::PopMin),
        ]
    }

    /// What the oracle knows about one slot.
    #[derive(Debug, Clone, Copy)]
    struct SlotModel {
        host: HostId,
        core: usize,
        armed: Option<(SimTime, u64)>,
        gen: u64,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The timer list answers every call exactly as a
        /// `BTreeSet<(time, seq, slot)>` of the armed timers.
        #[test]
        fn core_timers_match_btreeset(ops in proptest::collection::vec(timer_op(), 1..150)) {
            let mut timers = CoreTimers::default();
            let mut oracle: BTreeSet<(SimTime, u64, usize)> = BTreeSet::new();
            let mut model: Vec<SlotModel> = Vec::new();
            let mut hosts = 0u16;
            let mut seq = 0u64;
            for op in &ops {
                match *op {
                    TimerOp::AddHost(cores) => {
                        timers.add_host(host(hosts), cores);
                        model.extend((0..cores).map(|core| SlotModel {
                            host: host(hosts),
                            core,
                            armed: None,
                            gen: 0,
                        }));
                        hosts += 1;
                    }
                    TimerOp::Arm(pick, t) => {
                        if model.is_empty() {
                            continue;
                        }
                        let i = pick % model.len();
                        seq += 1;
                        let (t, gen) = (SimTime::from_nanos(t), seq * 3);
                        timers.arm(i, t, seq, gen);
                        if let Some((ot, os)) = model[i].armed.replace((t, seq)) {
                            oracle.remove(&(ot, os, i));
                        }
                        model[i].gen = gen;
                        oracle.insert((t, seq, i));
                    }
                    TimerOp::PopMin => {
                        let min = timers.min();
                        prop_assert_eq!(min, oracle.first().copied());
                        if let Some((t, seq, i)) = min {
                            let m = model[i];
                            prop_assert_eq!(timers.pop(i), (t, m.host, m.core, m.gen));
                            oracle.remove(&(t, seq, i));
                            model[i].armed = None;
                        }
                    }
                }
                prop_assert_eq!(timers.len(), model.len());
                prop_assert_eq!(timers.armed(), oracle.len());
                prop_assert_eq!(timers.min(), oracle.first().copied());
            }
            while let Some(min) = timers.min() {
                prop_assert_eq!(Some(min), oracle.pop_first());
                let (t, _, i) = min;
                let m = model[i];
                prop_assert_eq!(timers.pop(i), (t, m.host, m.core, m.gen));
            }
            prop_assert!(oracle.is_empty());
        }
    }
}
