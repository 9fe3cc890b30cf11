//! CPU chains: multi-stage costed operations.
//!
//! A chain is an ordered sequence of [`Stage`]s followed by a completion
//! message. Stages model the hops of an I/O path: cycles burned on a
//! specific thread (subject to scheduling!), serialization on a link,
//! service at a block device, or a pure delay. The engine advances a chain
//! stage by stage; CPU stages go through the fair scheduler, so chains
//! automatically experience run-queue delays when hosts are oversubscribed.
//!
//! Example — the vanilla virtio-net transmit path for one TSO segment is a
//! chain of four CPU stages on four different threads (guest TX, vhost TX,
//! vhost RX, guest RX), which is exactly how `vread-net` builds it.
//!
//! Stages are small `Copy` values and a [`StageList`] keeps the first
//! [`INLINE_STAGES`] of them inline (no heap allocation); real paths are
//! almost always ≤ 8 hops, so a typical chain start allocates nothing
//! beyond its completion message.

use crate::cpu::CpuCategory;
use crate::ids::{ActorId, BlockDevId, LinkId, ThreadId};
use crate::msg::BoxMsg;
use crate::span::SpanId;
use crate::time::SimDuration;

/// One step of a [`Stage`] chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// Burn `cycles` on `thread`, accounted under `cat`. The wall time this
    /// takes depends on the host's clock frequency and on scheduling.
    Cpu {
        /// The thread that must execute this work.
        thread: ThreadId,
        /// Work amount in CPU cycles.
        cycles: u64,
        /// Accounting category.
        cat: CpuCategory,
    },
    /// Serialize `bytes` over `link` (FIFO queueing + propagation delay).
    Link {
        /// The link to traverse.
        link: LinkId,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Service a `bytes`-sized request at block device `dev`.
    Disk {
        /// The device to access.
        dev: BlockDevId,
        /// Request size in bytes.
        bytes: u64,
    },
    /// Wait a fixed duration (timer, deliberate pacing).
    Delay {
        /// How long to wait.
        dur: SimDuration,
    },
    /// A *data copy*: burns `cycles` on `thread` exactly like
    /// [`Stage::Cpu`], but additionally records `bytes` moved against the
    /// chain's span (the flight recorder's copies-per-read ledger,
    /// [`crate::span`]). Timing and accounting are identical to an
    /// equivalent `Cpu` stage whether spans are on or off.
    Copy {
        /// The thread performing the copy.
        thread: ThreadId,
        /// Cost of the copy (plus any fused per-slot/syscall work).
        cycles: u64,
        /// Accounting category (e.g. [`CpuCategory::CopyVreadBuffer`]).
        cat: CpuCategory,
        /// Payload bytes moved.
        bytes: u64,
    },
    /// A zero-copy *mapping*: `bytes` of payload made visible to the
    /// consumer without moving them (page remapping into a shared
    /// region). Burns `cycles` like [`Stage::Cpu`] — the page-table and
    /// bookkeeping cost — and records `bytes` as *mapped* on the chain's
    /// span, so the copies-per-read ledger can distinguish moved bytes
    /// from mapped ones. This is how a content-addressed host store
    /// serves dedup hits below vRead's two copies per read.
    Map {
        /// The thread performing the mapping.
        thread: ThreadId,
        /// Bookkeeping cost of the mapping.
        cycles: u64,
        /// Accounting category.
        cat: CpuCategory,
        /// Payload bytes made visible.
        bytes: u64,
    },
}

impl Stage {
    /// Convenience constructor for a CPU stage.
    pub fn cpu(thread: ThreadId, cycles: u64, cat: CpuCategory) -> Stage {
        Stage::Cpu {
            thread,
            cycles,
            cat,
        }
    }

    /// Convenience constructor for a link stage.
    pub fn link(link: LinkId, bytes: u64) -> Stage {
        Stage::Link { link, bytes }
    }

    /// Convenience constructor for a disk stage.
    pub fn disk(dev: BlockDevId, bytes: u64) -> Stage {
        Stage::Disk { dev, bytes }
    }

    /// Convenience constructor for a data-copy stage.
    pub fn copy(thread: ThreadId, cycles: u64, cat: CpuCategory, bytes: u64) -> Stage {
        Stage::Copy {
            thread,
            cycles,
            cat,
            bytes,
        }
    }

    /// Convenience constructor for a zero-copy mapping stage.
    pub fn map(thread: ThreadId, cycles: u64, cat: CpuCategory, bytes: u64) -> Stage {
        Stage::Map {
            thread,
            cycles,
            cat,
            bytes,
        }
    }
}

/// Number of stages a [`StageList`] stores inline before spilling to the
/// heap.
pub const INLINE_STAGES: usize = 8;

const FILLER: Stage = Stage::Delay {
    dur: SimDuration::ZERO,
};

/// An ordered stage queue with inline storage for the common case.
///
/// The first [`INLINE_STAGES`] stages live in a fixed array inside the
/// struct; any excess spills to a `Vec`. Consumption advances a cursor
/// instead of shifting elements.
#[derive(Debug, Clone)]
pub struct StageList {
    inline: [Stage; INLINE_STAGES],
    spill: Vec<Stage>,
    /// Next stage to consume (monotonic; counts consumed stages).
    pos: u32,
    /// Total stages ever pushed.
    len: u32,
}

impl Default for StageList {
    fn default() -> Self {
        StageList::new()
    }
}

impl StageList {
    /// Creates an empty list.
    pub fn new() -> Self {
        StageList {
            inline: [FILLER; INLINE_STAGES],
            spill: Vec::new(),
            pos: 0,
            len: 0,
        }
    }

    /// A list holding a single stage (never allocates).
    pub fn single(s: Stage) -> Self {
        let mut l = StageList::new();
        l.push(s);
        l
    }

    /// Appends a stage.
    pub fn push(&mut self, s: Stage) {
        let i = self.len as usize;
        if i < INLINE_STAGES {
            self.inline[i] = s;
        } else {
            self.spill.push(s);
        }
        self.len += 1;
    }

    /// Removes and returns the next stage, if any.
    pub fn pop_front(&mut self) -> Option<Stage> {
        let s = self.peek()?;
        self.pos += 1;
        Some(s)
    }

    /// The next stage without consuming it.
    pub fn peek(&self) -> Option<Stage> {
        if self.pos == self.len {
            return None;
        }
        let i = self.pos as usize;
        Some(if i < INLINE_STAGES {
            self.inline[i]
        } else {
            self.spill[i - INLINE_STAGES]
        })
    }

    /// Stages not yet consumed.
    pub fn remaining(&self) -> usize {
        (self.len - self.pos) as usize
    }

    /// True when all stages have been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.len
    }
}

impl From<Stage> for StageList {
    fn from(s: Stage) -> Self {
        StageList::single(s)
    }
}

impl<const N: usize> From<[Stage; N]> for StageList {
    fn from(arr: [Stage; N]) -> Self {
        let mut l = StageList::new();
        for s in arr {
            l.push(s);
        }
        l
    }
}

impl From<&[Stage]> for StageList {
    fn from(v: &[Stage]) -> Self {
        let mut l = StageList::new();
        for &s in v {
            l.push(s);
        }
        l
    }
}

impl From<Vec<Stage>> for StageList {
    fn from(v: Vec<Stage>) -> Self {
        v.as_slice().into()
    }
}

impl Extend<Stage> for StageList {
    fn extend<I: IntoIterator<Item = Stage>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

impl IntoIterator for StageList {
    type Item = Stage;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter(self)
    }
}

/// The unconsumed stages of a [`StageList`], in order.
#[derive(Debug, Clone)]
pub struct IntoIter(StageList);

impl Iterator for IntoIter {
    type Item = Stage;

    fn next(&mut self) -> Option<Stage> {
        self.0.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for IntoIter {}

/// An in-flight chain owned by the engine.
#[derive(Debug)]
pub(crate) struct Chain {
    pub(crate) stages: StageList,
    /// `(recipient, message)` delivered when the last stage completes.
    pub(crate) then: Option<(ActorId, BoxMsg)>,
    /// The span this chain's work is attributed to ([`SpanId::NONE`]
    /// when untraced).
    pub(crate) span: SpanId,
}

impl Chain {
    pub(crate) fn new(stages: StageList, to: ActorId, msg: BoxMsg) -> Self {
        Chain {
            stages,
            then: Some((to, msg)),
            span: SpanId::NONE,
        }
    }

    pub(crate) fn new_on(stages: StageList, to: ActorId, msg: BoxMsg, span: SpanId) -> Self {
        Chain {
            stages,
            then: Some((to, msg)),
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_chains_stay_small() {
        // `CpuCategory` is one byte, so it packs beside a stage's 4-byte
        // thread id and the tag instead of taking a word of its own.
        assert_eq!(std::mem::size_of::<CpuCategory>(), 1);
        assert_eq!(std::mem::size_of::<Stage>(), 24);
        assert_eq!(std::mem::size_of::<StageList>(), 224);
        assert_eq!(std::mem::size_of::<Chain>(), 256);
    }

    #[test]
    fn constructors() {
        let t = ThreadId::from_raw(1);
        assert_eq!(
            Stage::cpu(t, 5, CpuCategory::Other),
            Stage::Cpu {
                thread: t,
                cycles: 5,
                cat: CpuCategory::Other
            }
        );
        assert_eq!(
            Stage::Delay {
                dur: SimDuration::from_nanos(3)
            },
            Stage::Delay {
                dur: SimDuration::from_nanos(3)
            }
        );
    }

    #[test]
    fn stage_list_inline_and_spill() {
        let mut l = StageList::new();
        assert!(l.is_empty());
        for i in 0..INLINE_STAGES + 3 {
            l.push(Stage::Delay {
                dur: SimDuration::from_nanos(i as u64),
            });
        }
        assert_eq!(l.remaining(), INLINE_STAGES + 3);
        for i in 0..INLINE_STAGES + 3 {
            assert_eq!(
                l.pop_front(),
                Some(Stage::Delay {
                    dur: SimDuration::from_nanos(i as u64)
                }),
                "stage {i}"
            );
        }
        assert!(l.is_empty());
        assert_eq!(l.pop_front(), None);
    }

    #[test]
    fn stage_list_from_conversions() {
        let t = ThreadId::from_raw(0);
        let single: StageList = Stage::cpu(t, 1, CpuCategory::Other).into();
        assert_eq!(single.remaining(), 1);

        let arr: StageList = [
            Stage::Delay {
                dur: SimDuration::from_nanos(1),
            },
            Stage::Delay {
                dur: SimDuration::from_nanos(2),
            },
        ]
        .into();
        assert_eq!(arr.remaining(), 2);

        let vec: StageList = vec![
            Stage::Delay {
                dur: SimDuration::ZERO
            };
            12
        ]
        .into();
        assert_eq!(vec.remaining(), 12);
    }

    #[test]
    fn stage_list_extends_and_iterates_in_order() {
        let d = |n| Stage::Delay {
            dur: SimDuration::from_nanos(n),
        };
        let mut a: StageList = [d(0), d(1)].into();
        let mut b = StageList::new();
        b.extend((2..INLINE_STAGES as u64 + 4).map(d));
        assert_eq!(a.pop_front(), Some(d(0)), "consumed stages are not carried");
        a.extend(b);
        let it = a.into_iter();
        assert_eq!(it.len(), INLINE_STAGES + 3);
        let got: Vec<Stage> = it.collect();
        let want: Vec<Stage> = (1..INLINE_STAGES as u64 + 4).map(d).collect();
        assert_eq!(got, want);
    }
}
