//! # vread-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate on which the whole vRead reproduction runs.
//! It provides:
//!
//! * a **discrete-event core** ([`World`]) with nanosecond [`SimTime`],
//!   deterministic event ordering, and an actor model in which components
//!   communicate exclusively through messages ([`Actor`], [`Ctx`]);
//! * a **CFS-like fair CPU scheduler** ([`sched`]) — threads (vCPUs, vhost
//!   I/O threads, hypervisor daemons …) are schedulable entities on the
//!   cores of simulated hosts; queueing and wake-up preemption delays
//!   *emerge* from the schedule rather than being parameterised;
//! * **CPU chains** ([`Stage`]) — a sequence of cycle-costed steps spread
//!   across threads, link serialization, disk service and pure delays; the
//!   building block for modelling multi-hop I/O paths (virtio, vhost-net,
//!   RDMA, the vRead ring);
//! * **cycle accounting** ([`cpu::CpuAccounting`]) per `(thread, category)`,
//!   mirroring the CPU-breakdown legends of the paper's Figures 6–8;
//! * lightweight deterministic [`rng`], [`metrics`] and a typed
//!   extension blackboard ([`ext::Extensions`]) for shared hardware state
//!   (page caches, filesystems) owned by higher layers.
//!
//! # Example
//!
//! ```rust
//! use vread_sim::prelude::*;
//!
//! struct Ping { peer: Option<ActorId>, thread: ThreadId, left: u32 }
//! impl Actor for Ping {
//!     fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
//!         if msg.is::<Start>() || msg.is::<u32>() {
//!             if self.left == 0 { return; }
//!             self.left -= 1;
//!             let peer = self.peer.unwrap_or(ctx.me());
//!             // burn 10k cycles, then notify the peer
//!             ctx.cpu(self.thread, 10_000, CpuCategory::Other, peer, self.left);
//!         }
//!     }
//! }
//!
//! let mut w = World::new(42);
//! let h = w.add_host("host0", 4, 3.2);
//! let t = w.add_thread(h, "ping");
//! let a = w.add_actor("ping", Ping { peer: None, thread: t, left: 8 });
//! w.send_now(a, Start);
//! w.run();
//! assert!(w.now() > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]

pub mod chain;
pub mod cpu;
pub mod engine;
pub mod ext;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod job;
pub mod metrics;
pub mod msg;
pub mod par;
pub mod resources;
pub mod rng;
pub mod sched;
mod slab;
pub mod span;
pub mod time;
pub mod timeline;
mod timers;

pub use chain::{Stage, StageList};
pub use cpu::{CpuAccounting, CpuCategory};
pub use engine::{Actor, Ctx, World};
pub use fault::{schedule_faults, FaultAction, FaultScheduler, FaultTrace, SlowDisk, StallThread};
pub use ids::{ActorId, BlockDevId, ChainId, CoreId, HostId, LinkId, ThreadId, TimerSlot};
pub use job::{JobHandle, Jobs};
pub use metrics::{
    CounterId, GaugeId, LazyCounter, LazyGauge, LazySamples, Metrics, SampleId, Samples,
};
pub use msg::{downcast, BoxMsg, Start};
pub use par::{run_indexed, run_indexed_streamed};
pub use rng::SimRng;
pub use span::{Span, SpanId, SpanMark, SpanRecorder, SpanReport};
pub use time::{SimDuration, SimTime};
pub use timeline::{Hist, Timeline};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::chain::{Stage, StageList};
    pub use crate::cpu::{CpuAccounting, CpuCategory};
    pub use crate::engine::{Actor, Ctx, World};
    pub use crate::fault::{schedule_faults, FaultAction, FaultTrace};
    pub use crate::ids::{
        ActorId, BlockDevId, ChainId, CoreId, HostId, LinkId, ThreadId, TimerSlot,
    };
    pub use crate::job::JobHandle;
    pub use crate::metrics::{CounterId, GaugeId, LazyCounter, LazyGauge, LazySamples, SampleId};
    pub use crate::msg::{downcast, BoxMsg, Start};
    pub use crate::par::{run_indexed, run_indexed_streamed};
    pub use crate::rng::SimRng;
    pub use crate::span::{SpanId, SpanRecorder};
    pub use crate::time::{SimDuration, SimTime};
}
