//! # vread-net — the network substrate
//!
//! Models every transport the paper's evaluation exercises, as costed
//! stage chains over the [`vread_sim`] scheduler:
//!
//! * **guest TCP over virtio-net/vhost** between two VMs on one host —
//!   the vanilla HDFS inter-VM path of Figure 1, with the guest TCP stack
//!   work on each vCPU, the vqueue copies and kick/interrupt handling on
//!   each VM's vhost-net I/O thread;
//! * **guest TCP across hosts** — the same plus host kernel TCP processing
//!   and serialization on the 10 GbE link;
//! * **host user-space TCP** — the vRead daemon's TCP fallback (the
//!   paper's "vRead-net", measured in Figure 8);
//! * **RDMA verbs over RoCE** — zero-copy daemon↔daemon transfer with
//!   per-work-request CPU only (Figure 7).
//!
//! The central type is the [`conn::Conn`] actor: a bidirectional,
//! windowed, in-order byte stream between two [`conn::Endpoint`]s whose
//! [`conn::Flavor`] selects which stages a chunk traverses. Because the
//! stages run on real scheduler threads, connection throughput and latency
//! degrade under CPU contention exactly as in the paper's Figure 3.

#![forbid(unsafe_code)]

pub mod conn;
pub mod fault;

pub use conn::{add_conn, Conn, ConnRecv, ConnSend, ConnSent, Endpoint, Flavor, Side};
pub use fault::DegradeLink;
