//! Typed identifiers for simulation entities.
//!
//! Every entity class gets its own newtype ([`HostId`], [`ThreadId`], …) so
//! that, e.g., a thread id can never be passed where an actor id is
//! expected (C-NEWTYPE).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) $inner);

        impl $name {
            /// Constructs an id from a raw index. Intended for tests and
            /// serialization; ids are normally minted by [`crate::World`].
            pub const fn from_raw(raw: $inner) -> Self {
                $name(raw)
            }

            /// The raw index backing this id.
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// The raw index as a `usize`, for table lookups.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A simulated physical host (a machine with cores, RAM, disks, NICs).
    HostId,
    u16
);
id_type!(
    /// A core index *within* a host.
    CoreId,
    u16
);
id_type!(
    /// A host-schedulable thread: a vCPU, a vhost I/O thread, a hypervisor
    /// daemon thread, a kernel worker. Globally unique across hosts.
    ThreadId,
    u32
);
id_type!(
    /// An actor: a protocol state machine that receives messages.
    ActorId,
    u32
);
id_type!(
    /// A serialized network link (physical NIC / LAN segment).
    LinkId,
    u32
);
id_type!(
    /// A queued block device (SSD backing a host's disk-image storage).
    BlockDevId,
    u32
);
id_type!(
    /// An in-flight CPU chain (see [`crate::Stage`]).
    ChainId,
    u64
);
id_type!(
    /// An actor's re-armable timer: a slot in the world's timer table
    /// that holds at most one pending message (see
    /// [`crate::Ctx::arm_timer`]).
    TimerSlot,
    u32
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let t = ThreadId::from_raw(7);
        assert_eq!(t.raw(), 7);
        assert_eq!(t.index(), 7);
        assert_eq!(format!("{t}"), "ThreadId(7)");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(HostId::from_raw(1) < HostId::from_raw(2));
        assert_eq!(ActorId::from_raw(3), ActorId::from_raw(3));
    }
}
