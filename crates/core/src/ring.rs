//! The guest↔hypervisor shared-memory ring buffer.
//!
//! vRead's communication channel is a POSIX SHM object exposed to the
//! guest as a virtual PCI device (built on ivshmem), divided into slots —
//! by default 1024 slots of 4 KB — with a spinlock per slot and eventfd
//! doorbells in both directions; daemon→guest events are translated into
//! virtual interrupts by the guest driver (paper §3.3/§4).
//!
//! [`RingSpec`] captures the geometry and produces the per-transfer stage
//! costs: per-slot bookkeeping on whichever side touches the slot, the
//! payload copy in and out (the only two copies on the vRead local-read
//! path), and the doorbell costs.

use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// Geometry and costs of one VM's vRead ring.
#[derive(Debug, Clone, Copy)]
pub struct RingSpec {
    /// Number of slots (paper default: 1024).
    pub slots: u64,
    /// Slot payload size in bytes (paper default: 4 KB).
    pub slot_bytes: u64,
}

impl RingSpec {
    /// The ring geometry from the cost model.
    pub fn from_costs(c: &Costs) -> Self {
        RingSpec {
            slots: c.ring_slots,
            slot_bytes: c.ring_slot_bytes,
        }
    }

    /// Total payload capacity of the ring.
    pub fn capacity_bytes(&self) -> u64 {
        self.slots * self.slot_bytes
    }

    /// Slots needed for a transfer of `bytes`.
    pub fn slots_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.slot_bytes).max(1)
    }

    /// The largest chunk size the stream may use so that `window` chunks
    /// fit in the ring at once.
    pub fn max_chunk_for_window(&self, window: u64) -> u64 {
        (self.capacity_bytes() / window.max(1)).max(self.slot_bytes)
    }

    /// Cycles for one side to process the slots of a `bytes` transfer
    /// (spinlock acquire/release + descriptor bookkeeping per slot).
    pub fn slot_cycles(&self, c: &Costs, bytes: u64) -> u64 {
        self.slots_for(bytes) * c.ring_slot_cycles
    }

    /// Stage: the daemon copies `bytes` from the (page-cached) image into
    /// ring slots and rings the guest's doorbell.
    pub fn daemon_push_stages(&self, c: &Costs, daemon: ThreadId, bytes: u64) -> StageList {
        [
            Stage::copy(
                daemon,
                c.copy_cycles(bytes) + self.slot_cycles(c, bytes),
                CpuCategory::CopyVreadBuffer,
                bytes,
            ),
            Stage::cpu(daemon, c.eventfd_cycles, CpuCategory::Daemon),
        ]
        .into()
    }

    /// Stages: the daemon serves a fully-resident dedup hit by *mapping*
    /// the content-addressed store's pages into the ring region instead
    /// of copying them (page-table update per slot, then the doorbell).
    /// Replaces [`RingSpec::daemon_push_stages`] on the map-serve fast
    /// path, eliminating the daemon-side copy — dedup hits land at one
    /// copy per read (the guest pop).
    pub fn daemon_map_stages(&self, c: &Costs, daemon: ThreadId, bytes: u64) -> StageList {
        [
            Stage::map(
                daemon,
                self.slots_for(bytes) * c.cas_map_cycles + self.slot_cycles(c, bytes),
                CpuCategory::Daemon,
                bytes,
            ),
            Stage::cpu(daemon, c.eventfd_cycles, CpuCategory::Daemon),
        ]
        .into()
    }

    /// Stages: the guest driver turns the eventfd into a virtual
    /// interrupt and libvread copies the payload out of the ring into the
    /// application buffer.
    pub fn guest_pop_stages(&self, c: &Costs, vcpu: ThreadId, bytes: u64) -> StageList {
        [
            Stage::cpu(vcpu, c.eventfd_irq_cycles, CpuCategory::Other),
            Stage::copy(
                vcpu,
                c.copy_cycles(bytes) + self.slot_cycles(c, bytes),
                CpuCategory::CopyVreadBuffer,
                bytes,
            ),
        ]
        .into()
    }

    /// Stages: the guest posts a request descriptor into the ring and
    /// rings the daemon's doorbell (the control direction).
    pub fn guest_request_stages(&self, c: &Costs, vcpu: ThreadId) -> StageList {
        Stage::cpu(
            vcpu,
            c.ring_slot_cycles + c.eventfd_cycles,
            CpuCategory::Daemon,
        )
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> (RingSpec, Costs) {
        let c = Costs::default();
        (RingSpec::from_costs(&c), c)
    }

    #[test]
    fn default_geometry_matches_paper() {
        let (r, _) = spec();
        assert_eq!(r.slots, 1024);
        assert_eq!(r.slot_bytes, 4096);
        assert_eq!(r.capacity_bytes(), 4 << 20);
    }

    #[test]
    fn slots_round_up() {
        let (r, _) = spec();
        assert_eq!(r.slots_for(1), 1);
        assert_eq!(r.slots_for(4096), 1);
        assert_eq!(r.slots_for(4097), 2);
        assert_eq!(r.slots_for(256 * 1024), 64);
    }

    #[test]
    fn window_chunking_respects_capacity() {
        let (r, _) = spec();
        assert_eq!(r.max_chunk_for_window(4), 1 << 20);
        // degenerate ring still allows a slot-sized chunk
        let tiny = RingSpec {
            slots: 2,
            slot_bytes: 4096,
        };
        assert_eq!(tiny.max_chunk_for_window(8), 4096);
    }

    #[test]
    fn map_stages_move_no_copy_bytes_and_cost_less() {
        let (r, c) = spec();
        let d = ThreadId::from_raw(0);
        let push: Vec<Stage> = r.daemon_push_stages(&c, d, 1 << 20).into_iter().collect();
        let map: Vec<Stage> = r.daemon_map_stages(&c, d, 1 << 20).into_iter().collect();
        assert_eq!(map.len(), 2);
        assert!(matches!(map[0], Stage::Map { bytes, .. } if bytes == 1 << 20));
        assert!(
            !map.iter().any(|s| matches!(s, Stage::Copy { .. })),
            "map-serve must not copy"
        );
        let cyc = |st: &[Stage]| -> u64 {
            st.iter()
                .map(|s| match s {
                    Stage::Cpu { cycles, .. }
                    | Stage::Copy { cycles, .. }
                    | Stage::Map { cycles, .. } => *cycles,
                    Stage::Link { .. } | Stage::Disk { .. } | Stage::Delay { .. } => 0,
                })
                .sum()
        };
        assert!(
            cyc(&map) < cyc(&push),
            "mapping 256 slots must beat copying 1 MB"
        );
    }

    #[test]
    fn push_pop_stage_costs_scale_with_bytes() {
        let (r, c) = spec();
        let d = ThreadId::from_raw(0);
        let small: Vec<Stage> = r.daemon_push_stages(&c, d, 4096).into_iter().collect();
        let big: Vec<Stage> = r.daemon_push_stages(&c, d, 1 << 20).into_iter().collect();
        let cyc = |st: &[Stage]| -> u64 {
            st.iter()
                .map(|s| match s {
                    Stage::Cpu { cycles, .. } | Stage::Copy { cycles, .. } => *cycles,
                    Stage::Link { .. }
                    | Stage::Disk { .. }
                    | Stage::Delay { .. }
                    | Stage::Map { .. } => 0,
                })
                .sum()
        };
        assert!(cyc(&big) > cyc(&small) * 100);
        // exactly two copies on the local path: push + pop
        let pop = r.guest_pop_stages(&c, d, 1 << 20);
        assert_eq!(
            small.len() + pop.remaining(),
            4,
            "local data path is push(2 stages) + pop(2 stages)"
        );
    }
}
