//! The libvread user-level API (the paper's Table 1).
//!
//! | API | Parameters | Returns |
//! |---|---|---|
//! | `vRead_open`  | block name, datanode id | vRead descriptor |
//! | `vRead_read`  | descriptor, buffer, offset, length | bytes read |
//! | `vRead_seek`  | descriptor, offset | resulting offset |
//! | `vRead_close` | descriptor | 0 / -1 |
//!
//! HDFS only understands block names, so libvread keeps a hash table
//! mapping block names to open descriptors ([`VfdTable`]), letting the
//! client reuse a descriptor for subsequent read/seek operations on the
//! same block file (paper §3.1). The asynchronous message protocol behind
//! these calls lives in [`crate::daemon`]; [`crate::path::VreadPath`]
//! drives it from the HDFS client.
//!
//! Every read carries its own offset (Algorithm 2), so a descriptor keeps
//! no file position and `vRead_seek` has no simulated effect.

use vread_hdfs::meta::BlockId;
use vread_sim::hash::IdHashMap;

/// An open vRead descriptor: the client-side handle to a block file
/// opened through the hypervisor daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vfd {
    /// Daemon-assigned descriptor id.
    pub id: u64,
    /// Size of the block file at open time.
    pub size: u64,
}

/// The libvread block-name → descriptor hash (`vfd_hash` in Algorithms 1
/// and 2).
///
/// ```rust
/// use vread_core::api::{Vfd, VfdTable};
/// use vread_hdfs::meta::BlockId;
///
/// let mut vfds = VfdTable::new();
/// let blk = BlockId(1);
/// // vRead_open stores the descriptor …
/// vfds.put(blk, Vfd { id: 9, size: 4096 });
/// // … subsequent reads on the same block reuse it (Algorithm 1)
/// assert_eq!(vfds.get(blk).unwrap().id, 9);
/// assert!(vfds.close(blk).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VfdTable {
    map: IdHashMap<BlockId, Vfd>,
}

impl VfdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an open descriptor for `block` (Algorithm 1 line 10).
    pub fn get(&self, block: BlockId) -> Option<&Vfd> {
        self.map.get(&block)
    }

    /// Records a freshly opened descriptor (Algorithm 1 line 13).
    pub fn put(&mut self, block: BlockId, vfd: Vfd) {
        self.map.insert(block, vfd);
    }

    /// `vRead_close`: removes the descriptor for `block`, returning it
    /// so the caller can notify the daemon. Returns `None` (the paper's
    /// `-1`) if the block was not open.
    pub fn close(&mut self, block: BlockId) -> Option<Vfd> {
        self.map.remove(&block)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfd(id: u64, size: u64) -> Vfd {
        Vfd { id, size }
    }

    #[test]
    fn open_read_reuse_close() {
        let mut t = VfdTable::new();
        let b = BlockId(7);
        assert!(t.get(b).is_none());
        t.put(b, vfd(1, 1000));
        // subsequent reads on the same block reuse the descriptor
        let d = t.get(b).expect("descriptor cached");
        assert_eq!(d.id, 1);
        let closed = t.close(b).expect("was open");
        assert_eq!(closed.id, 1);
        assert!(t.close(b).is_none(), "double close reports failure");
        assert!(t.is_empty());
    }

    #[test]
    fn descriptors_keyed_per_block() {
        let mut t = VfdTable::new();
        t.put(BlockId(1), vfd(1, 10));
        t.put(BlockId(2), vfd(2, 20));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(BlockId(2)).unwrap().id, 2);
    }
}
