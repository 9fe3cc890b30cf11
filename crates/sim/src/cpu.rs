//! CPU-cycle accounting.
//!
//! Every unit of CPU work executed by the scheduler is tagged with a
//! [`CpuCategory`]. The categories mirror the stacked-bar legends of the
//! paper's Figures 6–8 ("client-application", "loop device", "data
//! copy(virtio-vqueue)", "data copy(vRead-buffer)", "vhost-net", "rdma",
//! "vRead-net", "disk read", "others") plus a few internal ones that the
//! reporting layer folds into *others*.

use std::fmt;

/// What a burst of CPU cycles was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CpuCategory {
    /// User-level work in the HDFS client application (incl. the final
    /// kernel→application buffer copy, as in the paper's accounting).
    ClientApp,
    /// User-level work in the HDFS datanode process.
    DatanodeApp,
    /// Guest kernel TCP/IP processing (either VM).
    GuestTcp,
    /// Data copies through virtio vqueues (virtio-blk and virtio-net).
    CopyVirtioVqueue,
    /// Data copies through the vRead shared-memory ring buffer.
    CopyVreadBuffer,
    /// Host-side vhost-net thread work (kick handling, skb moves).
    VhostNet,
    /// Host loop-device / mounted-image block translation work.
    LoopDevice,
    /// Time attributable to issuing & completing physical disk reads.
    DiskRead,
    /// RDMA verbs processing (WR post, CQE handling).
    Rdma,
    /// The user-space TCP fallback of the vRead daemon ("vRead-net").
    VreadNet,
    /// Host kernel TCP/IP processing (physical NIC path).
    HostTcp,
    /// The lookbusy background load generator.
    Lookbusy,
    /// Namenode metadata handling.
    Namenode,
    /// vRead hypervisor daemon bookkeeping (hash lookups, mount refresh).
    Daemon,
    /// MapReduce framework overhead (task setup, record handling).
    MapReduce,
    /// MySQL server work (Sqoop export target).
    Mysql,
    /// Everything else (context switches, interrupts, misc kernel).
    Other,
}

impl CpuCategory {
    /// Number of categories (size of accounting tables).
    pub const COUNT: usize = 17;

    /// All categories, in declaration order.
    pub const ALL: [CpuCategory; Self::COUNT] = [
        CpuCategory::ClientApp,
        CpuCategory::DatanodeApp,
        CpuCategory::GuestTcp,
        CpuCategory::CopyVirtioVqueue,
        CpuCategory::CopyVreadBuffer,
        CpuCategory::VhostNet,
        CpuCategory::LoopDevice,
        CpuCategory::DiskRead,
        CpuCategory::Rdma,
        CpuCategory::VreadNet,
        CpuCategory::HostTcp,
        CpuCategory::Lookbusy,
        CpuCategory::Namenode,
        CpuCategory::Daemon,
        CpuCategory::MapReduce,
        CpuCategory::Mysql,
        CpuCategory::Other,
    ];

    /// Stable snake-case name (used in reports and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            CpuCategory::ClientApp => "client_application",
            CpuCategory::DatanodeApp => "datanode_application",
            CpuCategory::GuestTcp => "guest_tcp",
            CpuCategory::CopyVirtioVqueue => "copy_virtio_vqueue",
            CpuCategory::CopyVreadBuffer => "copy_vread_buffer",
            CpuCategory::VhostNet => "vhost_net",
            CpuCategory::LoopDevice => "loop_device",
            CpuCategory::DiskRead => "disk_read",
            CpuCategory::Rdma => "rdma",
            CpuCategory::VreadNet => "vread_net",
            CpuCategory::HostTcp => "host_tcp",
            CpuCategory::Lookbusy => "lookbusy",
            CpuCategory::Namenode => "namenode",
            CpuCategory::Daemon => "daemon",
            CpuCategory::MapReduce => "map_reduce",
            CpuCategory::Mysql => "mysql",
            CpuCategory::Other => "others",
        }
    }

    /// The paper's Figure 6–8 legend bucket this category is reported
    /// under. Internal categories (including the datanode's user-level
    /// Java work, which the paper does not label separately) collapse
    /// into `"others"`.
    pub fn figure_bucket(self) -> &'static str {
        match self {
            CpuCategory::ClientApp => "client-application",
            CpuCategory::CopyVirtioVqueue => "data copy(virtio-vqueue)",
            CpuCategory::CopyVreadBuffer => "data copy(vRead-buffer)",
            CpuCategory::VhostNet => "vhost-net",
            CpuCategory::LoopDevice => "loop device",
            CpuCategory::DiskRead => "disk read",
            CpuCategory::Rdma => "rdma",
            CpuCategory::VreadNet => "vRead-net",
            _ => "others",
        }
    }
}

impl fmt::Display for CpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-thread, per-category cycle and busy-time accounting.
///
/// The scheduler calls [`CpuAccounting::add`] whenever it charges executed
/// time to a thread. Harnesses snapshot the table before and after a
/// measurement window and diff.
#[derive(Debug, Clone, Default)]
pub struct CpuAccounting {
    threads: Vec<ThreadAcct>,
}

/// Accounting row for one thread.
#[derive(Debug, Clone)]
pub struct ThreadAcct {
    /// Cycles burned per category.
    pub cycles: [f64; CpuCategory::COUNT],
    /// Wall nanoseconds this thread occupied a core.
    pub busy_ns: u64,
}

impl Default for ThreadAcct {
    fn default() -> Self {
        ThreadAcct {
            cycles: [0.0; CpuCategory::COUNT],
            busy_ns: 0,
        }
    }
}

impl CpuAccounting {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures row `thread` exists.
    pub(crate) fn ensure(&mut self, thread: usize) {
        if self.threads.len() <= thread {
            self.threads.resize_with(thread + 1, ThreadAcct::default);
        }
    }

    /// Records `cycles` of work in `cat` occupying a core for `ns`
    /// nanoseconds on `thread`.
    pub fn add(&mut self, thread: usize, cat: CpuCategory, cycles: f64, ns: u64) {
        self.ensure(thread);
        let row = &mut self.threads[thread];
        row.cycles[cat as usize] += cycles;
        row.busy_ns += ns;
    }

    /// Total busy nanoseconds of one thread.
    pub fn busy_ns(&self, thread: usize) -> u64 {
        self.threads.get(thread).map_or(0, |t| t.busy_ns)
    }

    /// Cycles one thread spent in one category.
    pub fn cycles(&self, thread: usize, cat: CpuCategory) -> f64 {
        self.threads
            .get(thread)
            .map_or(0.0, |t| t.cycles[cat as usize])
    }

    /// Total cycles across all categories for one thread.
    pub fn total_cycles(&self, thread: usize) -> f64 {
        self.threads
            .get(thread)
            .map_or(0.0, |t| t.cycles.iter().sum())
    }

    /// A deep copy of the current state (cheap; tables are small).
    pub fn snapshot(&self) -> CpuAccounting {
        self.clone()
    }

    /// `self - earlier`, per thread and category. Threads present only in
    /// `self` are kept as-is.
    pub fn diff(&self, earlier: &CpuAccounting) -> CpuAccounting {
        let mut out = self.clone();
        for (i, row) in out.threads.iter_mut().enumerate() {
            if let Some(old) = earlier.threads.get(i) {
                for c in 0..CpuCategory::COUNT {
                    row.cycles[c] -= old.cycles[c];
                }
                row.busy_ns = row.busy_ns.saturating_sub(old.busy_ns);
            }
        }
        out
    }

    /// Iterate `(thread_index, row)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ThreadAcct)> {
        self.threads.iter().enumerate()
    }

    /// Number of thread rows.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// True when no thread has been charged yet.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut a = CpuAccounting::new();
        a.add(3, CpuCategory::VhostNet, 1000.0, 500);
        a.add(3, CpuCategory::VhostNet, 500.0, 250);
        a.add(3, CpuCategory::ClientApp, 10.0, 5);
        assert_eq!(a.cycles(3, CpuCategory::VhostNet), 1500.0);
        assert_eq!(a.busy_ns(3), 755);
        assert_eq!(a.total_cycles(3), 1510.0);
        assert_eq!(a.cycles(0, CpuCategory::VhostNet), 0.0);
    }

    #[test]
    fn diff_subtracts() {
        let mut a = CpuAccounting::new();
        a.add(0, CpuCategory::Rdma, 100.0, 50);
        let snap = a.snapshot();
        a.add(0, CpuCategory::Rdma, 40.0, 20);
        a.add(1, CpuCategory::Other, 7.0, 3);
        let d = a.diff(&snap);
        assert_eq!(d.cycles(0, CpuCategory::Rdma), 40.0);
        assert_eq!(d.busy_ns(0), 20);
        assert_eq!(d.cycles(1, CpuCategory::Other), 7.0);
    }

    #[test]
    fn all_categories_have_unique_names() {
        let mut names: Vec<_> = CpuCategory::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CpuCategory::COUNT);
    }

    #[test]
    fn figure_buckets_cover_legend() {
        // every paper legend label appears at least once
        for label in [
            "client-application",
            "loop device",
            "data copy(virtio-vqueue)",
            "data copy(vRead-buffer)",
            "vhost-net",
            "rdma",
            "vRead-net",
            "disk read",
            "others",
        ] {
            assert!(
                CpuCategory::ALL.iter().any(|c| c.figure_bucket() == label),
                "no category maps to {label}"
            );
        }
    }
}
