//! The cost model: every per-operation CPU cost in one place.
//!
//! All values are **cycles** (or cycles per byte), so a host's clock
//! frequency — the paper varies it between 1.6 and 3.2 GHz with
//! `cpufreq-set` — scales everything coherently. Values are drawn from
//! published measurements of the 2012–2015 era (Xeon + Linux 3.x + KVM
//! virtio) and calibrated against the paper's vanilla baselines (see
//! EXPERIMENTS.md); the vRead-vs-vanilla *ratios* are emergent.

/// Per-operation CPU costs and device parameters.
///
/// ```rust
/// use vread_host::costs::Costs;
///
/// let mut costs = Costs::default();
/// // the paper's low-power-CPU experiments only change the clock, so
/// // everything here stays in cycles:
/// assert_eq!(costs.copy_cycles(1 << 20), 524_288); // 0.5 cyc/B
/// costs.ring_slot_bytes = 16 << 10;                // ablation knob
/// ```
#[derive(Debug, Clone)]
pub struct Costs {
    // -- memory ----------------------------------------------------------
    /// Plain memcpy cost, cycles per byte (hot-ish caches).
    pub memcpy_cyc_per_byte: f64,

    // -- kernel entry/exit -------------------------------------------------
    /// System call entry + exit.
    pub syscall_cycles: u64,
    /// VM exit + re-entry (hardware vmexit round trip + KVM handling).
    pub vmexit_cycles: u64,
    /// A virtio "kick": vmexit + notify the backend.
    pub virtio_kick_cycles: u64,
    /// Injecting a virtual interrupt into a guest.
    pub irq_inject_cycles: u64,

    // -- virtio-blk ---------------------------------------------------------
    /// Guest-side block request submission (bio + vring descriptor setup).
    pub blk_submit_cycles: u64,
    /// Host-side block request handling (request parse, aio submit).
    pub blk_host_cycles: u64,
    /// Guest-side completion handling.
    pub blk_complete_cycles: u64,

    // -- TCP ----------------------------------------------------------------
    /// Guest TCP transmit processing, per (TSO) segment.
    pub tcp_tx_segment_cycles: u64,
    /// Guest TCP receive processing, per (TSO/LRO) segment.
    pub tcp_rx_segment_cycles: u64,
    /// Host kernel TCP processing per segment (physical NIC path).
    pub host_tcp_segment_cycles: u64,
    /// Extra guest TCP cost per byte (checksum touch, skb management).
    pub tcp_cyc_per_byte: f64,
    /// TSO segment size in bytes.
    pub tso_bytes: u64,
    /// TCP connection establishment (3-way handshake CPU, both ends).
    pub tcp_conn_setup_cycles: u64,

    // -- vhost-net ------------------------------------------------------------
    /// vhost-net per-kick handling (wakeup, vring scan).
    pub vhost_kick_cycles: u64,

    // -- RDMA / RoCE ----------------------------------------------------------
    /// Posting a work request (ibv_post_send / ibv_post_recv).
    pub rdma_post_cycles: u64,
    /// Handling one completion queue entry.
    pub rdma_cqe_cycles: u64,
    /// One-time memory-region registration.
    pub rdma_reg_mr_cycles: u64,

    // -- vRead ring & daemon ----------------------------------------------------
    /// Per-slot cost on the shared ring (spinlock + descriptor handling).
    pub ring_slot_cycles: u64,
    /// Raising an eventfd (either direction).
    pub eventfd_cycles: u64,
    /// Translating a daemon→guest eventfd into a virtual interrupt.
    pub eventfd_irq_cycles: u64,
    /// Size of one ring slot in bytes (paper default: 4 KB).
    pub ring_slot_bytes: u64,
    /// Number of ring slots (paper default: 1024).
    pub ring_slots: u64,
    /// Loop-device + image-offset translation per request.
    pub loop_request_cycles: u64,
    /// Hypervisor-side filesystem lookup (dentry/inode walk) per open.
    pub fs_lookup_cycles: u64,
    /// Refreshing the mount-point dentry/inode info for one new block.
    pub mount_refresh_cycles: u64,
    /// vRead daemon hash-table lookup (block → image mapping).
    pub daemon_lookup_cycles: u64,

    // -- content-addressed host store ---------------------------------------------
    /// Content-hash cost per byte admitted into a content-addressed host
    /// store (SIMD hash of freshly read data; charged on the daemon
    /// thread when a miss brings chunks in). Only paid in `cas` mode.
    pub cas_hash_cyc_per_byte: f64,
    /// Cost per ring slot of *mapping* resident dedup pages into the
    /// shared ring region instead of copying them (page-table update +
    /// reference bookkeeping). The map-serve fast path pays this in
    /// place of the daemon's payload copy.
    pub cas_map_cycles: u64,

    // -- HDFS application-side costs (Java stack) --------------------------------
    /// Datanode per byte streamed (checksum, packetization, DataXceiver).
    pub datanode_cyc_per_byte: f64,
    /// Datanode per HDFS packet (64 KB) overhead.
    pub datanode_packet_cycles: u64,
    /// Client DFSInputStream per byte on the vanilla path (checksum
    /// verify, packet handling, buffer copy-out).
    pub client_cyc_per_byte: f64,
    /// Client per byte on the vRead path (`vRead_read` skips the HDFS
    /// packet/checksum machinery; what remains is JNI + buffer
    /// management).
    pub vread_client_cyc_per_byte: f64,
    /// Guest kernel block-layer + page-cache work per byte read from the
    /// virtual disk (charged under the `disk read` bucket).
    pub blk_cyc_per_byte: f64,
    /// Client per-request bookkeeping.
    pub client_request_cycles: u64,
    /// Client-side cost of setting up a new block stream (read2 /
    /// positional reads: new BlockReader, checksum state, RPC framing).
    pub client_stream_setup_cycles: u64,
    /// Datanode-side cost of a new read stream (DataXceiver setup).
    pub dn_stream_setup_cycles: u64,
    /// Namenode RPC handling per request.
    pub namenode_rpc_cycles: u64,
    /// HDFS block size (64 MB in Hadoop 1.2.1).
    pub hdfs_block_bytes: u64,
    /// HDFS streaming packet size.
    pub hdfs_packet_bytes: u64,

    // -- devices -------------------------------------------------------------
    /// SSD access latency (ns) and effective bandwidth (bytes/s) for the
    /// image-file workload (random-ish access through the filesystem).
    pub ssd_latency_ns: u64,
    /// Effective SSD read bandwidth, bytes/second.
    pub ssd_bw_bps: f64,
    /// Effective SSD write bandwidth, bytes/second.
    pub ssd_write_bw_bps: f64,
    /// Physical NIC bandwidth, bytes/second (10 GbE).
    pub nic_bw_bps: f64,
    /// One-way LAN latency, ns.
    pub lan_latency_ns: u64,
    /// SR-IOV / VT-d device assignment for guest NICs (paper §6): guest
    /// TCP goes straight to the physical NIC on inter-host paths.
    pub sriov_nics: bool,
    /// Client-side block-fetch timeout (simulated milliseconds): a fetch
    /// that makes no progress for this long fails over to another
    /// replica.
    pub client_read_timeout_ms: u64,
    /// Base for the client's exponential retry backoff (simulated
    /// milliseconds): after the n-th consecutive timeout on one request
    /// the next fetch attempt is delayed `base << min(n-1, 5)` ms, so
    /// repeated failures against a struggling path do not hot-loop.
    pub client_retry_backoff_ms: u64,

    // -- memory sizes ---------------------------------------------------------
    /// Guest page-cache capacity (bytes). VMs have 2 GB of RAM; roughly
    /// half is available to the page cache once the JVM heap is resident.
    pub guest_cache_bytes: u64,
    /// Host page-cache capacity (bytes). Hosts have 16 GB.
    pub host_cache_bytes: u64,
    /// Page-cache tracking granularity.
    pub cache_chunk_bytes: u64,

    // -- simulation granularity --------------------------------------------------
    /// Streaming chunk size used by bulk transfers (events per chunk are
    /// amortised over `chunk / tso` segments, keeping per-byte costs exact).
    pub stream_chunk_bytes: u64,
}

impl Default for Costs {
    fn default() -> Self {
        Costs {
            memcpy_cyc_per_byte: 0.5,
            syscall_cycles: 1_200,
            vmexit_cycles: 6_000,
            virtio_kick_cycles: 9_000,
            irq_inject_cycles: 6_000,
            blk_submit_cycles: 3_000,
            blk_host_cycles: 5_000,
            blk_complete_cycles: 2_500,
            tcp_tx_segment_cycles: 4_500,
            tcp_rx_segment_cycles: 5_500,
            host_tcp_segment_cycles: 3_500,
            tcp_cyc_per_byte: 0.55,
            tso_bytes: 64 * 1024,
            tcp_conn_setup_cycles: 25_000,
            vhost_kick_cycles: 3_500,
            rdma_post_cycles: 1_200,
            rdma_cqe_cycles: 600,
            rdma_reg_mr_cycles: 60_000,
            ring_slot_cycles: 260,
            eventfd_cycles: 1_500,
            eventfd_irq_cycles: 6_000,
            ring_slot_bytes: 4 * 1024,
            ring_slots: 1024,
            loop_request_cycles: 2_500,
            fs_lookup_cycles: 2_000,
            mount_refresh_cycles: 18_000,
            daemon_lookup_cycles: 400,
            cas_hash_cyc_per_byte: 0.45,
            cas_map_cycles: 500,
            datanode_cyc_per_byte: 5.8,
            datanode_packet_cycles: 26_000,
            client_cyc_per_byte: 2.0,
            vread_client_cyc_per_byte: 1.1,
            blk_cyc_per_byte: 0.25,
            client_request_cycles: 9_000,
            client_stream_setup_cycles: 1_200_000,
            dn_stream_setup_cycles: 1_500_000,
            namenode_rpc_cycles: 15_000,
            hdfs_block_bytes: 64 * 1024 * 1024,
            hdfs_packet_bytes: 64 * 1024,
            ssd_latency_ns: 80_000,
            ssd_bw_bps: 300e6,
            ssd_write_bw_bps: 190e6,
            nic_bw_bps: 10e9 / 8.0,
            lan_latency_ns: 30_000,
            sriov_nics: false,
            client_read_timeout_ms: 2_000,
            client_retry_backoff_ms: 50,
            guest_cache_bytes: 1 << 30,       // 1 GiB
            host_cache_bytes: 12 * (1 << 30), // 12 GiB
            cache_chunk_bytes: 64 * 1024,
            stream_chunk_bytes: 256 * 1024,
        }
    }
}

impl Costs {
    /// Cycles to copy `bytes` once.
    pub fn copy_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.memcpy_cyc_per_byte).round() as u64
    }

    /// Number of TSO segments needed for `bytes`.
    pub fn segments(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.tso_bytes).max(1)
    }

    /// Guest TCP transmit cycles for `bytes` (segments + per-byte).
    pub fn tcp_tx_cycles(&self, bytes: u64) -> u64 {
        self.segments(bytes) * self.tcp_tx_segment_cycles
            + (bytes as f64 * self.tcp_cyc_per_byte).round() as u64
    }

    /// Guest TCP receive cycles for `bytes`.
    pub fn tcp_rx_cycles(&self, bytes: u64) -> u64 {
        self.segments(bytes) * self.tcp_rx_segment_cycles
            + (bytes as f64 * self.tcp_cyc_per_byte).round() as u64
    }

    /// Host kernel TCP cycles for `bytes` (one side).
    pub fn host_tcp_cycles(&self, bytes: u64) -> u64 {
        self.segments(bytes) * self.host_tcp_segment_cycles
            + (bytes as f64 * 0.5 * self.tcp_cyc_per_byte).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_scales_linearly() {
        let c = Costs::default();
        assert_eq!(c.copy_cycles(0), 0);
        assert_eq!(c.copy_cycles(1000), 500);
        assert_eq!(c.copy_cycles(2000), 2 * c.copy_cycles(1000));
    }

    #[test]
    fn segments_round_up() {
        let c = Costs::default();
        assert_eq!(c.segments(1), 1);
        assert_eq!(c.segments(64 * 1024), 1);
        assert_eq!(c.segments(64 * 1024 + 1), 2);
        assert_eq!(c.segments(0), 1); // control packets still cost a segment
    }

    #[test]
    fn tcp_costs_monotone_in_size() {
        let c = Costs::default();
        assert!(c.tcp_tx_cycles(128 * 1024) > c.tcp_tx_cycles(64 * 1024));
        assert!(c.tcp_rx_cycles(1024) >= c.tcp_rx_segment_cycles);
    }
}
