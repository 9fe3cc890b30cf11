//! Serialized hardware resources: network links and block devices.
//!
//! Both follow the classic "free-at" queueing shortcut: a request submitted
//! at `now` starts service at `max(now, free_at)`, occupies the resource
//! for its serialization/service time, and completes after any fixed
//! latency. This models a FIFO device queue without per-request events.

use crate::time::{SimDuration, SimTime};

/// A point-to-point serialized link (physical NIC + LAN segment).
#[derive(Debug, Clone)]
pub struct Link {
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
    free_at: SimTime,
    /// Total bytes ever submitted (for utilization reporting).
    pub bytes_total: u64,
}

impl Link {
    /// Creates a link with the given bandwidth (bytes/second) and one-way
    /// latency.
    pub fn new(bandwidth_bps: f64, latency: SimDuration) -> Self {
        assert!(bandwidth_bps > 0.0, "link bandwidth must be positive");
        Link {
            bandwidth_bps,
            latency,
            free_at: SimTime::ZERO,
            bytes_total: 0,
        }
    }

    /// Submits `bytes` at `now`; returns the delivery completion time
    /// (after serialization behind queued traffic plus propagation).
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.free_at.max(now);
        let ser = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        self.free_at = start + ser;
        self.bytes_total += bytes;
        self.free_at + self.latency
    }

    /// Bytes still serializing (queued behind the wire) at `now` — the
    /// free-at backlog converted back to bytes. Zero when idle. This is
    /// the "bytes in flight" level the timeline sampler tracks.
    pub fn backlog_bytes(&self, now: SimTime) -> f64 {
        if self.free_at <= now {
            0.0
        } else {
            self.free_at.since(now).as_secs_f64() * self.bandwidth_bps
        }
    }
}

/// A queued block device (SSD).
#[derive(Debug, Clone)]
pub struct BlockDev {
    /// Fixed per-request access latency.
    pub access_latency: SimDuration,
    /// Sustained transfer bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    free_at: SimTime,
    /// Total bytes ever transferred (reads + writes).
    pub bytes_total: u64,
    /// Total requests ever served.
    pub requests_total: u64,
}

impl BlockDev {
    /// Creates a device with the given access latency and bandwidth
    /// (bytes/second).
    pub fn new(access_latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "device bandwidth must be positive");
        BlockDev {
            access_latency,
            bandwidth_bps,
            free_at: SimTime::ZERO,
            bytes_total: 0,
            requests_total: 0,
        }
    }

    /// Submits a `bytes`-sized request at `now`; returns its completion
    /// time (queueing + access latency + transfer).
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.free_at.max(now);
        let xfer = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        let done = start + self.access_latency + xfer;
        // The device is busy until the transfer completes.
        self.free_at = done;
        self.bytes_total += bytes;
        self.requests_total += 1;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_serializes_back_to_back() {
        // 1 GB/s, 10us latency
        let mut l = Link::new(1e9, SimDuration::from_micros(10));
        let t0 = SimTime::ZERO;
        let a = l.submit(t0, 1_000_000); // 1ms serialization
        assert_eq!(a.as_nanos(), 1_000_000 + 10_000);
        // second submit queues behind the first
        let b = l.submit(t0, 1_000_000);
        assert_eq!(b.as_nanos(), 2_000_000 + 10_000);
        assert_eq!(l.bytes_total, 2_000_000);
    }

    #[test]
    fn link_idle_gap_resets_queue() {
        let mut l = Link::new(1e9, SimDuration::ZERO);
        let _ = l.submit(SimTime::ZERO, 1000);
        // submit long after the first finished: no queueing
        let t = SimTime::from_nanos(1_000_000);
        let done = l.submit(t, 1000);
        assert_eq!(done.as_nanos(), 1_001_000);
    }

    #[test]
    fn blockdev_latency_plus_transfer() {
        // 80us latency, 500 MB/s
        let mut d = BlockDev::new(SimDuration::from_micros(80), 500e6);
        let done = d.submit(SimTime::ZERO, 1_000_000); // 2ms transfer
        assert_eq!(done.as_nanos(), 80_000 + 2_000_000);
        assert_eq!(d.requests_total, 1);
    }

    #[test]
    fn blockdev_queues_fifo() {
        let mut d = BlockDev::new(SimDuration::from_micros(10), 1e9);
        let a = d.submit(SimTime::ZERO, 1_000_000);
        let b = d.submit(SimTime::ZERO, 1_000_000);
        assert!(b > a);
        assert_eq!(b.as_nanos() - a.as_nanos(), 10_000 + 1_000_000);
    }
}
