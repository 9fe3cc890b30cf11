//! Stage builders for the virtio-blk data path.
//!
//! These produce the [`Stage`] chains for a guest reading/writing a range
//! of its own virtual disk, with every copy and boundary crossing the
//! paper enumerates:
//!
//! * guest: syscall + block request submission + virtio kick (a VM exit);
//! * host: request handling in the VM's I/O thread, a physical disk access
//!   when the host page cache misses, and the **virtio-vqueue copy** of
//!   the payload from host memory into the guest's vring buffers;
//! * guest: completion interrupt and the kernel→user copy into the
//!   application buffer.
//!
//! The guest and host page caches are consulted and populated as a side
//! effect, so *re-reads* naturally skip the device (and, when the guest
//! cache still holds the range, the whole virtio path).

use vread_sim::prelude::*;

use crate::cluster::{Cluster, VmId};

/// Builds the stage chain for a guest application reading
/// `[offset, offset+len)` of its VM's disk image.
///
/// `user_cat` is the accounting category charged for the final
/// kernel→user copy (e.g. [`CpuCategory::DatanodeApp`] when the HDFS
/// datanode reads a block, [`CpuCategory::ClientApp`] for a local file
/// read by the measurement application).
pub fn guest_disk_read(
    cl: &mut Cluster,
    vm: VmId,
    offset: u64,
    len: u64,
    user_cat: CpuCategory,
) -> StageList {
    let costs = &cl.costs;
    let obj = cl.vms[vm.0].fs.image();
    let guest_missing = cl.vms[vm.0].cache.lookup(obj, offset, len).miss_bytes;
    let vcpu = cl.vms[vm.0].vcpu;
    let vhost = cl.vms[vm.0].vhost;
    let mut stages = StageList::new();

    if guest_missing == 0 {
        // Served from the guest page cache: read() syscall + copy to user.
        stages.push(Stage::copy(
            vcpu,
            costs.syscall_cycles + costs.copy_cycles(len),
            user_cat,
            len,
        ));
        return stages;
    }

    // Guest submits a block request and kicks the backend; the guest
    // block layer + page-cache insertion costs scale with the size.
    stages.push(Stage::cpu(
        vcpu,
        costs.syscall_cycles
            + costs.blk_submit_cycles
            + costs.virtio_kick_cycles
            + (len as f64 * costs.blk_cyc_per_byte).round() as u64,
        CpuCategory::DiskRead,
    ));
    // Host-side request handling in the VM's I/O thread.
    stages.push(Stage::cpu(vhost, costs.blk_host_cycles, CpuCategory::Other));

    // Physical disk access for whatever the host page cache lacks.
    let host_ix = cl.vms[vm.0].host;
    let host_missing = cl.hosts[host_ix.0]
        .cache
        .lookup(obj, offset, len)
        .miss_bytes;
    if host_missing > 0 {
        stages.push(Stage::disk(cl.hosts[host_ix.0].dev, host_missing));
    }
    cl.hosts[host_ix.0].cache.admit(obj, offset, len);

    // The virtio-vqueue copy: host memory -> guest vring buffers, then the
    // completion interrupt.
    stages.push(Stage::copy(
        vhost,
        costs.copy_cycles(len),
        CpuCategory::CopyVirtioVqueue,
        len,
    ));
    stages.push(Stage::cpu(
        vhost,
        costs.irq_inject_cycles,
        CpuCategory::Other,
    ));
    // Guest completion + kernel->user copy.
    stages.push(Stage::copy(
        vcpu,
        costs.blk_complete_cycles + costs.copy_cycles(len),
        user_cat,
        len,
    ));

    cl.vms[vm.0].cache.admit(obj, offset, len);
    stages
}

/// Builds the stage chain for a guest application writing
/// `[offset, offset+len)` of its VM's disk image (write-through; HDFS
/// block writes are sequential and fsync'd at block completion).
pub fn guest_disk_write(
    cl: &mut Cluster,
    vm: VmId,
    offset: u64,
    len: u64,
    user_cat: CpuCategory,
) -> StageList {
    let costs = &cl.costs;
    let obj = cl.vms[vm.0].fs.image();
    let vcpu = cl.vms[vm.0].vcpu;
    let vhost = cl.vms[vm.0].vhost;
    let host_ix = cl.vms[vm.0].host;
    let dev = cl.hosts[host_ix.0].dev;

    // Writes land in both caches (the data is hot afterwards).
    cl.vms[vm.0].cache.admit(obj, offset, len);
    cl.hosts[host_ix.0].cache.admit(obj, offset, len);

    // Scale the device request so the single-bandwidth device model
    // reflects the (slower) effective write bandwidth.
    let dev_bytes = (len as f64 * costs.ssd_bw_bps / costs.ssd_write_bw_bps).round() as u64;

    [
        // user -> kernel copy + submission + kick
        Stage::copy(
            vcpu,
            costs.syscall_cycles + costs.copy_cycles(len) + costs.blk_submit_cycles,
            user_cat,
            len,
        ),
        Stage::cpu(vcpu, costs.virtio_kick_cycles, CpuCategory::DiskRead),
        // host handling + guest memory -> host write buffer copy
        Stage::cpu(vhost, costs.blk_host_cycles, CpuCategory::Other),
        Stage::copy(
            vhost,
            costs.copy_cycles(len),
            CpuCategory::CopyVirtioVqueue,
            len,
        ),
        Stage::disk(dev, dev_bytes),
        Stage::cpu(vhost, costs.irq_inject_cycles, CpuCategory::Other),
        Stage::cpu(vcpu, costs.blk_complete_cycles, CpuCategory::DiskRead),
    ]
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::Costs;

    fn guest_disk_read(
        cl: &mut Cluster,
        vm: VmId,
        offset: u64,
        len: u64,
        user_cat: CpuCategory,
    ) -> Vec<Stage> {
        super::guest_disk_read(cl, vm, offset, len, user_cat)
            .into_iter()
            .collect()
    }

    fn guest_disk_write(
        cl: &mut Cluster,
        vm: VmId,
        offset: u64,
        len: u64,
        user_cat: CpuCategory,
    ) -> Vec<Stage> {
        super::guest_disk_write(cl, vm, offset, len, user_cat)
            .into_iter()
            .collect()
    }

    fn setup() -> (World, Cluster, VmId) {
        let mut w = World::new(1);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let vm = cl.add_vm(&mut w, h, "vm");
        (w, cl, vm)
    }

    #[test]
    fn cold_read_touches_disk() {
        let (_w, mut cl, vm) = setup();
        let stages = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::ClientApp);
        assert!(
            stages.iter().any(|s| matches!(s, Stage::Disk { .. })),
            "cold read must hit the device"
        );
        // 6 stages: submit, host req, disk, vqueue copy, irq, complete
        assert_eq!(stages.len(), 6);
    }

    #[test]
    fn guest_cached_reread_is_one_stage() {
        let (_w, mut cl, vm) = setup();
        let _ = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::ClientApp);
        let stages = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::ClientApp);
        assert_eq!(stages.len(), 1, "guest-cache hit short-circuits virtio");
        assert!(matches!(
            stages[0],
            Stage::Copy {
                cat: CpuCategory::ClientApp,
                bytes: 65536,
                ..
            }
        ));
    }

    #[test]
    fn host_cached_read_skips_disk_but_not_virtio() {
        let (_w, mut cl, vm) = setup();
        let _ = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::ClientApp);
        cl.clear_guest_cache(vm);
        let stages = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::ClientApp);
        assert!(
            !stages.iter().any(|s| matches!(s, Stage::Disk { .. })),
            "host cache hit must not touch the device"
        );
        assert!(stages.len() >= 5, "virtio path still exercised");
    }

    #[test]
    fn write_hits_device_and_populates_caches() {
        let (_w, mut cl, vm) = setup();
        let stages = guest_disk_write(&mut cl, vm, 0, 65536, CpuCategory::DatanodeApp);
        assert!(stages.iter().any(|s| matches!(s, Stage::Disk { .. })));
        // written data is a cache hit afterwards
        let rd = guest_disk_read(&mut cl, vm, 0, 65536, CpuCategory::DatanodeApp);
        assert_eq!(rd.len(), 1);
    }

    #[test]
    fn write_device_bytes_scaled_for_write_bandwidth() {
        let (_w, mut cl, vm) = setup();
        let stages = guest_disk_write(&mut cl, vm, 0, 100_000, CpuCategory::Other);
        let Some(Stage::Disk { bytes, .. }) =
            stages.iter().find(|s| matches!(s, Stage::Disk { .. }))
        else {
            panic!("no disk stage");
        };
        let expect = (100_000.0 * cl.costs.ssd_bw_bps / cl.costs.ssd_write_bw_bps).round() as u64;
        assert_eq!(*bytes, expect);
    }

    #[test]
    fn end_to_end_cold_read_takes_device_time() {
        let (mut w, mut cl, vm) = setup();
        struct Sink;
        struct Done;
        impl Actor for Sink {
            fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
                if msg.is::<Done>() {
                    let ms = ctx.now().as_secs_f64() * 1e3;
                    ctx.metrics().sample("t_ms", ms);
                }
            }
        }
        let sink = w.add_actor("sink", Sink);
        let stages = guest_disk_read(&mut cl, vm, 0, 1 << 20, CpuCategory::ClientApp);
        w.ext.insert(cl);
        w.start_chain(stages, sink, Done);
        w.run();
        let ms = w.metrics.mean("t_ms");
        // 1 MB at 300 MB/s ≈ 3.3ms + 80us latency + CPU stages
        assert!(ms > 3.0 && ms < 6.0, "cold 1MB read took {ms}ms");
    }
}
