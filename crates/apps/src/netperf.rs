//! netperf TCP_RR between two VMs (the paper's Figure 3 microbenchmark).
//!
//! A client VM sends a request of `request_bytes` to a server VM over the
//! virtio-net TCP path; the server replies with a small response; the
//! client counts transactions. Under CPU contention (two extra lookbusy
//! VMs on a quad-core host) the per-transaction thread wake-ups absorb
//! run-queue delay and the rate drops — the "I/O threads synchronization
//! overhead" the paper measures.

use vread_host::cluster::{with_cluster, Cluster, VmId};
use vread_net::conn::{add_conn, ConnRecv, ConnSend, ConnSpec, Endpoint, Flavor, Side};
use vread_sim::prelude::*;

/// Per-transaction application CPU on each side (request build / parse).
const APP_CYCLES: u64 = 4_000;

/// The echo server half.
pub struct NetperfServer {
    vm: VmId,
    response_bytes: u64,
}

impl NetperfServer {
    /// Creates a server in `vm` responding with `response_bytes` frames.
    pub fn new(vm: VmId, response_bytes: u64) -> Self {
        NetperfServer { vm, response_bytes }
    }
}

impl Actor for NetperfServer {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if let Ok(r) = downcast::<ConnRecv>(msg) {
            let vcpu = {
                let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
                cl.vm(self.vm).vcpu
            };
            let resp = ConnSend {
                dir: r.side,
                bytes: self.response_bytes,
                tag: r.tag,
                notify: false,
                span: SpanId::NONE,
            };
            // server-side request handling, then respond
            ctx.chain(
                Stage::cpu(vcpu, APP_CYCLES, CpuCategory::ClientApp),
                r.conn,
                resp,
            );
        }
    }
}

/// The requesting half.
///
/// Metrics: `netperf_txns` (transactions completed after
/// `measure_from`). The client's start is recorded only in the job
/// table, on the job bound with [`NetperfClient::with_job`].
pub struct NetperfClient {
    vm: VmId,
    conn: Option<ActorId>,
    server: ActorId,
    server_vm: VmId,
    request_bytes: u64,
    seq: u64,
    /// Transactions are only counted after this time (warm-up).
    pub measure_from: SimTime,
    job: Option<JobHandle>,
    m_txns: LazyCounter,
}

impl NetperfClient {
    /// Creates a client in `vm` issuing `request_bytes` requests to
    /// `server` (in `server_vm`).
    pub fn new(vm: VmId, server: ActorId, server_vm: VmId, request_bytes: u64) -> Self {
        NetperfClient {
            vm,
            conn: None,
            server,
            server_vm,
            request_bytes,
            seq: 0,
            measure_from: SimTime::ZERO,
            job: None,
            m_txns: LazyCounter::new("netperf_txns"),
        }
    }

    /// Binds a completion token: the client signals start and one op of
    /// progress per counted transaction. netperf runs for a fixed window
    /// and never completes on its own — bound it with
    /// `complete_job_after`.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        let conn = match self.conn {
            Some(c) => c,
            None => {
                let me = ctx.me();
                let (vm, server, server_vm) = (self.vm, self.server, self.server_vm);
                let c = with_cluster(ctx.world, |cl, w| {
                    add_conn(
                        w,
                        cl,
                        Endpoint {
                            actor: me,
                            flavor: Flavor::Guest(vm),
                        },
                        Endpoint {
                            actor: server,
                            flavor: Flavor::Guest(server_vm),
                        },
                        ConnSpec {
                            sriov: cl.costs.sriov_nics,
                            ..Default::default()
                        },
                    )
                });
                self.conn = Some(c);
                c
            }
        };
        self.seq += 1;
        let vcpu = {
            let cl = ctx.world.ext.get::<Cluster>().expect("cluster");
            cl.vm(self.vm).vcpu
        };
        let send = ConnSend {
            dir: Side::A,
            bytes: self.request_bytes,
            tag: self.seq,
            notify: false,
            span: SpanId::NONE,
        };
        ctx.cpu(vcpu, APP_CYCLES, CpuCategory::ClientApp, conn, send);
    }
}

impl Actor for NetperfClient {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            self.fire(ctx);
            return;
        }
        if let Ok(r) = downcast::<ConnRecv>(msg) {
            debug_assert_eq!(r.tag, self.seq);
            if ctx.now() >= self.measure_from {
                self.m_txns.incr(ctx.metrics());
                if let Some(j) = self.job {
                    ctx.job_progress(j, 0, 1);
                }
            }
            self.fire(ctx);
        }
    }
}

/// Builds a netperf pair between two VMs; returns the client actor (send
/// it [`Start`] to begin).
pub fn deploy_netperf(
    w: &mut World,
    client_vm: VmId,
    server_vm: VmId,
    request_bytes: u64,
    measure_from: SimTime,
) -> ActorId {
    deploy_netperf_with_job(w, client_vm, server_vm, request_bytes, measure_from, None)
}

/// [`deploy_netperf`] with an optional completion token bound to the
/// client.
pub fn deploy_netperf_with_job(
    w: &mut World,
    client_vm: VmId,
    server_vm: VmId,
    request_bytes: u64,
    measure_from: SimTime,
    job: Option<JobHandle>,
) -> ActorId {
    let server = w.add_actor("netperf-server", NetperfServer::new(server_vm, 128));
    let mut client = NetperfClient::new(client_vm, server, server_vm, request_bytes);
    client.measure_from = measure_from;
    client.job = job;
    w.add_actor("netperf-client", client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookbusy::Lookbusy;
    use vread_host::costs::Costs;

    fn world_with_vms(n_extra: usize) -> (World, VmId, VmId, Vec<ThreadId>) {
        let mut w = World::new(77);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 3.2);
        let a = cl.add_vm(&mut w, h, "vmA");
        let b = cl.add_vm(&mut w, h, "vmB");
        let mut extra = Vec::new();
        for i in 0..n_extra {
            let vm = cl.add_vm(&mut w, h, &format!("bg{i}"));
            extra.push(cl.vm(vm).vcpu);
        }
        w.ext.insert(cl);
        (w, a, b, extra)
    }

    fn a2_vcpu(w: &World, vm: VmId) -> ThreadId {
        w.ext.get::<Cluster>().unwrap().vm(vm).vcpu
    }

    fn rate(w: &mut World, client: ActorId) -> f64 {
        w.send_now(client, Start);
        w.run_until(SimTime::from_nanos(1_100_000_000));
        w.metrics.counter("netperf_txns") // over exactly 1s
    }

    #[test]
    fn transaction_rate_reasonable_and_size_sensitive() {
        let (mut w, a, b, _) = world_with_vms(0);
        let c = deploy_netperf(&mut w, a, b, 32 * 1024, SimTime::from_nanos(100_000_000));
        let r32 = rate(&mut w, c);
        assert!(r32 > 3_000.0 && r32 < 40_000.0, "32KB rate {r32}/s");

        let (mut w2, a2, b2, _) = world_with_vms(0);
        let c2 = deploy_netperf(
            &mut w2,
            a2,
            b2,
            128 * 1024,
            SimTime::from_nanos(100_000_000),
        );
        let r128 = rate(&mut w2, c2);
        assert!(r128 < r32, "128KB rate ({r128}) below 32KB rate ({r32})");
    }

    #[test]
    fn lookbusy_contention_drops_rate() {
        let (mut w, a, b, _) = world_with_vms(0);
        let c = deploy_netperf(&mut w, a, b, 32 * 1024, SimTime::from_nanos(100_000_000));
        let quiet = rate(&mut w, c);

        let (mut w2, a2, b2, extra) = world_with_vms(2);
        let n = extra.len();
        for t in extra {
            // 85% busy (the paper's setting) in 10 ms bursts
            let lb = Lookbusy::new(t, 0.85, SimDuration::from_millis(10));
            let a = w2.add_actor("lookbusy", lb);
            w2.send_now(a, Start);
        }
        let host = w2.thread_host(a2_vcpu(&w2, a2));
        w2.set_cache_pressure(host, crate::lookbusy::llc_pressure(n));
        let c2 = deploy_netperf(&mut w2, a2, b2, 32 * 1024, SimTime::from_nanos(100_000_000));
        let busy = rate(&mut w2, c2);
        let drop = 1.0 - busy / quiet;
        assert!(
            drop > 0.05 && drop < 0.6,
            "contended rate should drop noticeably (quiet {quiet}, busy {busy}, drop {drop:.2})"
        );
    }
}
