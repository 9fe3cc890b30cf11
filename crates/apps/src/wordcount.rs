//! WordCount — the canonical Hadoop MapReduce job, as an additional
//! consumer of the HDFS read path.
//!
//! The paper's introduction motivates vRead with MapReduce workloads
//! whose inputs stream from HDFS. This model runs map tasks (tokenize +
//! combine, CPU per byte) over input splits read through the real
//! `DfsClient`, a shuffle/sort phase (CPU over the intermediate data),
//! and a reduce phase that writes the (much smaller) output back to
//! HDFS — so both directions of the DFS are exercised.

use vread_hdfs::client::{DfsRead, DfsReadDone, DfsWrite, DfsWriteDone};
use vread_host::cluster::{Cluster, VmId};
use vread_sim::prelude::*;

/// Map-side cycles per input byte (tokenizing, hashing, combining).
const MAP_CYC_PER_BYTE: f64 = 6.0;
/// Shuffle+sort cycles per intermediate byte.
const SHUFFLE_CYC_PER_BYTE: f64 = 2.0;
/// Reduce cycles per intermediate byte.
const REDUCE_CYC_PER_BYTE: f64 = 1.5;
/// Intermediate data size as a fraction of the input (combiners shrink it
/// hard for natural text).
const INTERMEDIATE_RATIO: f64 = 0.10;
/// Output size as a fraction of the input.
const OUTPUT_RATIO: f64 = 0.02;
/// Input split (map task) size.
const SPLIT_BYTES: u64 = 64 << 20;
/// Read buffer within a map task.
const BUFFER_BYTES: u64 = 1 << 20;

/// Job phases (exposed in metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Map,
    Shuffle,
    Reduce,
    Done,
}

struct MapCpuDone {
    bytes: u64,
}
struct PhaseCpuDone;

/// The WordCount driver actor.
///
/// Metrics: the phase mark `wc_map_done_at_s` (when the map phase
/// ended, seconds). Start, input bytes, map reads and completion are
/// recorded only in the job table, on the job bound with
/// [`WordCount::with_job`].
pub struct WordCount {
    client: ActorId,
    vm: VmId,
    input: String,
    input_bytes: u64,
    phase: Phase,
    offset: u64,
    req: u64,
    job: Option<JobHandle>,
}

impl WordCount {
    /// Creates a job over `input` (`input_bytes` long, already in HDFS)
    /// through `client`.
    pub fn new(client: ActorId, vm: VmId, input: String, input_bytes: u64) -> Self {
        WordCount {
            client,
            vm,
            input,
            input_bytes,
            phase: Phase::Map,
            offset: 0,
            req: 0,
            job: None,
        }
    }

    /// Binds a completion token: the job signals start, map-side
    /// progress and completion on `job` in addition to its metrics.
    pub fn with_job(mut self, job: JobHandle) -> Self {
        self.job = Some(job);
        self
    }

    fn vcpu(&self, ctx: &Ctx<'_>) -> ThreadId {
        ctx.world
            .ext
            .get::<Cluster>()
            .expect("cluster")
            .vm(self.vm)
            .vcpu
    }

    fn next_read(&mut self, ctx: &mut Ctx<'_>) {
        if self.offset >= self.input_bytes {
            self.enter_shuffle(ctx);
            return;
        }
        let len = BUFFER_BYTES
            .min(self.input_bytes - self.offset)
            .min(SPLIT_BYTES - (self.offset % SPLIT_BYTES));
        self.req += 1;
        let me = ctx.me();
        ctx.send(
            self.client,
            DfsRead {
                req: self.req,
                reply_to: me,
                path: self.input.clone(),
                offset: self.offset,
                len,
                pread: false,
            },
        );
        self.offset += len;
    }

    fn enter_shuffle(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Shuffle;
        let now_s = ctx.now().as_secs_f64();
        ctx.metrics().sample("wc_map_done_at_s", now_s);
        let inter = (self.input_bytes as f64 * INTERMEDIATE_RATIO) as u64;
        let cycles = (inter as f64 * SHUFFLE_CYC_PER_BYTE) as u64;
        let vcpu = self.vcpu(ctx);
        let me = ctx.me();
        ctx.chain(
            Stage::cpu(vcpu, cycles, CpuCategory::MapReduce),
            me,
            PhaseCpuDone,
        );
    }

    fn enter_reduce(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Reduce;
        let inter = (self.input_bytes as f64 * INTERMEDIATE_RATIO) as u64;
        let cycles = (inter as f64 * REDUCE_CYC_PER_BYTE) as u64;
        let vcpu = self.vcpu(ctx);
        let me = ctx.me();
        ctx.chain(
            Stage::cpu(vcpu, cycles, CpuCategory::MapReduce),
            me,
            PhaseCpuDone,
        );
    }

    fn write_output(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Done;
        let out = ((self.input_bytes as f64 * OUTPUT_RATIO) as u64).max(1);
        self.req += 1;
        let me = ctx.me();
        ctx.send(
            self.client,
            DfsWrite {
                req: self.req,
                reply_to: me,
                path: format!("{}.out", self.input),
                bytes: out,
            },
        );
    }
}

impl Actor for WordCount {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            if let Some(j) = self.job {
                ctx.job_started(j);
            }
            self.next_read(ctx);
            return;
        }
        let msg = match downcast::<DfsReadDone>(msg) {
            Ok(d) => {
                // map-side CPU over the split bytes
                let cycles = (d.bytes as f64 * MAP_CYC_PER_BYTE) as u64;
                let vcpu = self.vcpu(ctx);
                let me = ctx.me();
                ctx.chain(
                    Stage::cpu(vcpu, cycles, CpuCategory::MapReduce),
                    me,
                    MapCpuDone { bytes: d.bytes },
                );
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<MapCpuDone>(msg) {
            Ok(mc) => {
                if let Some(j) = self.job {
                    ctx.job_progress(j, mc.bytes, 1);
                }
                self.next_read(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match downcast::<PhaseCpuDone>(msg) {
            Ok(_) => {
                match self.phase {
                    Phase::Shuffle => self.enter_reduce(ctx),
                    Phase::Reduce => self.write_output(ctx),
                    _ => {}
                }
                return;
            }
            Err(m) => m,
        };
        if msg.is::<DfsWriteDone>() {
            if let Some(j) = self.job {
                ctx.job_completed(j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vread_hdfs::client::{add_client, VanillaPath};
    use vread_hdfs::deploy_hdfs;
    use vread_hdfs::populate::{populate_file, Placement};
    use vread_host::costs::Costs;

    fn run_job() -> (World, JobHandle) {
        let mut w = World::new(51);
        let mut cl = Cluster::new(Costs::default());
        let h = cl.add_host(&mut w, "h", 4, 2.0);
        let cvm = cl.add_vm(&mut w, h, "client");
        let dvm = cl.add_vm(&mut w, h, "dn");
        w.ext.insert(cl);
        let (_, dns) = deploy_hdfs(&mut w, cvm, &[dvm]);
        populate_file(&mut w, "/input", 32 << 20, &Placement::One(dns[0]));
        let client = add_client(&mut w, cvm, Box::new(VanillaPath::new()));
        let job = w.register_job("wc");
        let wc = WordCount::new(client, cvm, "/input".into(), 32 << 20).with_job(job);
        let a = w.add_actor("wc", wc);
        w.send_now(a, Start);
        w.run();
        (w, job)
    }

    #[test]
    fn job_runs_all_phases_and_writes_output() {
        let (w, job) = run_job();
        assert!(w.jobs.completed_at(job).is_some());
        assert_eq!(w.jobs.bytes(job), 32 << 20);
        // output written back to HDFS
        let meta = w.ext.get::<vread_hdfs::HdfsMeta>().unwrap();
        let out = meta.file("/input.out").expect("output file");
        assert_eq!(out.size(), ((32u64 << 20) as f64 * 0.02) as u64);
        // shuffle/reduce happen after the map phase
        let map_done = w.metrics.mean("wc_map_done_at_s");
        let done = w
            .jobs
            .completed_at(job)
            .expect("job completed")
            .as_secs_f64();
        assert!(done > map_done);
    }

    #[test]
    fn map_phase_dominates_for_cpu_heavy_config() {
        let (w, job) = run_job();
        let start = w.jobs.started_at(job).expect("job started").as_secs_f64();
        let map_done = w.metrics.mean("wc_map_done_at_s");
        let elapsed = w.jobs.elapsed(job).expect("job ran").as_secs_f64();
        let map_frac = (map_done - start) / elapsed;
        assert!(map_frac > 0.5, "map phase fraction {map_frac}");
    }
}
