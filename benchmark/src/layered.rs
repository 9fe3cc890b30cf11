//! `ScenarioSpec::run`, replayed layer by layer through public calls so
//! each layer can be timed and inspected from outside the program:
//! topology, HDFS population, arming the workloads, the engine drive and
//! the report rollups.
//!
//! The replay follows the order `ScenarioSpec::run` uses for scenarios
//! with two or more workloads (deploy, bind, arm each workload in spec
//! order, start the background load, arm the faults, `run_jobs`). The
//! checks compare its outcome with `ScenarioSpec::run` bit for bit, so a
//! drift between the two shows up as a failed check rather than as a
//! silently different measurement.

use std::collections::BTreeMap;

use vread_apps::dfsio::{DfsioConfig, DfsioMode, TestDfsio};
use vread_apps::driver::run_jobs;
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_bench::spec::{FileSpec, WorkloadSpec};
use vread_bench::{DeployPlan, Deployment, ScenarioSpec};
use vread_hdfs::populate::{populate_file, Placement};
use vread_hdfs::{DatanodeIx, HdfsMeta};
use vread_sim::prelude::*;

/// The simulated-time cap `ScenarioSpec::run` drives under.
const CAP: SimDuration = SimDuration::from_secs(3_000);

/// The deployment plan `ScenarioSpec::run` builds for `spec`.
pub fn plan_of(spec: &ScenarioSpec) -> DeployPlan {
    let mut plan = DeployPlan::new(spec.seed)
        .path(spec.path)
        .spans(spec.spans)
        .host_cache(spec.host_cache.clone());
    plan.hosts = spec.hosts.clone();
    plan.vms = spec.vms.clone();
    plan.files = spec.files.clone();
    plan.timeline_sample_ms = spec.timeline.as_ref().map(|t| t.sample_ms);
    plan
}

/// Builds hosts, VMs and HDFS without populating any file.
///
/// # Errors
///
/// The deployment's own error for an unresolvable plan.
pub fn build_topology(spec: &ScenarioSpec) -> Result<Deployment, String> {
    let mut plan = plan_of(spec);
    plan.files.clear();
    Deployment::build(plan).map_err(|e| e.to_string())
}

/// Populates `files` into a deployment built by [`build_topology`].
///
/// # Errors
///
/// When a placement names an unknown datanode.
pub fn populate(d: &mut Deployment, files: &[FileSpec]) -> Result<(), String> {
    for f in files {
        let dns = f
            .placement
            .iter()
            .map(|name| {
                d.datanode_vms
                    .iter()
                    .position(|(dn, _)| dn == name)
                    .map(|i| d.dn_ixs[i])
                    .ok_or_else(|| format!("unknown datanode {name}"))
            })
            .collect::<Result<Vec<DatanodeIx>, String>>()?;
        let placement = if f.replicate {
            Placement::Replicated(dns)
        } else {
            Placement::RoundRobin(dns)
        };
        populate_file(&mut d.w, &f.path, f.mb << 20, &placement);
    }
    Ok(())
}

/// One armed workload.
#[derive(Debug, Clone, Copy)]
pub struct Armed {
    /// `"reader"` or `"dfsio-write"`.
    pub kind: &'static str,
    /// Its job in the world's job table.
    pub job: JobHandle,
}

/// Binds and arms every workload, then starts the background load and
/// the fault plan.
///
/// # Errors
///
/// An unresolvable client or file, a fault target that does not
/// resolve, or a workload kind the generator never emits.
pub fn arm(spec: &ScenarioSpec, d: &mut Deployment) -> Result<Vec<Armed>, String> {
    let vms = spec
        .workloads
        .iter()
        .map(|b| d.client_vm(b.client.as_deref()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    let mut armed = Vec::new();
    for (b, vm) in spec.workloads.iter().zip(vms) {
        let delay = SimDuration::from_millis(b.start_ms);
        let (kind, job, actor) = match &b.kind {
            WorkloadSpec::DfsioWrite { files, mb } => {
                let client = d.add_client_on(vm);
                let job = d.w.register_job("dfsio");
                let app = TestDfsio::new(
                    client,
                    vm,
                    DfsioMode::Write,
                    files.clone(),
                    mb << 20,
                    DfsioConfig::default(),
                )
                .with_job(job);
                ("dfsio-write", job, d.w.add_actor("dfsio", app))
            }
            WorkloadSpec::Reader { path, request_kb } => {
                let total =
                    d.w.ext
                        .get::<HdfsMeta>()
                        .and_then(|m| m.file(path))
                        .map(|f| f.size())
                        .ok_or_else(|| format!("unknown file {path}"))?;
                let client = d.add_client_on(vm);
                let job = d.w.register_job("reader");
                let mode = ReaderMode::Dfs {
                    client,
                    path: path.clone(),
                };
                let rdr = JavaReader::new(vm, mode, request_kb << 10, total).with_job(job);
                ("reader", job, d.w.add_actor("reader", rdr))
            }
            other => return Err(format!("unsupported workload kind {}", other.kind_str())),
        };
        if delay == SimDuration::ZERO {
            d.w.send_now(actor, Start);
        } else {
            d.w.send_after(actor, Start, delay);
        }
        armed.push(Armed { kind, job });
    }
    d.start_background();
    d.arm_faults(&spec.faults).map_err(|e| e.to_string())?;
    Ok(armed)
}

/// Drives the world until every job completes.
///
/// # Errors
///
/// When the jobs do not finish within the simulated-time cap.
pub fn drive(d: &mut Deployment) -> Result<(), String> {
    if run_jobs(&mut d.w, CAP) {
        Ok(())
    } else {
        Err("workload did not finish".to_owned())
    }
}

/// The simulated outcome of a finished drive, computed the way
/// `ScenarioSpec::run` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Payload bytes over all jobs.
    pub bytes: u64,
    /// First job start to last job completion, simulated seconds.
    pub elapsed_s: f64,
    /// `bytes / 1e6 / elapsed_s`.
    pub rate: f64,
    /// CPU milliseconds by figure bucket, lookbusy excluded.
    pub cpu_by_category_ms: Vec<(String, f64)>,
    /// Payload bytes and span of the jobs of each kind:
    /// `kind -> (bytes, seconds from first start to last completion)`.
    pub by_kind: BTreeMap<&'static str, (u64, f64)>,
}

/// Collects the [`Outcome`] of a finished drive.
///
/// # Errors
///
/// When a job never started or never completed.
pub fn outcome(d: &Deployment, armed: &[Armed]) -> Result<Outcome, String> {
    let w = &d.w;
    let mut span: Option<(SimTime, SimTime)> = None;
    let mut by_kind_span: BTreeMap<&'static str, (u64, SimTime, SimTime)> = BTreeMap::new();
    let mut bytes = 0u64;
    for a in armed {
        let started = w.jobs.started_at(a.job).ok_or("job never started")?;
        let done = w.jobs.completed_at(a.job).ok_or("job never completed")?;
        span = Some(span.map_or((started, done), |(s, e)| (s.min(started), e.max(done))));
        let job_bytes = w.jobs.bytes(a.job);
        bytes += job_bytes;
        let e = by_kind_span.entry(a.kind).or_insert((0, started, done));
        *e = (e.0 + job_bytes, e.1.min(started), e.2.max(done));
    }
    let (first, last) = span.ok_or("no workload armed")?;
    let elapsed_s = last.since(first).as_secs_f64();
    let mut cpu: BTreeMap<&'static str, f64> = BTreeMap::new();
    for t in 0..w.acct.len() {
        let id = ThreadId::from_raw(u32::try_from(t).map_err(|e| e.to_string())?);
        let ghz = w.host_ghz(w.thread_host(id));
        for cat in CpuCategory::ALL {
            if cat == CpuCategory::Lookbusy {
                continue;
            }
            let cycles = w.acct.cycles(t, cat);
            if cycles > 0.0 {
                *cpu.entry(cat.figure_bucket()).or_insert(0.0) += cycles / ghz / 1e6;
            }
        }
    }
    Ok(Outcome {
        bytes,
        elapsed_s,
        rate: bytes as f64 / 1e6 / elapsed_s,
        cpu_by_category_ms: cpu.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        by_kind: by_kind_span
            .into_iter()
            .map(|(k, (b, s, e))| (k, (b, e.since(s).as_secs_f64())))
            .collect(),
    })
}

/// A finished layered run: the world and its armed jobs.
pub struct Finished {
    /// The deployment after the drive.
    pub d: Deployment,
    /// The jobs, in spec order.
    pub armed: Vec<Armed>,
}

/// Runs every layer in order, untimed.
///
/// # Errors
///
/// The first layer's error.
pub fn run_all(spec: &ScenarioSpec) -> Result<Finished, String> {
    let mut d = build_topology(spec)?;
    populate(&mut d, &spec.files)?;
    let armed = arm(spec, &mut d)?;
    drive(&mut d)?;
    Ok(Finished { d, armed })
}
