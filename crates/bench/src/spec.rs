//! Declarative scenarios: assemble and run a whole deployment from a
//! JSON description.
//!
//! ```json
//! {
//!   "seed": 7,
//!   "path": "vread-rdma",
//!   "hosts": [
//!     { "name": "host1", "cores": 4, "ghz": 2.0 },
//!     { "name": "host2", "cores": 4, "ghz": 2.0 }
//!   ],
//!   "vms": [
//!     { "name": "client", "host": "host1", "role": "client" },
//!     { "name": "dn1", "host": "host1", "role": "datanode" },
//!     { "name": "dn2", "host": "host2", "role": "datanode" },
//!     { "name": "bg1", "host": "host1", "role": "lookbusy", "busy": 0.85 }
//!   ],
//!   "files": [ { "path": "/data", "mb": 256, "placement": ["dn1", "dn2"] } ],
//!   "workload": { "kind": "dfsio-read", "files": ["/data"], "buffer_kb": 1024 }
//! }
//! ```
//!
//! A scenario may instead carry a `"workloads"` array of such objects,
//! run concurrently; reports for two or more gain a `per_workload`
//! block. The singular `"workload"` is shorthand for a one-entry
//! `"workloads"`: either may add `"client"` (the client VM it runs in,
//! default the first client) and `"start_ms"` (launch offset, default
//! 0).
//!
//! Parsing is strict: an unknown key in any object — the top level, a
//! host, VM, file, workload (keys per kind), fault (keys per kind),
//! `host_cache` or `timeline` — is a [`SpecError::Parse`] naming the
//! key, never silently ignored. Every other rule (references, roles,
//! ranges, sizes, times) lives in one validator that the parser, the fluent
//! builder and [`ScenarioSpec::run`] all call. The topology is then
//! deployed through [`crate::deploy::Deployment`], and workloads are
//! driven by the event-driven job primitives (no time-slice polling).
//!
//! Run with `repro scenario <file.json>`; the report (throughput, CPU,
//! per-thread busy time) is printed and returned as JSON.

use crate::deploy::{DeployPlan, Deployment};
use crate::faults::{check_faults, collect_fault_report, FaultKind, FaultReport, FaultSpec};
use crate::json::{n, obj, s, Json};
use crate::scenarios::ReadPath;
use crate::spans::SpanSummary;
use crate::timeline::TimelineSummary;

use vread_apps::dfsio::{DfsioConfig, DfsioMode, TestDfsio};
use vread_apps::driver::{complete_job_after, run_jobs};
use vread_apps::java_reader::{JavaReader, ReaderMode};
use vread_apps::netperf::deploy_netperf_with_job;
use vread_hdfs::HdfsMeta;
use vread_host::cluster::{Cluster, HostCacheMode, VmId};
use vread_host::costs::Costs;
use vread_sim::prelude::*;

/// A physical host.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Host name (referenced by VMs).
    pub name: String,
    /// Cores (default 4; 1 to [`MAX_HOST_CORES`]).
    pub cores: usize,
    /// Clock in GHz (default 2.0; finite and positive).
    pub ghz: f64,
}

/// Largest core count a host may declare. The scheduler allocates
/// per-core state up front, so an unbounded count would exhaust memory
/// before the run starts.
pub const MAX_HOST_CORES: usize = 1024;

/// What a VM runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmRole {
    /// HDFS client (the first client VM also hosts the namenode).
    Client,
    /// HDFS datanode.
    Datanode,
    /// Background CPU load.
    Lookbusy,
    /// A plain VM with no HDFS role (netperf peers).
    Peer,
}

/// A virtual machine.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// VM name.
    pub name: String,
    /// Host name it runs on.
    pub host: String,
    /// Role.
    pub role: VmRole,
    /// Lookbusy duty cycle (only for `lookbusy` VMs; in (0, 1], default
    /// 0.85).
    pub busy: Option<f64>,
}

/// A pre-populated HDFS file.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// HDFS path.
    pub path: String,
    /// Size in MiB.
    pub mb: u64,
    /// Datanode names blocks round-robin over.
    pub placement: Vec<String>,
    /// `true` puts every block on *all* placement datanodes (rotating
    /// primaries) instead of round-robining — the 3-way-replication
    /// layout fault scenarios fail over inside.
    pub replicate: bool,
}

/// Host block-store configuration (the scenario's `"host_cache"`
/// block). Absent from the JSON it defaults to the per-host LRU page
/// cache with the cost model's capacity — existing scenarios and their
/// reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostCacheSpec {
    /// `"lru"` (default) or `"cas"` — the content-addressed store that
    /// dedups identical blocks across co-located VMs.
    pub mode: HostCacheMode,
    /// Per-host store capacity override in MiB (default: cost model).
    pub capacity_mb: Option<u64>,
    /// Store chunk size override in KiB (default: cost model).
    pub chunk_kb: Option<u64>,
}

/// Telemetry timeline configuration (the scenario's `"timeline"`
/// block). Absent, the timeline stays disabled: no sampler ticks are
/// scheduled and existing reports serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineSpec {
    /// Sampling period — and latency-window length — in simulated
    /// milliseconds (must be positive).
    pub sample_ms: u64,
}

/// The measured workload.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// TestDFSIO read over `files`.
    DfsioRead {
        /// Files to read (must be populated).
        files: Vec<String>,
        /// Application buffer in KiB (default 1024).
        buffer_kb: u64,
    },
    /// TestDFSIO write creating `files` of `mb` MiB each.
    DfsioWrite {
        /// Files to create.
        files: Vec<String>,
        /// Per-file size in MiB.
        mb: u64,
    },
    /// Sequential reader over one file.
    Reader {
        /// File to read.
        path: String,
        /// Request size in KiB (at least 1).
        request_kb: u64,
    },
    /// netperf TCP_RR between the client VM and the first datanode VM.
    Netperf {
        /// Request size in KiB.
        request_kb: u64,
        /// Measurement window in milliseconds.
        duration_ms: u64,
    },
}

impl WorkloadSpec {
    /// The scenario-JSON `kind` spelling.
    pub fn kind_str(&self) -> &'static str {
        match self {
            WorkloadSpec::DfsioRead { .. } => "dfsio-read",
            WorkloadSpec::DfsioWrite { .. } => "dfsio-write",
            WorkloadSpec::Reader { .. } => "reader",
            WorkloadSpec::Netperf { .. } => "netperf",
        }
    }
}

/// One workload bound to a client VM and a launch time.
#[derive(Debug, Clone)]
pub struct WorkloadBinding {
    /// Client VM the workload runs in; `None` = the first client VM.
    pub client: Option<String>,
    /// Simulated milliseconds after scenario start to launch at.
    pub start_ms: u64,
    /// The workload itself.
    pub kind: WorkloadSpec,
}

impl WorkloadBinding {
    /// Binds `kind` to the default client at time zero.
    pub fn new(kind: WorkloadSpec) -> Self {
        WorkloadBinding {
            client: None,
            start_ms: 0,
            kind,
        }
    }
}

/// An armed concurrent workload: its registered job plus the labels the
/// per-workload report needs once the run finishes.
struct Armed {
    kind: &'static str,
    client: String,
    start_ms: u64,
    job: JobHandle,
    netperf_s: Option<f64>,
}

/// A whole scenario.
///
/// ```rust
/// use vread_bench::ScenarioSpec;
///
/// let spec = ScenarioSpec::from_json(r#"{
///     "path": "vanilla",
///     "hosts": [ { "name": "h1" } ],
///     "vms": [
///         { "name": "client", "host": "h1", "role": "client" },
///         { "name": "dn1", "host": "h1", "role": "datanode" }
///     ],
///     "files": [ { "path": "/d", "mb": 8, "placement": ["dn1"] } ],
///     "workload": { "kind": "reader", "path": "/d", "request_kb": 1024 }
/// }"#)?;
/// let report = spec.run()?;
/// assert_eq!(report.bytes, 8 << 20);
/// # Ok::<(), vread_bench::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// RNG seed (default 42).
    pub seed: u64,
    /// Read path under test.
    pub path: ReadPath,
    /// Hosts.
    pub hosts: Vec<HostSpec>,
    /// VMs.
    pub vms: Vec<VmSpec>,
    /// Pre-populated files (default none).
    pub files: Vec<FileSpec>,
    /// The workloads to run (the singular `"workload"` JSON field binds
    /// one workload to the first client at time zero).
    pub workloads: Vec<WorkloadBinding>,
    /// Planned faults (default none; see [`FaultSpec`]).
    pub faults: Vec<FaultSpec>,
    /// Enable the span flight recorder (default false). Adds a
    /// [`SpanSummary`] to the report; off-path runs serialize unchanged.
    pub spans: bool,
    /// Host block-store configuration (default: per-host LRU).
    pub host_cache: HostCacheSpec,
    /// Telemetry timeline configuration (default: disabled). Adds a
    /// [`TimelineSummary`] to the report; off runs serialize unchanged.
    pub timeline: Option<TimelineSpec>,
}

/// Per-workload results (multi-workload scenarios only).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload kind (`"dfsio-read"`, `"reader"`, …).
    pub kind: String,
    /// Client VM it ran in.
    pub client: String,
    /// Launch offset in milliseconds.
    pub start_ms: u64,
    /// Start-to-completion seconds for this job alone.
    pub elapsed_s: f64,
    /// Payload this job moved (bytes) — 0 for netperf.
    pub bytes: u64,
    /// Job throughput in MB/s (transactions/s for netperf).
    pub rate: f64,
}

/// Scenario results.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Simulated seconds the workload took (first start to last
    /// completion for multi-workload scenarios).
    pub elapsed_s: f64,
    /// Payload moved (bytes) — 0 for netperf.
    pub bytes: u64,
    /// Application throughput in MB/s (or transactions/s for netperf).
    pub rate: f64,
    /// Busy milliseconds per thread, by thread name.
    pub thread_busy_ms: Vec<(String, f64)>,
    /// CPU milliseconds by the paper's figure-legend buckets (whole
    /// deployment, lookbusy excluded).
    pub cpu_by_category_ms: Vec<(String, f64)>,
    /// Per-job breakdown — present only when the scenario ran two or
    /// more workloads (a lone workload's row would repeat the headline).
    pub per_workload: Vec<WorkloadReport>,
    /// Degradation summary — present only when the scenario planned
    /// faults, so fault-free reports serialize exactly as before.
    pub faults: Option<FaultReport>,
    /// Span rollups — present only when the scenario enabled tracing.
    pub spans: Option<SpanSummary>,
    /// Host block-store summary — present only when the scenario ran the
    /// content-addressed store, so LRU reports serialize exactly as
    /// before.
    pub host_cache: Option<HostCacheReport>,
    /// Telemetry rollup — present only when the scenario enabled the
    /// timeline, so timeline-off reports serialize exactly as before.
    pub timeline: Option<TimelineSummary>,
}

/// End-of-run host block-store figures, summed over all hosts
/// (content-addressed scenarios only).
#[derive(Debug, Clone, Copy)]
pub struct HostCacheReport {
    /// Physical bytes resident across all host stores.
    pub used_bytes: u64,
    /// Logical bytes those physical bytes back (≥ used when replicas
    /// share chunks).
    pub logical_bytes: u64,
    /// `logical / used` — the effective capacity multiplier dedup buys
    /// at this byte budget (1.0 when nothing is shared or stores are
    /// empty).
    pub effective_capacity_x: f64,
    /// Lookup ranges fully resident (including dedup hits).
    pub hits: u64,
    /// Lookup ranges with at least one absent chunk.
    pub misses: u64,
    /// Hits served from chunks another VM's image admitted.
    pub dedup_hits: u64,
}

impl HostCacheReport {
    /// Sums the per-host store figures over a deployed cluster.
    pub fn collect(cl: &Cluster) -> HostCacheReport {
        let mut r = HostCacheReport {
            used_bytes: 0,
            logical_bytes: 0,
            effective_capacity_x: 1.0,
            hits: 0,
            misses: 0,
            dedup_hits: 0,
        };
        for h in &cl.hosts {
            r.used_bytes += h.cache.used_bytes();
            r.logical_bytes += h.cache.logical_bytes();
            let st = h.cache.stats();
            r.hits += st.hits;
            r.misses += st.misses;
            r.dedup_hits += st.dedup_hits;
        }
        if r.used_bytes > 0 {
            r.effective_capacity_x = r.logical_bytes as f64 / r.used_bytes as f64;
        }
        r
    }

    fn to_json(self) -> Json {
        obj(vec![
            ("used_bytes", n(self.used_bytes as f64)),
            ("logical_bytes", n(self.logical_bytes as f64)),
            ("effective_capacity_x", n(self.effective_capacity_x)),
            ("hits", n(self.hits as f64)),
            ("misses", n(self.misses as f64)),
            ("dedup_hits", n(self.dedup_hits as f64)),
        ])
    }
}

/// Errors building/running a scenario.
#[derive(Debug)]
pub enum SpecError {
    /// JSON didn't parse, a field was missing or mistyped, or a key is
    /// unknown.
    Parse(String),
    /// A reference (host, VM, datanode, file) didn't resolve.
    Unresolved(String),
    /// Config combination is invalid or a number is out of range.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "scenario JSON: {e}"),
            SpecError::Unresolved(s) => write!(f, "unresolved reference: {s}"),
            SpecError::Invalid(s) => write!(f, "invalid scenario: {s}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl ScenarioReport {
    /// Serializes the report as pretty JSON (fixed field order).
    pub fn to_json(&self) -> String {
        let pairs = |v: &[(String, f64)]| {
            Json::Arr(
                v.iter()
                    .map(|(k, ms)| Json::Arr(vec![s(k), n(*ms)]))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("elapsed_s", n(self.elapsed_s)),
            ("bytes", n(self.bytes as f64)),
            ("rate", n(self.rate)),
            ("thread_busy_ms", pairs(&self.thread_busy_ms)),
            ("cpu_by_category_ms", pairs(&self.cpu_by_category_ms)),
        ];
        if !self.per_workload.is_empty() {
            fields.push((
                "per_workload",
                Json::Arr(
                    self.per_workload
                        .iter()
                        .map(|wr| {
                            obj(vec![
                                ("kind", s(&wr.kind)),
                                ("client", s(&wr.client)),
                                ("start_ms", n(wr.start_ms as f64)),
                                ("elapsed_s", n(wr.elapsed_s)),
                                ("bytes", n(wr.bytes as f64)),
                                ("rate", n(wr.rate)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(f) = &self.faults {
            fields.push(("faults", f.to_json()));
        }
        if let Some(sp) = &self.spans {
            fields.push(("spans", sp.to_json()));
        }
        if let Some(hc) = &self.host_cache {
            fields.push(("host_cache", hc.to_json()));
        }
        if let Some(tl) = &self.timeline {
            fields.push(("timeline", tl.to_json()));
        }
        obj(fields).pretty()
    }
}

// -- manual JSON decoding (replaces serde derive) ---------------------------

pub(crate) fn parse_err(msg: impl Into<String>) -> SpecError {
    SpecError::Parse(msg.into())
}

pub(crate) fn req<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, SpecError> {
    j.get(key)
        .ok_or_else(|| parse_err(format!("{ctx}: missing field {key:?}")))
}

pub(crate) fn req_str(j: &Json, key: &str, ctx: &str) -> Result<String, SpecError> {
    req(j, key, ctx)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| parse_err(format!("{ctx}: field {key:?} must be a string")))
}

pub(crate) fn req_u64(j: &Json, key: &str, ctx: &str) -> Result<u64, SpecError> {
    req(j, key, ctx)?.as_u64().ok_or_else(|| {
        parse_err(format!(
            "{ctx}: field {key:?} must be a non-negative integer"
        ))
    })
}

pub(crate) fn opt_u64(j: &Json, key: &str, default: u64, ctx: &str) -> Result<u64, SpecError> {
    Ok(opt(j, key, ctx, "a non-negative integer", Json::as_u64)?.unwrap_or(default))
}

/// An optional field: `None` when absent or null, an error naming `key`
/// when present but not `what` (read by `conv`).
pub(crate) fn opt<'a, T>(
    j: &'a Json,
    key: &str,
    ctx: &str,
    what: &str,
    conv: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, SpecError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => conv(v)
            .map(Some)
            .ok_or_else(|| parse_err(format!("{ctx}: field {key:?} must be {what}"))),
    }
}

pub(crate) fn req_arr<'a>(j: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], SpecError> {
    req(j, key, ctx)?
        .as_array()
        .ok_or_else(|| parse_err(format!("{ctx}: field {key:?} must be an array")))
}

pub(crate) fn str_list(j: &Json, key: &str, ctx: &str) -> Result<Vec<String>, SpecError> {
    req_arr(j, key, ctx)?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_owned)
                .ok_or_else(|| parse_err(format!("{ctx}: {key:?} entries must be strings")))
        })
        .collect()
}

/// Rejects `j` unless it is an object whose every key is in `known`: a
/// mistyped key is an error, never silently ignored.
pub(crate) fn check_keys(j: &Json, ctx: &str, known: &[&str]) -> Result<(), SpecError> {
    let Json::Obj(members) = j else {
        return Err(parse_err(format!("{ctx}: must be an object")));
    };
    match members.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(parse_err(format!(
            "{ctx}: unknown field {k:?} (known fields: {})",
            known.join(", ")
        ))),
        None => Ok(()),
    }
}

/// Top-level scenario keys the parser understands.
const TOP_LEVEL_KEYS: [&str; 11] = [
    "seed",
    "path",
    "spans",
    "host_cache",
    "timeline",
    "hosts",
    "vms",
    "files",
    "workload",
    "workloads",
    "faults",
];

fn host_cache_from_json(j: &Json) -> Result<HostCacheSpec, SpecError> {
    let ctx = "host_cache";
    check_keys(j, ctx, &["mode", "capacity_mb", "chunk_kb"])?;
    let mode = match req_str(j, "mode", ctx)?.as_str() {
        "lru" => HostCacheMode::Lru,
        "cas" => HostCacheMode::Cas,
        other => {
            return Err(parse_err(format!(
                "host_cache: unknown mode {other:?} (known modes: lru, cas)"
            )))
        }
    };
    let size = |key| opt(j, key, ctx, "a non-negative integer", Json::as_u64);
    Ok(HostCacheSpec {
        mode,
        capacity_mb: size("capacity_mb")?,
        chunk_kb: size("chunk_kb")?,
    })
}

fn timeline_from_json(j: &Json) -> Result<TimelineSpec, SpecError> {
    check_keys(j, "timeline", &["sample_ms"])?;
    Ok(TimelineSpec {
        sample_ms: req_u64(j, "sample_ms", "timeline")?,
    })
}

fn host_from_json(h: &Json) -> Result<HostSpec, SpecError> {
    let ctx = "host";
    check_keys(h, ctx, &["name", "cores", "ghz"])?;
    Ok(HostSpec {
        name: req_str(h, "name", ctx)?,
        cores: opt_u64(h, "cores", 4, ctx)? as usize,
        ghz: opt(h, "ghz", ctx, "a number", Json::as_f64)?.unwrap_or(2.0),
    })
}

fn vm_from_json(v: &Json) -> Result<VmSpec, SpecError> {
    let ctx = "vm";
    check_keys(v, ctx, &["name", "host", "role", "busy"])?;
    let role = match req_str(v, "role", ctx)?.as_str() {
        "client" => VmRole::Client,
        "datanode" => VmRole::Datanode,
        "lookbusy" => VmRole::Lookbusy,
        "peer" => VmRole::Peer,
        other => return Err(parse_err(format!("vm: unknown role {other:?}"))),
    };
    Ok(VmSpec {
        name: req_str(v, "name", ctx)?,
        host: req_str(v, "host", ctx)?,
        role,
        busy: opt(v, "busy", ctx, "a number", Json::as_f64)?,
    })
}

fn file_from_json(f: &Json) -> Result<FileSpec, SpecError> {
    let ctx = "file";
    check_keys(f, ctx, &["path", "mb", "placement", "replicate"])?;
    Ok(FileSpec {
        path: req_str(f, "path", ctx)?,
        mb: req_u64(f, "mb", ctx)?,
        placement: str_list(f, "placement", ctx)?,
        replicate: opt(f, "replicate", ctx, "a boolean", Json::as_bool)?.unwrap_or(false),
    })
}

/// Parses one workload object: an entry of `"workloads"`, or the
/// singular `"workload"`, which is shorthand for a one-entry array.
fn workload_from_json(w: &Json) -> Result<WorkloadBinding, SpecError> {
    let ctx = "workload";
    let (kind, keys): (WorkloadSpec, &[&str]) = match req_str(w, "kind", ctx)?.as_str() {
        "dfsio-read" => (
            WorkloadSpec::DfsioRead {
                files: str_list(w, "files", ctx)?,
                buffer_kb: opt_u64(w, "buffer_kb", 1024, ctx)?,
            },
            &["files", "buffer_kb"],
        ),
        "dfsio-write" => (
            WorkloadSpec::DfsioWrite {
                files: str_list(w, "files", ctx)?,
                mb: req_u64(w, "mb", ctx)?,
            },
            &["files", "mb"],
        ),
        "reader" => (
            WorkloadSpec::Reader {
                path: req_str(w, "path", ctx)?,
                request_kb: req_u64(w, "request_kb", ctx)?,
            },
            &["path", "request_kb"],
        ),
        "netperf" => (
            WorkloadSpec::Netperf {
                request_kb: req_u64(w, "request_kb", ctx)?,
                duration_ms: req_u64(w, "duration_ms", ctx)?,
            },
            &["request_kb", "duration_ms"],
        ),
        other => return Err(parse_err(format!("workload: unknown kind {other:?}"))),
    };
    check_keys(w, ctx, &[&["kind", "client", "start_ms"], keys].concat())?;
    Ok(WorkloadBinding {
        client: opt(w, "client", ctx, "a string", Json::as_str)?.map(str::to_owned),
        start_ms: opt_u64(w, "start_ms", 0, ctx)?,
        kind,
    })
}

/// Rejects duplicate host names, VM names or file paths — a duplicate
/// would silently shadow its namesake in every later by-name lookup.
fn check_unique_names(
    hosts: &[HostSpec],
    vms: &[VmSpec],
    files: &[FileSpec],
) -> Result<(), SpecError> {
    let mut seen = std::collections::HashSet::new();
    for h in hosts {
        if !seen.insert(h.name.as_str()) {
            return Err(SpecError::Invalid(format!(
                "duplicate host name {:?}",
                h.name
            )));
        }
    }
    seen.clear();
    for v in vms {
        if !seen.insert(v.name.as_str()) {
            return Err(SpecError::Invalid(format!(
                "duplicate VM name {:?}",
                v.name
            )));
        }
    }
    seen.clear();
    for f in files {
        if !seen.insert(f.path.as_str()) {
            return Err(SpecError::Invalid(format!(
                "duplicate file path {:?}",
                f.path
            )));
        }
    }
    Ok(())
}

/// Rejects numbers the deployment cannot run: core counts outside
/// `1..=MAX_HOST_CORES`, non-finite or non-positive clocks, lookbusy duty
/// cycles outside (0, 1], empty dfsio file lists and zero-length netperf
/// windows (sizes are [`check_workload_sizes`]'s and [`deploy_costs`]'s).
fn check_ranges(
    hosts: &[HostSpec],
    vms: &[VmSpec],
    workloads: &[WorkloadBinding],
) -> Result<(), SpecError> {
    for h in hosts {
        if !(1..=MAX_HOST_CORES).contains(&h.cores) {
            return Err(SpecError::Invalid(format!(
                "host {:?}: cores must be in 1..={MAX_HOST_CORES}, got {}",
                h.name, h.cores
            )));
        }
        if !(h.ghz.is_finite() && h.ghz > 0.0) {
            return Err(SpecError::Invalid(format!(
                "host {:?}: ghz must be finite and positive, got {}",
                h.name, h.ghz
            )));
        }
    }
    for v in vms {
        if let (VmRole::Lookbusy, Some(busy)) = (&v.role, v.busy) {
            if !(busy > 0.0 && busy <= 1.0) {
                return Err(SpecError::Invalid(format!(
                    "vm {:?}: busy must be in (0, 1], got {busy}",
                    v.name
                )));
            }
        }
    }
    for b in workloads {
        let bad = match &b.kind {
            WorkloadSpec::DfsioRead { files, .. } if files.is_empty() => {
                "dfsio-read workload: files must not be empty"
            }
            WorkloadSpec::DfsioWrite { files, .. } if files.is_empty() => {
                "dfsio-write workload: files must not be empty"
            }
            WorkloadSpec::Netperf { duration_ms: 0, .. } => {
                "netperf workload: duration_ms must be at least 1"
            }
            _ => continue,
        };
        return Err(SpecError::Invalid(bad.to_owned()));
    }
    Ok(())
}

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// `n` units in bytes, or why not: zero and `u64` overflow are refused.
fn size_bytes(n: u64, unit: u64) -> Result<u64, &'static str> {
    match n.checked_mul(unit) {
        Some(0) => Err("must be at least 1"),
        Some(b) => Ok(b),
        None => Err("overflows u64 bytes"),
    }
}

fn invalid_size(what: &str, why: &str) -> SpecError {
    SpecError::Invalid(format!("{what} {why}"))
}

/// Rejects workload sizes the deployment cannot run: dfsio `buffer_kb`
/// and `mb` and reader and netperf `request_kb` must be at least 1 and
/// convert to bytes without overflowing `u64`; unchecked, a zero or a
/// wrapped size panicked inside the model or moved nothing. File and
/// host-cache sizes are [`deploy_costs`]'s.
fn check_workload_sizes(workloads: &[WorkloadBinding]) -> Result<(), SpecError> {
    for b in workloads {
        let (field, n, unit) = match b.kind {
            WorkloadSpec::DfsioRead { buffer_kb, .. } => ("buffer_kb", buffer_kb, KIB),
            WorkloadSpec::DfsioWrite { mb, .. } => ("mb", mb, MIB),
            WorkloadSpec::Reader { request_kb, .. } | WorkloadSpec::Netperf { request_kb, .. } => {
                ("request_kb", request_kb, KIB)
            }
        };
        let kind = b.kind.kind_str();
        size_bytes(n, unit)
            .map_err(|why| invalid_size(&format!("{kind} workload: {field}"), why))?;
    }
    Ok(())
}

/// Rejects the file and host-cache sizes a deployment cannot build and
/// returns `costs` with the `host_cache` overrides applied: the costs
/// [`Deployment::build`] makes its cluster from. Every file's `mb` and
/// the `capacity_mb` and `chunk_kb` overrides must be at least 1 and
/// convert to bytes without overflowing `u64`, and the cache chunk must
/// fit both the guest page cache and the host store. Both
/// [`ScenarioSpec::validate`] (with `Costs::default()`) and
/// [`Deployment::build`] (with the plan's costs) run it, so a plan built
/// through the public API meets the same rules as a scenario.
pub(crate) fn deploy_costs(
    files: &[FileSpec],
    cache: &HostCacheSpec,
    mut costs: Costs,
) -> Result<Costs, SpecError> {
    for f in files {
        size_bytes(f.mb, MIB).map_err(|why| invalid_size(&format!("file {}: mb", f.path), why))?;
    }
    if let Some(mb) = cache.capacity_mb {
        costs.host_cache_bytes =
            size_bytes(mb, MIB).map_err(|why| invalid_size("host_cache capacity_mb", why))?;
    }
    if let Some(kb) = cache.chunk_kb {
        costs.cache_chunk_bytes =
            size_bytes(kb, KIB).map_err(|why| invalid_size("host_cache chunk_kb", why))?;
    }
    let (chunk, capacity, guest) = (
        costs.cache_chunk_bytes,
        costs.host_cache_bytes,
        costs.guest_cache_bytes,
    );
    if chunk > capacity.min(guest) {
        return Err(SpecError::Invalid(format!(
            "host_cache chunk ({chunk} B) must fit the host ({capacity} B) \
             and guest ({guest} B) caches"
        )));
    }
    Ok(costs)
}

/// Rejects a millisecond value whose nanoseconds overflow simulated time
/// (`u64` ns, about 584 years). `None` stands for a millisecond sum that
/// already overflowed.
pub(crate) fn check_ms(what: &str, ms: Option<u64>) -> Result<(), SpecError> {
    match ms.and_then(|ms| ms.checked_mul(1_000_000)) {
        Some(_) => Ok(()),
        None => Err(SpecError::Invalid(format!(
            "{what} overflows simulated time (at most {} ms)",
            u64::MAX / 1_000_000
        ))),
    }
}

/// Rejects times the engine cannot represent: a workload's `start_ms`,
/// its netperf window end (`start_ms + duration_ms`) and the timeline's
/// `sample_ms` (fault times are [`check_faults`]'s). Unchecked, such a
/// value wraps in a release build and panics in a debug build.
fn check_times(
    workloads: &[WorkloadBinding],
    timeline: Option<&TimelineSpec>,
) -> Result<(), SpecError> {
    for b in workloads {
        check_ms("workload start_ms", Some(b.start_ms))?;
        if let WorkloadSpec::Netperf { duration_ms, .. } = b.kind {
            check_ms(
                "netperf start_ms + duration_ms",
                b.start_ms.checked_add(duration_ms),
            )?;
        }
    }
    if let Some(t) = timeline {
        check_ms("timeline sample_ms", Some(t.sample_ms))?;
    }
    Ok(())
}

/// Descending sort by busy time that tolerates NaN (a NaN would have
/// panicked the old `partial_cmp().expect()` formulation; `total_cmp`
/// orders it deterministically instead).
fn sort_busy_desc(v: &mut [(String, f64)]) {
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
}

impl ScenarioSpec {
    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] on malformed JSON, a missing or mistyped
    /// field, an unknown key in any object or an unknown spelling of a
    /// path, role or kind; otherwise whatever [`ScenarioSpec::build`]
    /// rejects.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let j = Json::parse(json).map_err(|e| parse_err(e.to_string()))?;
        let ctx = "scenario";
        check_keys(&j, ctx, &TOP_LEVEL_KEYS)?;
        let list = |key| Ok(opt(&j, key, ctx, "an array", Json::as_array)?.unwrap_or_default());
        let workloads = match (j.get("workload"), j.get("workloads")) {
            (Some(_), Some(_)) => {
                return Err(parse_err(
                    "scenario: give either \"workload\" or \"workloads\", not both",
                ))
            }
            (Some(w), None) => vec![workload_from_json(w)?],
            (None, Some(_)) => req_arr(&j, "workloads", ctx)?
                .iter()
                .map(workload_from_json)
                .collect::<Result<_, SpecError>>()?,
            (None, None) => return Err(parse_err("scenario: missing field \"workload\"")),
        };
        let path = req_str(&j, "path", ctx)?;
        let spec = ScenarioSpec {
            seed: opt_u64(&j, "seed", 42, ctx)?,
            path: ReadPath::parse(&path)
                .ok_or_else(|| parse_err(format!("scenario: unknown path {path:?}")))?,
            hosts: req_arr(&j, "hosts", ctx)?
                .iter()
                .map(host_from_json)
                .collect::<Result<_, SpecError>>()?,
            vms: req_arr(&j, "vms", ctx)?
                .iter()
                .map(vm_from_json)
                .collect::<Result<_, SpecError>>()?,
            files: list("files")?
                .iter()
                .map(file_from_json)
                .collect::<Result<_, SpecError>>()?,
            workloads,
            faults: list("faults")?
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<_, SpecError>>()?,
            spans: opt(&j, "spans", ctx, "a boolean", Json::as_bool)?.unwrap_or(false),
            host_cache: match j.get("host_cache") {
                None | Some(Json::Null) => HostCacheSpec::default(),
                Some(hc) => host_cache_from_json(hc)?,
            },
            timeline: match j.get("timeline") {
                None | Some(Json::Null) => None,
                Some(tl) => Some(timeline_from_json(tl)?),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates, builds and runs the scenario, returning the report.
    ///
    /// # Errors
    ///
    /// Whatever [`ScenarioSpec::build`] rejects — checked again here,
    /// since the pub fields may have been edited since — or
    /// [`SpecError::Invalid`] when the workload does not finish.
    pub fn run(&self) -> Result<ScenarioReport, SpecError> {
        self.validate()?;
        let mut d = self.deploy()?;
        let bound = self.bind(&d)?;
        let armed = self.arm(&mut d, &bound)?;
        if !run_jobs(&mut d.w, SimDuration::from_secs(3_000)) {
            return Err(SpecError::Invalid("workload did not finish".to_owned()));
        }
        self.aggregate(&mut d, &armed)
    }

    /// Resolves the validated topology into a deployment.
    fn deploy(&self) -> Result<Deployment, SpecError> {
        Deployment::build(DeployPlan {
            seed: self.seed,
            path: self.path,
            spans: self.spans,
            costs: Costs::default(),
            hosts: self.hosts.clone(),
            vms: self.vms.clone(),
            files: self.files.clone(),
            host_cache: self.host_cache.clone(),
            timeline_sample_ms: self.timeline.as_ref().map(|t| t.sample_ms),
        })
    }

    /// Binds every workload to its client VM before creating anything.
    fn bind(&self, d: &Deployment) -> Result<Vec<(VmId, String, WorkloadBinding)>, SpecError> {
        self.workloads
            .iter()
            .map(|b| {
                let vm = d.client_vm(b.client.as_deref())?;
                let name = match &b.client {
                    Some(n) => n.clone(),
                    None => d.clients[0].0.clone(),
                };
                Ok((vm, name, b.clone()))
            })
            .collect()
    }

    /// Arms every workload, then the background load and the fault plan:
    /// each job registers a completion token so `run_jobs` can stop once
    /// all of them finish.
    fn arm(
        &self,
        d: &mut Deployment,
        bound: &[(VmId, String, WorkloadBinding)],
    ) -> Result<Vec<Armed>, SpecError> {
        let mut armed: Vec<Armed> = Vec::new();
        for (vm, cname, b) in bound {
            let start_delay = SimDuration::from_millis(b.start_ms);
            let job = d.w.register_job(b.kind.kind_str());
            let actor = match &b.kind {
                WorkloadSpec::DfsioRead { files, buffer_kb } => {
                    let file_bytes = file_size(&d.w, &files[0]);
                    let cfg = DfsioConfig {
                        buffer_bytes: buffer_kb << 10,
                    };
                    let client = d.add_client_on(*vm);
                    let app = TestDfsio::new(
                        client,
                        *vm,
                        DfsioMode::Read,
                        files.clone(),
                        file_bytes,
                        cfg,
                    );
                    d.w.add_actor("dfsio", app.with_job(job))
                }
                WorkloadSpec::DfsioWrite { files, mb } => {
                    let client = d.add_client_on(*vm);
                    let cfg = DfsioConfig::default();
                    let app =
                        TestDfsio::new(client, *vm, DfsioMode::Write, files.clone(), mb << 20, cfg);
                    d.w.add_actor("dfsio", app.with_job(job))
                }
                WorkloadSpec::Reader { path, request_kb } => {
                    let total = file_size(&d.w, path);
                    let client = d.add_client_on(*vm);
                    let mode = ReaderMode::Dfs {
                        client,
                        path: path.clone(),
                    };
                    let rdr = JavaReader::new(*vm, mode, request_kb << 10, total);
                    d.w.add_actor("reader", rdr.with_job(job))
                }
                WorkloadSpec::Netperf {
                    request_kb,
                    duration_ms,
                } => {
                    let server_vm = d.datanode_vms[0].1;
                    let measure_from = d.w.now() + start_delay;
                    // netperf never finishes on its own: bound its
                    // measurement window with a completion timer
                    let window = start_delay + SimDuration::from_millis(*duration_ms);
                    let np = deploy_netperf_with_job(
                        &mut d.w,
                        *vm,
                        server_vm,
                        request_kb << 10,
                        measure_from,
                        Some(job),
                    );
                    complete_job_after(&mut d.w, job, window);
                    np
                }
            };
            launch(&mut d.w, actor, start_delay);
            armed.push(Armed {
                kind: b.kind.kind_str(),
                client: cname.clone(),
                start_ms: b.start_ms,
                job,
                netperf_s: match &b.kind {
                    WorkloadSpec::Netperf { duration_ms, .. } => Some(*duration_ms as f64 / 1e3),
                    _ => None,
                },
            });
        }
        d.start_background();
        d.arm_faults(&self.faults)?;
        Ok(armed)
    }

    /// Aggregates a finished run from the job table. With two or more
    /// workloads the per-job figures land in `per_workload`; a single
    /// workload's row would only repeat the headline, so it is dropped.
    fn aggregate(&self, d: &mut Deployment, armed: &[Armed]) -> Result<ScenarioReport, SpecError> {
        let mut first_start: Option<SimTime> = None;
        let mut last_done: Option<SimTime> = None;
        let mut total_bytes = 0u64;
        let mut total_ops = 0u64;
        let mut per_workload = Vec::new();
        for a in armed {
            let started = d.w.jobs.started_at(a.job).expect("job started");
            let done = d.w.jobs.completed_at(a.job).expect("job completed");
            first_start = Some(first_start.map_or(started, |t| t.min(started)));
            last_done = Some(last_done.map_or(done, |t| t.max(done)));
            let job_bytes = d.w.jobs.bytes(a.job);
            let job_ops = d.w.jobs.ops(a.job);
            total_bytes += job_bytes;
            total_ops += job_ops;
            // netperf measures over its fixed window, not token
            // round-trip times
            let secs = a
                .netperf_s
                .unwrap_or_else(|| done.since(started).as_secs_f64());
            let rate = if a.netperf_s.is_some() {
                job_ops as f64 / secs
            } else {
                job_bytes as f64 / 1e6 / secs
            };
            per_workload.push(WorkloadReport {
                kind: a.kind.to_owned(),
                client: a.client.clone(),
                start_ms: a.start_ms,
                elapsed_s: secs,
                bytes: job_bytes,
                rate,
            });
        }
        if per_workload.len() == 1 {
            per_workload.clear();
        }
        let elapsed_s = last_done
            .expect("at least one job")
            .since(first_start.expect("at least one job"))
            .as_secs_f64();
        let rate = if total_bytes > 0 {
            total_bytes as f64 / 1e6 / elapsed_s
        } else {
            total_ops as f64 / elapsed_s
        };

        Ok(self.finish_report(d, elapsed_s, total_bytes, rate, per_workload))
    }

    /// Collects the whole-world tail of a report: spans, CPU-category
    /// and per-thread busy rollups, and the fault summary.
    fn finish_report(
        &self,
        d: &mut Deployment,
        elapsed_s: f64,
        bytes: u64,
        rate: f64,
        per_workload: Vec<WorkloadReport>,
    ) -> ScenarioReport {
        let w = &mut d.w;
        let spans = if self.spans {
            Some(SpanSummary::collect(w))
        } else {
            None
        };

        let mut cpu_by_cat: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for t in 0..w.acct.len() {
            let host = w.thread_host(ThreadId::from_raw(t as u32));
            let ghz = w.host_ghz(host);
            for cat in CpuCategory::ALL {
                if cat == CpuCategory::Lookbusy {
                    continue;
                }
                let cycles = w.acct.cycles(t, cat);
                if cycles > 0.0 {
                    *cpu_by_cat.entry(cat.figure_bucket()).or_insert(0.0) += cycles / ghz / 1e6;
                }
            }
        }
        let cpu_by_category_ms: Vec<(String, f64)> = cpu_by_cat
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();

        let mut thread_busy_ms: Vec<(String, f64)> = (0..w.acct.len())
            .map(|t| {
                (
                    w.thread_name(ThreadId::from_raw(t as u32)).to_owned(),
                    w.acct.busy_ns(t) as f64 / 1e6,
                )
            })
            .filter(|(_, b)| *b > 0.0)
            .collect();
        sort_busy_desc(&mut thread_busy_ms);

        let host_cache = if self.host_cache.mode == HostCacheMode::Cas {
            w.ext.get::<Cluster>().map(HostCacheReport::collect)
        } else {
            None
        };

        let timeline = if self.timeline.is_some() {
            Some(TimelineSummary::collect(w))
        } else {
            None
        };

        ScenarioReport {
            elapsed_s,
            bytes,
            rate,
            thread_busy_ms,
            cpu_by_category_ms,
            per_workload,
            faults: if self.faults.is_empty() {
                None
            } else {
                Some(collect_fault_report(w))
            },
            spans,
            host_cache,
            timeline,
        }
    }
}

/// Sends `Start` now (zero delay) or after `delay`.
fn launch(w: &mut World, actor: ActorId, delay: SimDuration) {
    if delay == SimDuration::ZERO {
        w.send_now(actor, Start);
    } else {
        w.send_after(actor, Start, delay);
    }
}

/// The populated size of an HDFS file that [`ScenarioSpec::validate`]
/// resolved. A dfsio-read job reads every input at the size of its
/// first, matching TestDFSIO's uniform file size.
fn file_size(w: &World, path: &str) -> u64 {
    let meta = w.ext.get::<HdfsMeta>().expect("meta");
    meta.file(path).expect("validated read target").size()
}

impl ScenarioSpec {
    /// An empty scenario with the defaults (seed 42, vanilla path,
    /// nothing else), to be filled in by the fluent methods below — the
    /// programmatic equivalent of the scenario JSON, ending in
    /// [`ScenarioSpec::build`]:
    ///
    /// ```rust
    /// use vread_bench::{ReadPath, ScenarioSpec};
    /// use vread_bench::spec::WorkloadSpec;
    ///
    /// let spec = ScenarioSpec::builder()
    ///     .path(ReadPath::VreadRdma)
    ///     .host("h1", 4, 2.0)
    ///     .host("h2", 4, 2.0)
    ///     .client("client", "h1")
    ///     .datanode("dn1", "h1")
    ///     .datanode("dn2", "h2")
    ///     .replicated_file("/d", 16, &["dn1", "dn2"])
    ///     .workload(WorkloadSpec::Reader {
    ///         path: "/d".to_owned(),
    ///         request_kb: 1024,
    ///     })
    ///     .build()?;
    /// assert_eq!(spec.files[0].placement.len(), 2);
    /// # Ok::<(), vread_bench::SpecError>(())
    /// ```
    pub fn builder() -> ScenarioSpec {
        ScenarioSpec {
            seed: 42,
            path: ReadPath::Vanilla,
            hosts: Vec::new(),
            vms: Vec::new(),
            files: Vec::new(),
            workloads: Vec::new(),
            faults: Vec::new(),
            spans: false,
            host_cache: HostCacheSpec::default(),
            timeline: None,
        }
    }

    /// Sets the read path under test (default vanilla).
    pub fn path(mut self, path: ReadPath) -> Self {
        self.path = path;
        self
    }

    /// Adds a host.
    pub fn host(mut self, name: &str, cores: usize, ghz: f64) -> Self {
        self.hosts.push(HostSpec {
            name: name.to_owned(),
            cores,
            ghz,
        });
        self
    }

    /// Adds a client VM on `host`.
    pub fn client(self, name: &str, host: &str) -> Self {
        self.vm(name, host, VmRole::Client, None)
    }

    /// Adds a datanode VM on `host`.
    pub fn datanode(self, name: &str, host: &str) -> Self {
        self.vm(name, host, VmRole::Datanode, None)
    }

    /// Adds a VM with an explicit role.
    pub fn vm(mut self, name: &str, host: &str, role: VmRole, busy: Option<f64>) -> Self {
        self.vms.push(VmSpec {
            name: name.to_owned(),
            host: host.to_owned(),
            role,
            busy,
        });
        self
    }

    /// Adds a pre-populated file, blocks round-robined over `placement`.
    pub fn file(mut self, path: &str, mb: u64, placement: &[&str]) -> Self {
        self.files.push(FileSpec {
            path: path.to_owned(),
            mb,
            placement: placement.iter().map(|s| (*s).to_owned()).collect(),
            replicate: false,
        });
        self
    }

    /// Adds a pre-populated file with every block replicated on all
    /// `placement` datanodes.
    pub fn replicated_file(mut self, path: &str, mb: u64, placement: &[&str]) -> Self {
        self.files.push(FileSpec {
            path: path.to_owned(),
            mb,
            placement: placement.iter().map(|s| (*s).to_owned()).collect(),
            replicate: true,
        });
        self
    }

    /// Adds a workload bound to the first client VM at time zero (at
    /// least one workload is required).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workloads.push(WorkloadBinding::new(workload));
        self
    }

    /// Plans a fault at `at_ms` simulated milliseconds.
    pub fn fault(mut self, at_ms: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { at_ms, kind });
        self
    }

    /// Enables the span flight recorder (default off).
    pub fn spans(mut self, spans: bool) -> Self {
        self.spans = spans;
        self
    }

    /// Configures the host block store (default: per-host LRU with the
    /// cost model's capacity).
    pub fn host_cache(mut self, cache: HostCacheSpec) -> Self {
        self.host_cache = cache;
        self
    }

    /// Validates the assembled scenario and returns it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the shape is wrong (no workload, no
    /// client or datanode VM, duplicate host/VM/file names, an empty
    /// placement, a workload bound to a non-client VM, a `vm-crash`
    /// against a non-datanode, out-of-range numbers such as a zero size,
    /// a size whose bytes overflow `u64`, a cache chunk larger than a
    /// cache or a fault factor outside [1, 1e5], or a time past
    /// simulated time); [`SpecError::Unresolved`] when a host, datanode, file,
    /// workload client or fault target name refers to nothing.
    pub fn build(self) -> Result<ScenarioSpec, SpecError> {
        self.validate()?;
        Ok(self)
    }

    /// Checks every scenario rule: this and the helpers it calls are the
    /// one place each rule is written. `from_json`,
    /// [`ScenarioSpec::build`] and [`ScenarioSpec::run`] all call it, so
    /// a spec edited through its pub fields after construction is still
    /// checked before it runs.
    fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(SpecError::Invalid("no workload".to_owned()));
        }
        check_unique_names(&self.hosts, &self.vms, &self.files)?;
        check_ranges(&self.hosts, &self.vms, &self.workloads)?;
        check_workload_sizes(&self.workloads)?;
        deploy_costs(&self.files, &self.host_cache, Costs::default())?;
        check_times(&self.workloads, self.timeline.as_ref())?;
        check_faults(&self.faults)?;
        let host_names: std::collections::HashSet<&str> =
            self.hosts.iter().map(|h| h.name.as_str()).collect();
        let mut datanodes = std::collections::HashSet::new();
        let mut client_names = std::collections::HashSet::new();
        for v in &self.vms {
            if !host_names.contains(v.host.as_str()) {
                return Err(SpecError::Unresolved(format!("host {}", v.host)));
            }
            match v.role {
                VmRole::Client => {
                    client_names.insert(v.name.as_str());
                }
                VmRole::Datanode => {
                    datanodes.insert(v.name.as_str());
                }
                VmRole::Lookbusy | VmRole::Peer => {}
            }
        }
        if client_names.is_empty() {
            return Err(SpecError::Invalid("no client VM".to_owned()));
        }
        if datanodes.is_empty() {
            return Err(SpecError::Invalid("no datanode VM".to_owned()));
        }
        for f in &self.files {
            if f.placement.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "file {} has no placement",
                    f.path
                )));
            }
            for dn in &f.placement {
                if !datanodes.contains(dn.as_str()) {
                    return Err(SpecError::Unresolved(format!("datanode {dn}")));
                }
            }
        }
        let file_names: std::collections::HashSet<&str> =
            self.files.iter().map(|f| f.path.as_str()).collect();
        let vm_names: std::collections::HashSet<&str> =
            self.vms.iter().map(|v| v.name.as_str()).collect();
        for b in &self.workloads {
            if let Some(c) = &b.client {
                if !vm_names.contains(c.as_str()) {
                    return Err(SpecError::Unresolved(format!("client VM {c}")));
                }
                if !client_names.contains(c.as_str()) {
                    return Err(SpecError::Invalid(format!(
                        "workload client {c} is not a client VM"
                    )));
                }
            }
            let read_targets: Vec<&str> = match &b.kind {
                WorkloadSpec::DfsioRead { files, .. } => files.iter().map(String::as_str).collect(),
                WorkloadSpec::Reader { path, .. } => vec![path.as_str()],
                _ => Vec::new(),
            };
            for f in read_targets {
                if !file_names.contains(f) {
                    return Err(SpecError::Unresolved(format!("file {f}")));
                }
            }
        }
        for f in &self.faults {
            match &f.kind {
                FaultKind::DaemonCrash { host }
                | FaultKind::DaemonRestart { host }
                | FaultKind::LinkFlap { host, .. }
                | FaultKind::DiskSlow { host, .. }
                | FaultKind::CacheDrop { host } => {
                    if !host_names.contains(host.as_str()) {
                        return Err(SpecError::Unresolved(format!("fault host {host}")));
                    }
                }
                FaultKind::VhostStall { vm, .. } | FaultKind::VmCrash { vm } => {
                    if !vm_names.contains(vm.as_str()) {
                        return Err(SpecError::Unresolved(format!("fault vm {vm}")));
                    }
                    if matches!(f.kind, FaultKind::VmCrash { .. })
                        && !datanodes.contains(vm.as_str())
                    {
                        return Err(SpecError::Invalid(format!(
                            "vm-crash target {vm} is not a datanode VM"
                        )));
                    }
                }
            }
        }
        if self.timeline.as_ref().is_some_and(|t| t.sample_ms == 0) {
            return Err(SpecError::Invalid(
                "timeline sample_ms must be positive".to_owned(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "path": "vread-rdma",
        "hosts": [
            { "name": "h1", "ghz": 3.2 },
            { "name": "h2" }
        ],
        "vms": [
            { "name": "client", "host": "h1", "role": "client" },
            { "name": "dn1", "host": "h1", "role": "datanode" },
            { "name": "dn2", "host": "h2", "role": "datanode" },
            { "name": "bg", "host": "h1", "role": "lookbusy", "busy": 0.5 }
        ],
        "files": [ { "path": "/d", "mb": 64, "placement": ["dn1", "dn2"] } ],
        "workload": { "kind": "dfsio-read", "files": ["/d"] }
    }"#;

    #[test]
    fn spec_roundtrip_and_run() {
        let spec = ScenarioSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.hosts[1].cores, 4, "defaults fill in");
        let report = spec.run().unwrap();
        assert_eq!(report.bytes, 64 << 20);
        assert!(report.rate > 10.0, "rate {}", report.rate);
        assert!(!report.thread_busy_ms.is_empty());
        assert!(
            report
                .cpu_by_category_ms
                .iter()
                .any(|(k, _)| k == "data copy(vRead-buffer)"),
            "vread run shows ring copies in the breakdown"
        );
        // JSON-serializable report; single-workload reports carry no
        // per_workload block
        let j = report.to_json();
        assert!(j.contains("elapsed_s"));
        assert!(!j.contains("per_workload"));
    }

    #[test]
    fn unresolved_references_error() {
        let bad = SPEC.replace("\"host\": \"h1\"", "\"host\": \"nope\"");
        assert!(matches!(
            ScenarioSpec::from_json(&bad),
            Err(SpecError::Unresolved(_))
        ));
    }

    #[test]
    fn unknown_path_errors() {
        // with the typed ReadPath a bad spelling can't even construct a
        // spec — it dies at parse time rather than inside run()
        let bad = SPEC.replace("vread-rdma", "warp-drive");
        assert!(matches!(
            ScenarioSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn unknown_top_level_keys_are_rejected() {
        let bad =
            SPEC.replace("\"seed\": 7,", "")
                .replacen("\"path\"", "\"wokload\": [], \"path\"", 1);
        let err = ScenarioSpec::from_json(&bad).unwrap_err();
        match err {
            SpecError::Parse(msg) => {
                assert!(msg.contains("wokload"), "names the offending key: {msg}")
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_are_rejected_in_both_construction_paths() {
        let dup_vm = SPEC.replace(
            "{ \"name\": \"dn2\", \"host\": \"h2\", \"role\": \"datanode\" }",
            "{ \"name\": \"dn1\", \"host\": \"h2\", \"role\": \"datanode\" }",
        );
        assert!(matches!(
            ScenarioSpec::from_json(&dup_vm),
            Err(SpecError::Invalid(_))
        ));
        let dup_host = SPEC.replace("\"name\": \"h2\"", "\"name\": \"h1\"");
        assert!(matches!(
            ScenarioSpec::from_json(&dup_host),
            Err(SpecError::Invalid(_))
        ));

        let builder = || {
            ScenarioSpec::builder()
                .host("h1", 4, 2.0)
                .client("client", "h1")
                .datanode("dn1", "h1")
                .file("/d", 8, &["dn1"])
                .workload(WorkloadSpec::Reader {
                    path: "/d".to_owned(),
                    request_kb: 1024,
                })
        };
        assert!(builder().build().is_ok());
        assert!(matches!(
            builder().datanode("dn1", "h1").build(),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            builder().host("h1", 4, 2.0).build(),
            Err(SpecError::Invalid(_))
        ));
        assert!(matches!(
            builder().file("/d", 8, &["dn1"]).build(),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn out_of_range_numbers_are_spec_errors() {
        // (cores, ghz, busy, workload) for one host, one lookbusy VM and
        // one workload; each row breaks exactly one of them.
        const READER: &str = r#"{ "kind": "reader", "path": "/d", "request_kb": 64 }"#;
        const VALID: [&str; 4] = ["4", "2.0", "0.5", READER];
        let json = |v: [&str; 4]| {
            format!(
                r#"{{
                    "path": "vanilla",
                    "hosts": [ {{ "name": "h1", "cores": {}, "ghz": {} }} ],
                    "vms": [
                        {{ "name": "client", "host": "h1", "role": "client" }},
                        {{ "name": "dn1", "host": "h1", "role": "datanode" }},
                        {{ "name": "bg", "host": "h1", "role": "lookbusy", "busy": {} }}
                    ],
                    "files": [ {{ "path": "/d", "mb": 4, "placement": ["dn1"] }} ],
                    "workload": {}
                }}"#,
                v[0], v[1], v[2], v[3]
            )
        };
        let built = |v: [&str; 4]| {
            ScenarioSpec::builder()
                .host("h1", v[0].parse().unwrap(), v[1].parse().unwrap())
                .client("client", "h1")
                .datanode("dn1", "h1")
                .vm("bg", "h1", VmRole::Lookbusy, Some(v[2].parse().unwrap()))
                .file("/d", 4, &["dn1"])
                .workload(
                    workload_from_json(&Json::parse(v[3]).unwrap())
                        .unwrap()
                        .kind,
                )
                .build()
        };
        let valid_workloads = [
            READER,
            r#"{ "kind": "dfsio-read", "files": ["/d"], "buffer_kb": 1024 }"#,
            r#"{ "kind": "dfsio-write", "files": ["/out"], "mb": 4 }"#,
            r#"{ "kind": "netperf", "request_kb": 1, "duration_ms": 10 }"#,
        ];
        for w in valid_workloads {
            let v = [VALID[0], VALID[1], VALID[2], w];
            assert!(ScenarioSpec::from_json(&json(v)).is_ok(), "{w}");
            assert!(built(v).is_ok(), "{w}");
        }
        let rows = [
            (0, "0"),
            (0, "4294967296"),
            (1, "0"),
            (1, "-1"),
            (2, "0"),
            (2, "-1"),
            (2, "1.5"),
            // zero-sized work that used to panic, print NaN or
            // "succeed" having moved nothing
            (3, r#"{ "kind": "reader", "path": "/d", "request_kb": 0 }"#),
            (3, r#"{ "kind": "dfsio-read", "files": [] }"#),
            (
                3,
                r#"{ "kind": "dfsio-read", "files": ["/d"], "buffer_kb": 0 }"#,
            ),
            (3, r#"{ "kind": "dfsio-write", "files": [], "mb": 4 }"#),
            (
                3,
                r#"{ "kind": "dfsio-write", "files": ["/out"], "mb": 0 }"#,
            ),
            (
                3,
                r#"{ "kind": "netperf", "request_kb": 1, "duration_ms": 0 }"#,
            ),
            (
                3,
                r#"{ "kind": "netperf", "request_kb": 0, "duration_ms": 10 }"#,
            ),
            // a window whose nanoseconds overflow simulated time
            (
                3,
                r#"{ "kind": "netperf", "request_kb": 1, "duration_ms": 18446744073710 }"#,
            ),
            // sizes whose bytes wrap u64 (2^54 KiB, 2^44 MiB) to 0: a
            // panic in the reader, "bytes": 0 from dfsio
            (
                3,
                r#"{ "kind": "reader", "path": "/d", "request_kb": 18014398509481984 }"#,
            ),
            (
                3,
                r#"{ "kind": "dfsio-read", "files": ["/d"], "buffer_kb": 18014398509481984 }"#,
            ),
            (
                3,
                r#"{ "kind": "dfsio-write", "files": ["/out"], "mb": 17592186044416 }"#,
            ),
        ];
        for (field, value) in rows {
            let mut v = VALID;
            v[field] = value;
            assert!(
                matches!(
                    ScenarioSpec::from_json(&json(v)),
                    Err(SpecError::Invalid(_))
                ),
                "from_json accepted {v:?}"
            );
            assert!(
                matches!(built(v), Err(SpecError::Invalid(_))),
                "builder accepted {v:?}"
            );
        }
    }

    #[test]
    fn times_that_overflow_simulated_time_are_spec_errors() {
        // 18446744073709 ms is the largest whole-ms count whose
        // nanoseconds fit a u64. Unchecked, a daemon crash planned at
        // 18446744073719 ms wrapped to about 9.4 ms in a release build.
        // A crash's window gets a 2 s tail, whose end must fit too.
        let faults = include_str!("../../../scenarios/faults-example.json");
        let crash = r#""at_ms": 100, "kind": "daemon-crash""#;
        assert!(faults.contains(crash));
        for (at_ms, ok) in [
            (18_446_744_073_719u64, false),
            (18_446_744_071_710, false),
            (18_446_744_071_709, true),
        ] {
            let moved = crash.replace("100", &at_ms.to_string());
            let got = ScenarioSpec::from_json(&faults.replace(crash, &moved));
            assert!(ok == got.is_ok(), "{at_ms}: {got:?}");
            assert!(ok || matches!(got, Err(SpecError::Invalid(_))), "{got:?}");
        }
    }

    #[test]
    fn busy_sort_tolerates_nan() {
        // regression: the old partial_cmp().expect("no NaN") panicked on
        // NaN busy values; total_cmp orders them deterministically
        let mut v = vec![
            ("a".to_owned(), 1.0),
            ("n".to_owned(), f64::NAN),
            ("b".to_owned(), 2.0),
        ];
        sort_busy_desc(&mut v);
        assert_eq!(v[0].0, "n", "NaN sorts above all finite values");
        assert_eq!(v[1].0, "b");
        assert_eq!(v[2].0, "a");
    }

    #[test]
    fn builder_matches_json_parse() {
        let from_json = ScenarioSpec::from_json(SPEC).unwrap();
        let built = ScenarioSpec::builder()
            .path(ReadPath::VreadRdma)
            .host("h1", 4, 3.2)
            .host("h2", 4, 2.0)
            .client("client", "h1")
            .datanode("dn1", "h1")
            .datanode("dn2", "h2")
            .vm("bg", "h1", VmRole::Lookbusy, Some(0.5))
            .file("/d", 64, &["dn1", "dn2"])
            .workload(WorkloadSpec::DfsioRead {
                files: vec!["/d".to_owned()],
                buffer_kb: 1024,
            })
            .build()
            .unwrap();
        assert_eq!(
            built.run().unwrap().to_json(),
            from_json.run().unwrap().to_json(),
            "builder and JSON describe the same deployment"
        );
    }

    /// The valid scenario [`builder_and_json_reject_alike`] edits.
    const BASE: &str = r#"{
        "path": "vanilla",
        "hosts": [ { "name": "h1", "cores": 4, "ghz": 2.0 } ],
        "vms": [
            { "name": "client", "host": "h1", "role": "client" },
            { "name": "dn1", "host": "h1", "role": "datanode" }
        ],
        "files": [ { "path": "/d", "mb": 8, "placement": ["dn1"] } ],
        "workloads": [ { "kind": "reader", "path": "/d", "request_kb": 1024 } ]
    }"#;

    fn read(path: &str) -> WorkloadSpec {
        WorkloadSpec::Reader {
            path: path.to_owned(),
            request_kb: 1024,
        }
    }

    /// [`BASE`] through the builder, its client on `client_host`, its
    /// two VMs in the given roles, and no workload yet.
    fn base_with(client_host: &str, client: VmRole, dn: VmRole) -> ScenarioSpec {
        ScenarioSpec::builder()
            .host("h1", 4, 2.0)
            .vm("client", client_host, client, None)
            .vm("dn1", "h1", dn, None)
            .file("/d", 8, &["dn1"])
    }

    /// [`BASE`] through the builder.
    fn base() -> ScenarioSpec {
        base_with("h1", VmRole::Client, VmRole::Datanode).workload(read("/d"))
    }

    /// [`base`] plus a second reader of `/d` bound to VM `client`.
    fn base_reading_on(client: &str) -> ScenarioSpec {
        let mut spec = base();
        spec.workloads.push(WorkloadBinding {
            client: Some(client.to_owned()),
            start_ms: 0,
            kind: read("/d"),
        });
        spec
    }

    /// `spec` with the telemetry timeline sampling every `sample_ms`.
    fn sampled(spec: ScenarioSpec, sample_ms: u64) -> ScenarioSpec {
        ScenarioSpec {
            timeline: Some(TimelineSpec { sample_ms }),
            ..spec
        }
    }

    #[test]
    fn builder_and_json_reject_alike() {
        const UNRESOLVED: SpecError = SpecError::Unresolved(String::new());
        const INVALID: SpecError = SpecError::Invalid(String::new());
        let swap = |from: &'static str, to: &str| (from, to.to_owned());
        let after = |anchor: &'static str, extra: &str| (anchor, format!("{anchor}, {extra}"));
        let (file, workload) = (r#""placement": ["dn1"] }"#, r#""request_kb": 1024 }"#);
        let fault = |f: &str| {
            swap(
                "\"workloads\"",
                &format!("\"faults\": [ {f} ], \"workloads\""),
            )
        };
        let block = |b: &str| swap("\"path\"", &format!("{b}, \"path\""));
        let cas = |capacity_mb, chunk_kb| HostCacheSpec {
            mode: HostCacheMode::Cas,
            capacity_mb,
            chunk_kb,
        };
        let own = |name: &str| name.to_owned();
        // (JSON edit of BASE, the same edit through the builder, variant)
        let rows = [
            // each kind of dangling reference
            (
                swap(
                    r#""host": "h1", "role": "client""#,
                    r#""host": "h9", "role": "client""#,
                ),
                base_with("h9", VmRole::Client, VmRole::Datanode).workload(read("/d")),
                UNRESOLVED,
            ),
            (
                after(file, r#"{ "path": "/e", "mb": 8, "placement": ["dn9"] }"#),
                base().file("/e", 8, &["dn9"]),
                UNRESOLVED,
            ),
            (
                after(
                    workload,
                    r#"{ "kind": "reader", "path": "/e", "request_kb": 1024 }"#,
                ),
                base().workload(read("/e")),
                UNRESOLVED,
            ),
            (
                after(
                    workload,
                    r#"{ "kind": "dfsio-read", "files": ["/d", "/e"] }"#,
                ),
                base().workload(WorkloadSpec::DfsioRead {
                    files: vec!["/d".to_owned(), "/e".to_owned()],
                    buffer_kb: 1024,
                }),
                UNRESOLVED,
            ),
            (
                after(
                    workload,
                    r#"{ "kind": "reader", "path": "/d", "request_kb": 1024, "client": "c9" }"#,
                ),
                base_reading_on("c9"),
                UNRESOLVED,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "cache-drop", "host": "h9" }"#),
                base().fault(10, FaultKind::CacheDrop { host: own("h9") }),
                UNRESOLVED,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "vhost-stall", "vm": "dn9" }"#),
                base().fault(
                    10,
                    FaultKind::VhostStall {
                        vm: own("dn9"),
                        duration_ms: 100,
                    },
                ),
                UNRESOLVED,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "vm-crash", "vm": "dn9" }"#),
                base().fault(10, FaultKind::VmCrash { vm: own("dn9") }),
                UNRESOLVED,
            ),
            // roles
            (
                after(
                    workload,
                    r#"{ "kind": "reader", "path": "/d", "request_kb": 1024, "client": "dn1" }"#,
                ),
                base_reading_on("dn1"),
                INVALID,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "vm-crash", "vm": "client" }"#),
                base().fault(10, FaultKind::VmCrash { vm: own("client") }),
                INVALID,
            ),
            (
                after(file, r#"{ "path": "/e", "mb": 8, "placement": [] }"#),
                base().file("/e", 8, &[]),
                INVALID,
            ),
            // zero, wrapping and ill-fitting sizes, factors out of range
            (
                after(file, r#"{ "path": "/e", "mb": 0, "placement": ["dn1"] }"#),
                base().file("/e", 0, &["dn1"]),
                INVALID,
            ),
            (
                after(
                    file,
                    r#"{ "path": "/e", "mb": 17592186044416, "placement": ["dn1"] }"#,
                ),
                base().file("/e", 1 << 44, &["dn1"]),
                INVALID,
            ),
            (
                block(r#""host_cache": { "mode": "cas", "capacity_mb": 0 }"#),
                base().host_cache(cas(Some(0), None)),
                INVALID,
            ),
            (
                block(r#""host_cache": { "mode": "cas", "capacity_mb": 17592186044416 }"#),
                base().host_cache(cas(Some(1 << 44), None)),
                INVALID,
            ),
            (
                block(r#""host_cache": { "mode": "cas", "chunk_kb": 0 }"#),
                base().host_cache(cas(None, Some(0))),
                INVALID,
            ),
            // a chunk larger than the host store, then than the 1 GiB
            // guest cache
            (
                block(r#""host_cache": { "mode": "cas", "capacity_mb": 1, "chunk_kb": 4096 }"#),
                base().host_cache(cas(Some(1), Some(4096))),
                INVALID,
            ),
            (
                block(r#""host_cache": { "mode": "cas", "chunk_kb": 2097152 }"#),
                base().host_cache(cas(None, Some(2_097_152))),
                INVALID,
            ),
            (
                block(r#""timeline": { "sample_ms": 0 }"#),
                sampled(base(), 0),
                INVALID,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "link-flap", "host": "h1", "factor": 0.5 }"#),
                base().fault(
                    10,
                    FaultKind::LinkFlap {
                        host: own("h1"),
                        factor: 0.5,
                        duration_ms: 100,
                    },
                ),
                INVALID,
            ),
            (
                fault(r#"{ "at_ms": 10, "kind": "disk-slow", "host": "h1", "factor": 200000 }"#),
                base().fault(
                    10,
                    FaultKind::DiskSlow {
                        host: own("h1"),
                        factor: 200_000.0,
                        duration_ms: 100,
                    },
                ),
                INVALID,
            ),
            // no client, no datanode, no workload
            (
                swap(r#""role": "client""#, r#""role": "peer""#),
                base_with("h1", VmRole::Peer, VmRole::Datanode).workload(read("/d")),
                INVALID,
            ),
            (
                swap(r#""role": "datanode""#, r#""role": "peer""#),
                base_with("h1", VmRole::Client, VmRole::Peer).workload(read("/d")),
                INVALID,
            ),
            (
                swap(
                    r#""workloads": [ { "kind": "reader", "path": "/d", "request_kb": 1024 } ]"#,
                    r#""workloads": []"#,
                ),
                base_with("h1", VmRole::Client, VmRole::Datanode),
                INVALID,
            ),
        ];
        assert!(ScenarioSpec::from_json(BASE).is_ok());
        assert!(base().build().is_ok());
        for ((from, to), built, variant) in rows {
            assert!(BASE.contains(from), "{from}");
            let parsed = ScenarioSpec::from_json(&BASE.replacen(from, &to, 1)).unwrap_err();
            let built = built.build().unwrap_err();
            assert_eq!(parsed.to_string(), built.to_string(), "{to}");
            assert_eq!(
                std::mem::discriminant(&parsed),
                std::mem::discriminant(&variant),
                "{to}: {parsed}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_rejected_in_every_object() {
        let example = include_str!("../../../scenarios/example.json");
        let faults = include_str!("../../../scenarios/faults-example.json");
        // one mistyped key per object kind: host, VM, file, workload, fault
        for (json, key, typo) in [
            (example, "cores", "core"),
            (example, "busy", "bussy"),
            (faults, "replicate", "replicat"),
            (example, "buffer_kb", "bufer_kb"),
            (faults, "duration_ms", "duraton_ms"),
        ] {
            let (key, typo) = (format!("\"{key}\""), format!("\"{typo}\""));
            assert!(json.contains(&key), "{key}");
            match ScenarioSpec::from_json(&json.replacen(&key, &typo, 1)) {
                Err(SpecError::Parse(msg)) => assert!(msg.contains(&typo), "{msg}"),
                other => panic!("{typo} was not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn daemon_crash_falls_back_and_recovers() {
        let build = |faults: bool| {
            let mut b = ScenarioSpec::builder()
                .path(ReadPath::VreadRdma)
                .host("h1", 4, 2.0)
                .host("h2", 4, 2.0)
                .client("client", "h1")
                .datanode("dn1", "h1")
                .datanode("dn2", "h2")
                .replicated_file("/d", 256, &["dn1", "dn2"])
                .workload(WorkloadSpec::Reader {
                    path: "/d".to_owned(),
                    request_kb: 1024,
                });
            if faults {
                // crash mid-first-block, restart while the stalled read
                // is still waiting out its client timeout
                b = b
                    .fault(
                        100,
                        FaultKind::DaemonCrash {
                            host: "h1".to_owned(),
                        },
                    )
                    .fault(
                        600,
                        FaultKind::DaemonRestart {
                            host: "h1".to_owned(),
                        },
                    );
            }
            b.build().unwrap()
        };
        let clean = build(false).run().unwrap();
        let faulted = build(true).run().unwrap();
        assert!(clean.faults.is_none());
        let fr = faulted.faults.clone().expect("fault report");
        assert_eq!(faulted.bytes, clean.bytes, "no data loss");
        assert!(fr.fallback_reads > 0, "outage served via fallback: {fr:?}");
        assert_eq!(fr.daemon_restarts, 1);
        assert!(
            faulted.elapsed_s > clean.elapsed_s,
            "the outage costs time ({} vs {})",
            faulted.elapsed_s,
            clean.elapsed_s
        );
        // deterministic: the same plan reproduces the same report
        assert_eq!(
            build(true).run().unwrap().to_json(),
            faulted.to_json(),
            "fault runs are deterministic"
        );
    }

    #[test]
    fn faulted_scenario_samples_only_what_reports_read() {
        // Elapsed times come from the job table and fault goodput from a
        // window byte counter, so a faulted run keeps just the delay
        // series and the two recovery instants `collect_fault_report`
        // reads.
        let spec = ScenarioSpec::from_json(include_str!("../../../scenarios/faults-example.json"))
            .unwrap();
        let mut d = spec.deploy().unwrap();
        let bound = spec.bind(&d).unwrap();
        spec.arm(&mut d, &bound).unwrap();
        assert!(run_jobs(&mut d.w, SimDuration::from_secs(3_000)));
        assert_eq!(
            d.w.metrics.sample_keys().collect::<Vec<_>>(),
            ["daemon_restart_at_s", "reader_delay_ms", "vread_ok_at_s"]
        );
        // one recovery instant per daemon restart, not one per vRead block
        let count = |k| d.w.metrics.samples(k).map_or(0, |s| s.count());
        assert!(count("vread_ok_at_s") >= 1);
        assert!(count("vread_ok_at_s") <= count("daemon_restart_at_s"));
        assert!(d.w.metrics.counter("fault_window_read_bytes") > 0.0);
    }

    #[test]
    fn netperf_workload_reports_rate() {
        let spec_json = r#"{
            "path": "vanilla",
            "hosts": [ { "name": "h1", "ghz": 3.2 } ],
            "vms": [
                { "name": "client", "host": "h1", "role": "client" },
                { "name": "dn1", "host": "h1", "role": "datanode" }
            ],
            "workload": { "kind": "netperf", "request_kb": 32, "duration_ms": 200 }
        }"#;
        let spec = ScenarioSpec::from_json(spec_json).unwrap();
        let report = spec.run().unwrap();
        assert!(report.rate > 1_000.0, "txn rate {}", report.rate);
    }

    #[test]
    fn write_workload_creates_files() {
        let spec_json = r#"{
            "path": "vanilla",
            "hosts": [ { "name": "h1" } ],
            "vms": [
                { "name": "client", "host": "h1", "role": "client" },
                { "name": "dn1", "host": "h1", "role": "datanode" }
            ],
            "workload": { "kind": "dfsio-write", "files": ["/o1", "/o2"], "mb": 16 }
        }"#;
        let spec = ScenarioSpec::from_json(spec_json).unwrap();
        let report = spec.run().unwrap();
        assert_eq!(report.bytes, 32 << 20);
    }

    const MULTI: &str = r#"{
        "seed": 11,
        "path": "vread-rdma",
        "hosts": [
            { "name": "h1", "ghz": 3.2 },
            { "name": "h2", "ghz": 3.2 }
        ],
        "vms": [
            { "name": "c1", "host": "h1", "role": "client" },
            { "name": "c2", "host": "h2", "role": "client" },
            { "name": "dn1", "host": "h1", "role": "datanode" },
            { "name": "dn2", "host": "h2", "role": "datanode" }
        ],
        "files": [
            { "path": "/a", "mb": 32, "placement": ["dn1"] },
            { "path": "/b", "mb": 16, "placement": ["dn2"] }
        ],
        "workloads": [
            { "kind": "reader", "path": "/a", "request_kb": 1024, "client": "c1" },
            { "kind": "reader", "path": "/b", "request_kb": 1024, "client": "c2", "start_ms": 50 }
        ]
    }"#;

    #[test]
    fn multi_workload_reports_per_job_and_sums_to_aggregate() {
        let spec = ScenarioSpec::from_json(MULTI).unwrap();
        let report = spec.run().unwrap();
        assert_eq!(report.per_workload.len(), 2);
        let per_bytes: u64 = report.per_workload.iter().map(|wr| wr.bytes).sum();
        assert_eq!(per_bytes, report.bytes, "per-workload bytes sum");
        assert_eq!(report.bytes, (32 << 20) + (16 << 20));
        assert_eq!(report.per_workload[0].client, "c1");
        assert_eq!(report.per_workload[1].client, "c2");
        assert_eq!(report.per_workload[1].start_ms, 50);
        for wr in &report.per_workload {
            assert!(wr.elapsed_s > 0.0 && wr.rate > 0.0, "{wr:?}");
        }
        // the aggregate window covers both jobs
        assert!(report.elapsed_s >= report.per_workload[0].elapsed_s);
        let j = report.to_json();
        assert!(j.contains("per_workload"));

        // deterministic: a second run serializes byte-identically
        let again = ScenarioSpec::from_json(MULTI).unwrap().run().unwrap();
        assert_eq!(again.to_json(), j);
    }

    #[test]
    fn host_cache_block_parses_and_validates() {
        // absent → the per-host LRU default; no report block either
        let spec = ScenarioSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.host_cache, HostCacheSpec::default());
        assert_eq!(spec.host_cache.mode, HostCacheMode::Lru);

        const BLOCK: &str = "{ \"mode\": \"cas\", \"capacity_mb\": 256, \"chunk_kb\": 64 }";
        let with = SPEC.replacen("\"path\"", &format!("\"host_cache\": {BLOCK}, \"path\""), 1);
        let spec = ScenarioSpec::from_json(&with).unwrap();
        assert_eq!(spec.host_cache.mode, HostCacheMode::Cas);
        assert_eq!(spec.host_cache.capacity_mb, Some(256));
        assert_eq!(spec.host_cache.chunk_kb, Some(64));

        // unknown keys inside the block are rejected by name
        let bad = with.replace("\"chunk_kb\"", "\"chunk_bk\"");
        match ScenarioSpec::from_json(&bad).unwrap_err() {
            SpecError::Parse(msg) => assert!(msg.contains("chunk_bk"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        // unknown mode
        let bad = with.replace("\"cas\"", "\"arc\"");
        assert!(matches!(
            ScenarioSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
        // zero sizes are out-of-range numbers
        for zeroed in [with.replace("256", "0"), with.replace("64", "0")] {
            assert!(matches!(
                ScenarioSpec::from_json(&zeroed),
                Err(SpecError::Invalid(_))
            ));
        }
        // the block must be an object
        let bad = with.replace(BLOCK, "\"cas\"");
        assert!(matches!(
            ScenarioSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
    }

    #[test]
    fn lru_report_json_is_unchanged_and_cas_adds_host_cache_block() {
        let spec = ScenarioSpec::from_json(SPEC).unwrap();
        let lru = spec.run().unwrap();
        assert!(lru.host_cache.is_none());
        assert!(!lru.to_json().contains("host_cache"));

        let with = SPEC.replacen(
            "\"path\"",
            "\"host_cache\": { \"mode\": \"cas\" }, \"path\"",
            1,
        );
        let cas = ScenarioSpec::from_json(&with).unwrap().run().unwrap();
        assert_eq!(cas.bytes, lru.bytes, "payload is store-independent");
        assert!(cas.to_json().contains("effective_capacity_x"));
        let hc = cas.host_cache.expect("cas run reports its store");
        assert!(hc.effective_capacity_x >= 1.0);
    }

    #[test]
    fn timeline_block_parses_and_validates() {
        // absent → no sampler, no report block
        let spec = ScenarioSpec::from_json(SPEC).unwrap();
        assert!(spec.timeline.is_none());

        let with = SPEC.replacen(
            "\"path\"",
            "\"timeline\": { \"sample_ms\": 20 }, \"path\"",
            1,
        );
        let spec = ScenarioSpec::from_json(&with).unwrap();
        assert_eq!(spec.timeline, Some(TimelineSpec { sample_ms: 20 }));

        // unknown keys inside the block are rejected by name
        let bad = with.replace("\"sample_ms\"", "\"sample_sm\"");
        match ScenarioSpec::from_json(&bad).unwrap_err() {
            SpecError::Parse(msg) => assert!(msg.contains("sample_sm"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
        // a zero period is an out-of-range number, and so is one past
        // the largest millisecond count whose nanoseconds fit in `u64`
        for ms in ["0", "18446744073710"] {
            let bad = with.replace("20", ms);
            assert!(matches!(
                ScenarioSpec::from_json(&bad),
                Err(SpecError::Invalid(_))
            ));
        }
        // the block must be an object
        let bad = with.replace("{ \"sample_ms\": 20 }", "20");
        assert!(matches!(
            ScenarioSpec::from_json(&bad),
            Err(SpecError::Parse(_))
        ));
        // the builder applies the same zero check
        assert!(matches!(
            sampled(ScenarioSpec::builder(), 0).build(),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn timeline_block_adds_report_section() {
        let spec = ScenarioSpec::from_json(SPEC).unwrap();
        let off = spec.run().unwrap();
        assert!(off.timeline.is_none());
        assert!(!off.to_json().contains("\"timeline\""));

        let with = SPEC.replacen(
            "\"path\"",
            "\"timeline\": { \"sample_ms\": 10 }, \"path\"",
            1,
        );
        let on = ScenarioSpec::from_json(&with).unwrap().run().unwrap();
        assert_eq!(on.bytes, off.bytes, "sampling never perturbs the run");
        assert_eq!(on.elapsed_s, off.elapsed_s, "virtual time is unchanged");
        assert!(on.to_json().contains("\"saturation_ms\""));
        let tl = on.timeline.expect("timeline run reports its summary");
        assert_eq!(tl.sample_ms, 10);
        assert!(tl.reads > 0 && tl.ticks > 0);
    }

    #[test]
    fn singular_workload_is_a_one_entry_workloads() {
        let lone = r#"{ "kind": "dfsio-read", "files": ["/d"] }"#;
        let entry =
            r#"{ "kind": "dfsio-read", "files": ["/d"], "client": "client", "start_ms": 5 }"#;
        assert!(SPEC.contains(lone));
        let one = ScenarioSpec::from_json(&SPEC.replacen(lone, entry, 1)).unwrap();
        let many = SPEC.replacen(
            &format!("\"workload\": {lone}"),
            &format!("\"workloads\": [{entry}]"),
            1,
        );
        let many = ScenarioSpec::from_json(&many).unwrap();
        assert_eq!(one.workloads[0].client.as_deref(), Some("client"));
        assert_eq!(one.workloads[0].start_ms, 5);
        assert_eq!(
            format!("{:?}", one.workloads),
            format!("{:?}", many.workloads)
        );
    }

    #[test]
    fn singular_and_plural_workload_fields_are_exclusive() {
        let both = SPEC.replacen("\"workload\":", "\"workloads\": [], \"workload\":", 1);
        assert!(matches!(
            ScenarioSpec::from_json(&both),
            Err(SpecError::Parse(_))
        ));
        let neither = SPEC.replacen("\"workload\":", "\"ignored\":", 1);
        assert!(matches!(
            ScenarioSpec::from_json(&neither),
            Err(SpecError::Parse(_))
        ));
    }
}
