//! # vread-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! on the simulated testbed, plus the DESIGN.md ablations. Run via the
//! `repro` binary:
//!
//! ```text
//! cargo run --release -p vread-bench --bin repro -- all
//! cargo run --release -p vread-bench --bin repro -- fig11 table2
//! ```
//!
//! The simulator's own cost is measured by the separate `benchmark/`
//! crate, which links this one.

#![forbid(unsafe_code)]

pub mod deploy;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod report;
pub mod scenarios;
pub mod spans;
pub mod spec;
pub mod timeline;

pub use deploy::{make_read_client, DeployPlan, Deployment};
pub use faults::{collect_fault_report, FaultKind, FaultReport, FaultSpec};
pub use report::{improvement_pct, reduction_pct, Row, Table};
pub use scenarios::{Locality, ReadPath, Testbed, TestbedOpts};
pub use spans::{ReadAggregate, SpanSummary};
pub use spec::{
    HostCacheReport, HostCacheSpec, ScenarioReport, ScenarioSpec, SpecError, TimelineSpec,
    WorkloadBinding, WorkloadReport, WorkloadSpec,
};
pub use timeline::{TimelineSeries, TimelineSummary, TimelineWindow, SATURATION_X};
