//! End-to-end and per-layer benchmark of the vread-rs simulator.
//!
//! The generator ([`workloads`]) turns a workload name and a seed into
//! a scenario document; rounds ([`round`]) and the traced run
//! ([`layers`]) time the simulator on it from outside, through its
//! public calls, and check every output ([`checks`]). `compare` judges
//! two result files against the bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod checks;
pub mod compare;
pub mod layered;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod orchestrate;
pub mod round;
pub mod stats;
pub mod workloads;
