//! # vread-apps — the workloads of the paper's evaluation
//!
//! Every application the evaluation section runs, modelled on top of the
//! genuine HDFS/vRead data paths:
//!
//! * [`lookbusy`] — the 85% duty-cycle CPU load generator used to create
//!   the 4-VM contention scenarios;
//! * [`netperf`] — TCP_RR between two VMs (Figure 3);
//! * [`java_reader`] — the plain sequential reader of Figures 2 and 9,
//!   with a local-filesystem baseline mode;
//! * [`dfsio`] — TestDFSIO read/re-read/write (Figures 11–13);
//! * [`hbase`] — HBase PerformanceEvaluation scan / sequentialRead /
//!   randomRead (Table 2);
//! * [`hive`] — the Hive select-scan query (Table 3);
//! * [`sqoop`] — Sqoop export to a MySQL host (Table 3);
//! * [`wordcount`] — the canonical MapReduce job (map → shuffle →
//!   reduce over HDFS, both read and write paths);
//! * [`driver`] — times one job ([`driver::run_job`]) and runs
//!   open-ended scenarios until every registered job completes.

#![forbid(unsafe_code)]

pub mod dfsio;
pub mod driver;
pub mod hbase;
pub mod hive;
pub mod java_reader;
pub mod lookbusy;
pub mod netperf;
pub mod sqoop;
pub mod wordcount;

pub use dfsio::{DfsioConfig, DfsioMode, TestDfsio};
pub use driver::{complete_job_after, run_job, run_jobs};
pub use hbase::{HbaseClient, HbaseConfig, HbaseOp};
pub use hive::{HiveConfig, HiveQuery};
pub use java_reader::{JavaReader, ReaderMode};
pub use lookbusy::Lookbusy;
pub use netperf::{deploy_netperf, deploy_netperf_with_job, NetperfClient, NetperfServer};
pub use sqoop::{deploy_sqoop_with_job, MysqlServer, SqoopConfig, SqoopExport};
pub use wordcount::{WordCount, WordCountConfig};
