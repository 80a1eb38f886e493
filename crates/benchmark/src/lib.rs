//! # lowdeg-benchmark
//!
//! One end-to-end benchmark for the engine: four workloads through the
//! `lowdeg` CLI (in process) and a long-lived library session, each
//! checked for correct output, plus a traced pass that replays the same
//! requests through every layer's public entry points. `README.md` lists
//! the workloads, the metrics and how to run, trace and compare.

// two exceptions, both in `run.rs`: the allocator policy set at start
// and the heap trim before each peak-RSS reading
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cli;
pub mod compare;
pub mod corpus;
pub mod host;
pub mod record;
mod replay;
pub mod report;
mod rng;
pub mod run;
mod session;
mod sink;
mod stats;
pub mod trace;

pub use corpus::Workload;
pub use run::{run, Options, Report, RUN_SECONDS};
