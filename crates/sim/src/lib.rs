//! Simulation and experiment harness for the `fgl` reproduction.
//!
//! The paper has no quantitative evaluation section, so the experiment
//! suite (E1–E9, see `DESIGN.md`) is constructed from its claims. This
//! crate supplies the substrate those experiments share:
//!
//! * [`workload`] — synthetic multi-client workloads in the style of
//!   Carey, Franklin & Zaharioudakis \[3\] (PRIVATE / HOTCOLD / UNIFORM /
//!   HICON / FEED), deterministically seeded;
//! * [`setup`] — database population helpers;
//! * [`oracle`] — a committed-state oracle: the harness records every
//!   committed write; after any crash/recovery sequence the system state
//!   must equal the oracle;
//! * [`harness`] — workload driver (every committer a green task on one
//!   worker pool) with throughput, latency and message accounting;
//! * [`crash`] — crash-matrix orchestration (client / server / complex
//!   crashes mid-workload);
//! * [`table`] — plain-text table output for the experiment binaries.

pub mod crash;
pub mod harness;
pub mod oracle;
pub mod setup;
pub mod table;
pub mod workload;

pub use crash::{run_crash_scenario, CrashKind, CrashScenarioReport};
pub use harness::{run_workload, HarnessOptions, RunReport};
pub use oracle::Oracle;
pub use setup::{populate, DatabaseLayout};
pub use table::Table;
pub use workload::{Op, TxnTemplate, WorkloadKind, WorkloadSpec};
