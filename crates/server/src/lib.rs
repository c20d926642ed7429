//! The `fgl` page server (§2, §3): global lock manager driver, buffer
//! pool with in-place writes, the dirty client table, replacement
//! logging, server checkpoints, the §4.1 server-logging baselines, and
//! restart recovery (§3.4/§3.5).

pub mod dct;
pub mod pagestore;
pub mod recovery;
pub mod runtime;

pub use dct::Dct;
pub use pagestore::PageStore;
pub use recovery::RestartReport;
pub use runtime::{LockResponse, ServerCore, ServerStats};
