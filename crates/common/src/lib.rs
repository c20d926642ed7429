//! Common identifiers, error types and configuration shared by every crate
//! of the `fgl` system — a reproduction of *"Fine-granularity Locking and
//! Client-Based Logging for Distributed Architectures"* (Panagos, Biliris,
//! Jagadish, Rastogi — EDBT 1996).
//!
//! The crate is deliberately dependency-light: everything above it
//! (storage, WAL, lock managers, client, server) shares these vocabulary
//! types.

pub mod config;
pub mod error;
pub mod idmap;
pub mod ids;
pub mod rng;

pub use config::{
    CommitPolicy, LockGranularity, LoggingStrategyKind, SystemConfig, TransportKind, UpdatePolicy,
};
pub use error::{FglError, Result};
pub use idmap::{IdMap, IdSet};
pub use ids::{ClientId, Lsn, ObjectId, PageId, Psn, SlotId, TxnId};
