//! The `fgl` client runtime (§2, §3): page cache with inter-transaction
//! caching, local lock manager, **private write-ahead log** (client-based
//! logging), transaction management with savepoints, fuzzy checkpoints,
//! the §3.6 log-space reclamation protocol, and restart recovery — both
//! the client-crash procedure of §3.3 and the client half of server
//! restart (§3.4). Each transaction logs in one of two modes: the
//! paper's client-based ARIES (physical records, the default) or
//! redo-only, as `SystemConfig::logging_strategy` selects.

pub mod cache;
pub mod peer;
pub mod recovery;
pub mod runtime;
pub mod txn;

pub use cache::ClientCache;
pub use peer::PeerHandle;
pub use recovery::{ClientRecoveryReport, RecoveryOptions};
pub use runtime::{ClientCore, ClientStats, DptState};
pub use txn::{TxnLogMode, TxnState, TxnStatus, UndoEntry};
