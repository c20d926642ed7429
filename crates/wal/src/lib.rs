//! ARIES-style write-ahead logging for the `fgl` system (§2, §3).
//!
//! Every client owns a **private log** (client-based logging); the server
//! owns its own log of *replacement* records and checkpoints. Both reuse
//! the same machinery from this crate:
//!
//! * [`records`] — the typed log records of the paper: updates carrying
//!   the pre-update PSN, compensation records, commit/abort, **callback
//!   log records** (§3.1), **replacement log records** (§3.1), and fuzzy
//!   checkpoints carrying the DPT (clients) or DCT (server), plus the
//!   redo-only update and spilled before-image of redo-only transactions.
//!   Each record opens with a fixed-order varint header that a scan
//!   reads in place ([`RecordHeader`]), ahead of its images.
//! * [`store`] — durable byte stores with explicit *pending vs. durable*
//!   separation so that crash simulations drop exactly the un-forced tail.
//! * [`manager`] — the log manager: append/force, LSN = byte address
//!   (§2), scans, the master record locating the last complete checkpoint,
//!   and circular-space accounting driving the §3.6 reclamation protocol.
//! * [`group`] — group commit: concurrent forces of one log share one
//!   device force, for the private logs and the server log alike.

pub mod codec;
pub mod group;
pub mod manager;
pub mod records;
pub mod store;

pub use group::{ForceTicket, Forced, GroupForce};
pub use manager::{LogManager, LogRecordEntry, MasterRecord, ScannedRecord};
pub use records::{
    CallbackRecord, ClrRecord, DctEntry, DptEntry, LogPayload, RecordHeader, RecordKind,
    RedoUpdateRecord, ReplacementRecord, UndoSpillRecord, UpdateRecord,
};
pub use store::{FileLogStore, LogStore, MemLogStore, SimLogStore};
