//! Per-transaction bookkeeping at the client.
//!
//! Transactions execute entirely at the client that started them (§2);
//! the server never hears about commits under client-based logging. The
//! client tracks the ARIES backward chain (`last_lsn`), the earliest
//! record (for log-space accounting), named savepoints (§3.2 supports
//! partial rollbacks), and the pages dirtied (the ship-pages-at-commit
//! baseline needs them).

use fgl_common::{IdSet, Lsn, ObjectId, PageId, TxnId};
use std::collections::HashSet;

/// Lifecycle of a client transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    Aborted,
}

/// How a transaction's updates hit the log — decided from
/// `SystemConfig::logging_strategy` at the transaction's first update and
/// fixed for its lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnLogMode {
    /// Full ARIES physical logging: before- and after-images on every
    /// update record; undo walks the log chain.
    Physical,
    /// REDO-only logging (Sauer & Härder, arXiv 1409.3682): after-images
    /// only; undo information lives in [`TxnCold::undo`] and is spilled
    /// to the log only at the steal point.
    RedoOnly,
}

/// One in-memory undo entry of a [`TxnLogMode::RedoOnly`] transaction:
/// everything rollback needs that the log deliberately does not carry.
#[derive(Clone, Debug)]
pub struct UndoEntry {
    /// LSN of the redo record this entry compensates (savepoint bound).
    pub lsn: Lsn,
    pub object: ObjectId,
    /// `None` means "object did not exist before" (undo frees the slot).
    pub before: Option<Vec<u8>>,
}

/// Rollback-only transaction state, boxed out of [`TxnState`]: named
/// savepoints (§3.2) and the RedoOnly in-memory undo stack exist for a
/// minority of transactions, yet inline they tripled the size of every
/// entry in the hot per-client `txns` map. The hot struct keeps one
/// pointer; the first savepoint or undo entry pays the allocation.
#[derive(Clone, Debug, Default)]
pub struct TxnCold {
    /// Named savepoints: (name, last_lsn at creation).
    pub savepoints: Vec<(String, Lsn)>,
    /// In-memory undo stack (RedoOnly mode only), oldest first.
    pub undo: Vec<UndoEntry>,
    /// Objects whose first-touch before-image was already spilled to the
    /// log at a steal point (RedoOnly mode only).
    pub spilled: HashSet<ObjectId>,
}

/// One active transaction.
#[derive(Clone, Debug)]
pub struct TxnState {
    pub id: TxnId,
    pub status: TxnStatus,
    /// Most recent log record of this transaction (ARIES PrevLSN chain).
    pub last_lsn: Lsn,
    /// First log record (bounds log-space reclamation while active).
    pub first_lsn: Lsn,
    /// Pages this transaction dirtied (read at commit by the ship-log
    /// policies). `begin` swaps in a finished transaction's emptied table.
    pub dirtied: IdSet<PageId>,
    /// Logging mode, fixed at the first update.
    pub log_mode: Option<TxnLogMode>,
    /// The `Commit` record is in the log. The transaction stays active
    /// until the commit is durable, but a checkpoint must no longer list
    /// it: restart scans from the checkpoint and would never see the
    /// commit, so it would roll the transaction back.
    pub commit_logged: bool,
    /// Cold rollback state, allocated on first use.
    cold: Option<Box<TxnCold>>,
}

impl TxnState {
    pub fn new(id: TxnId) -> Self {
        TxnState {
            id,
            status: TxnStatus::Active,
            last_lsn: Lsn::NIL,
            first_lsn: Lsn::NIL,
            dirtied: IdSet::default(),
            log_mode: None,
            commit_logged: false,
            cold: None,
        }
    }

    /// The cold rollback state, allocating it on first touch.
    pub fn cold_mut(&mut self) -> &mut TxnCold {
        self.cold.get_or_insert_with(Default::default)
    }

    /// The cold rollback state, if any rollback bookkeeping happened.
    pub fn cold(&self) -> Option<&TxnCold> {
        self.cold.as_deref()
    }

    /// Record a newly appended log record of this transaction.
    pub fn note_record(&mut self, lsn: Lsn) {
        if self.first_lsn.is_nil() {
            self.first_lsn = lsn;
        }
        self.last_lsn = lsn;
    }

    /// Create (or move) a named savepoint at the current position.
    pub fn set_savepoint(&mut self, name: &str) {
        let last = self.last_lsn;
        let sps = &mut self.cold_mut().savepoints;
        if let Some(sp) = sps.iter_mut().find(|(n, _)| n == name) {
            sp.1 = last;
        } else {
            sps.push((name.to_string(), last));
        }
    }

    /// The rollback boundary for a savepoint; savepoints created after it
    /// are discarded by the caller once the rollback runs.
    pub fn savepoint_lsn(&self, name: &str) -> Option<Lsn> {
        self.cold()?
            .savepoints
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| *l)
    }

    /// Drop savepoints established after `lsn` (they are rolled away).
    pub fn truncate_savepoints(&mut self, lsn: Lsn) {
        if let Some(cold) = self.cold.as_deref_mut() {
            cold.savepoints.retain(|(_, l)| *l <= lsn);
        }
    }

    pub fn is_active(&self) -> bool {
        self.status == TxnStatus::Active
    }
}

// Static size guard: the hot per-client `txns` map entry is 72 bytes —
// boxing the cold rollback state and the zero-sized hasher of `dirtied`
// bought the shrinks; growing the struct again needs a deliberate
// decision here.
const _: () = assert!(std::mem::size_of::<TxnState>() <= 72);
const _: () = assert!(std::mem::size_of::<Option<Box<TxnCold>>>() == 8);

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::ClientId;

    fn txn() -> TxnState {
        TxnState::new(TxnId::compose(ClientId(1), 1))
    }

    #[test]
    fn note_record_tracks_first_and_last() {
        let mut t = txn();
        assert!(t.first_lsn.is_nil());
        t.note_record(Lsn(10));
        t.note_record(Lsn(20));
        assert_eq!(t.first_lsn, Lsn(10));
        assert_eq!(t.last_lsn, Lsn(20));
    }

    #[test]
    fn savepoints_create_move_and_lookup() {
        let mut t = txn();
        t.note_record(Lsn(5));
        t.set_savepoint("a");
        assert_eq!(t.savepoint_lsn("a"), Some(Lsn(5)));
        t.note_record(Lsn(9));
        t.set_savepoint("a");
        assert_eq!(t.savepoint_lsn("a"), Some(Lsn(9)));
        assert_eq!(t.savepoint_lsn("missing"), None);
    }

    #[test]
    fn truncate_discards_later_savepoints() {
        let mut t = txn();
        t.note_record(Lsn(5));
        t.set_savepoint("early");
        t.note_record(Lsn(9));
        t.set_savepoint("late");
        t.truncate_savepoints(Lsn(5));
        assert_eq!(t.savepoint_lsn("early"), Some(Lsn(5)));
        assert_eq!(t.savepoint_lsn("late"), None);
    }
}
