//! Pluggable logging strategies (the `LoggingStrategy` seam).
//!
//! The paper's client-based ARIES path (§2, §3.3) is one point in a
//! design space; this module carves its policy decisions out of
//! [`ClientCore`] behind a small trait so alternatives can share the
//! same transport, cache, lock and recovery machinery:
//!
//! * [`ClientAries`] — the paper's scheme, byte-identical to the
//!   pre-trait code path. The default.
//! * [`RedoOnly`] — REDO-only logging after Sauer & Härder
//!   (arXiv 1409.3682): no before-images on the log; undo state lives in
//!   client memory and spills to the log only at the steal point.
//! * [`Hybrid`] — the adaptive command/physical scheme of Yao et al.
//!   (arXiv 1503.03653): each transaction picks redo-only ("command
//!   sized") or full physical logging at its first update, by payload
//!   size.
//! * [`WriteBehind`] — a no-force write-behind baseline: the commit
//!   force is deferred behind a short coalescing window so cohorts of
//!   committers share one device write even without group commit.
//!
//! Hook points, in transaction order: [`LoggingStrategy::log_mode_for_txn`]
//! (first update), [`LoggingStrategy::before_ship`] (the steal point,
//! *before* the WAL force that covers the shipped bytes),
//! [`LoggingStrategy::commit_wait_durable`] (out of the mutex) and
//! [`LoggingStrategy::on_checkpoint`]. Restart is not a hook: one
//! procedure ([`ClientCore::recover`]) serves every strategy, reading
//! what differs from the log itself — a loser whose records are
//! redo-only envelopes is skipped by redo and undone from its spills —
//! and from [`LoggingStrategy::envelope_id`]: a strategy that spills
//! scans from the low-water mark rather than the last checkpoint.

use crate::runtime::{ClientCore, ClientState};
use crate::txn::TxnLogMode;
use fgl_common::{LoggingStrategyKind, Lsn, ObjectId, PageId, Result, TxnId};
use fgl_wal::envelope::{StrategyRecord, UndoSpillRecord, STRATEGY_HYBRID, STRATEGY_REDO_ONLY};
use std::collections::HashSet;
use std::time::Duration;

/// Hybrid mode boundary (after-image bytes): transactions whose first
/// update is at most this large log redo-only; larger ones go physical.
pub(crate) const HYBRID_THRESHOLD: usize = 48;

/// The write-behind coalescing floor: even with a zero-latency simulated
/// disk the leader waits this long before capturing its force goal.
const WRITE_BEHIND_WINDOW: Duration = Duration::from_micros(20);

/// Policy seam between the client runtime and its log. One static
/// instance per [`LoggingStrategyKind`]; [`ClientCore`] holds a
/// `&'static dyn LoggingStrategy` resolved at construction.
pub(crate) trait LoggingStrategy: Send + Sync {
    fn kind(&self) -> LoggingStrategyKind;

    /// Envelope `strategy` id for [`StrategyRecord`]s this strategy
    /// appends (0 = appends none).
    fn envelope_id(&self) -> u8 {
        0
    }

    /// Decide how a transaction logs, at its first update.
    /// `payload_len` is that update's after-image length.
    fn log_mode_for_txn(&self, payload_len: usize) -> TxnLogMode {
        let _ = payload_len;
        TxnLogMode::Physical
    }

    /// Out-of-lock durability wait: the commit record ends at `upto` and
    /// the state mutex was released after appending it, so concurrent
    /// committers can append behind it and share the force. Must not
    /// return before the log is durable through `upto`.
    fn commit_wait_durable(&self, client: &ClientCore, txn: TxnId, upto: Lsn) -> Result<()>;

    /// The steal hook: called under the state mutex right before a dirty
    /// page's bytes leave the client and *before* the WAL force covering
    /// them. Returns `true` when records were appended (so a caller that
    /// believed the log already durable must force again).
    fn before_ship(&self, client: &ClientCore, st: &mut ClientState, page: PageId) -> Result<bool> {
        let _ = (client, st, page);
        Ok(false)
    }

    /// Called under the state mutex after a fuzzy checkpoint is durable.
    fn on_checkpoint(&self, client: &ClientCore, st: &mut ClientState) -> Result<()> {
        let _ = (client, st);
        Ok(())
    }
}

/// Resolve the static strategy instance for a config knob.
pub(crate) fn strategy_for(kind: LoggingStrategyKind) -> &'static dyn LoggingStrategy {
    match kind {
        LoggingStrategyKind::ClientAries => &ClientAries,
        LoggingStrategyKind::RedoOnly => &RedoOnly,
        LoggingStrategyKind::Hybrid => &Hybrid,
        LoggingStrategyKind::WriteBehind => &WriteBehind,
    }
}

/// Shared steal hook for the redo-only strategies: append the first-touch
/// before-images of every active redo-only transaction's updates on
/// `page` that were not spilled yet. The caller's force (WAL rule) then
/// makes them durable before the page ships — after which a crash can
/// still roll those losers back from the log alone.
fn spill_undo_for_page(
    client: &ClientCore,
    st: &mut ClientState,
    page: PageId,
    envelope_id: u8,
) -> Result<bool> {
    let mut spills: Vec<UndoSpillRecord> = Vec::new();
    for t in st.txns.values() {
        if !t.is_active() || t.log_mode != Some(TxnLogMode::RedoOnly) {
            continue;
        }
        // The oldest undo entry per object carries the transaction's
        // first-touch before-image — the only one undo-from-log needs.
        let Some(cold) = t.cold() else {
            continue;
        };
        let mut seen: HashSet<ObjectId> = HashSet::new();
        for u in &cold.undo {
            if u.object.page != page || cold.spilled.contains(&u.object) || !seen.insert(u.object) {
                continue;
            }
            spills.push(UndoSpillRecord {
                txn: t.id,
                object: u.object,
                before: u.before.clone(),
            });
        }
    }
    if spills.is_empty() {
        return Ok(false);
    }
    for rec in spills {
        let (txn, object) = (rec.txn, rec.object);
        let payload = StrategyRecord::UndoSpill(rec).into_payload(envelope_id);
        client.append(st, &payload, true)?;
        if let Some(t) = st.txns.get_mut(&txn) {
            t.cold_mut().spilled.insert(object);
        }
    }
    Ok(true)
}

/// The paper's client-based ARIES scheme (default).
pub(crate) struct ClientAries;

impl LoggingStrategy for ClientAries {
    fn kind(&self) -> LoggingStrategyKind {
        LoggingStrategyKind::ClientAries
    }

    fn commit_wait_durable(&self, client: &ClientCore, txn: TxnId, upto: Lsn) -> Result<()> {
        client.group_force(txn, upto)
    }
}

/// REDO-only logging (Sauer & Härder, arXiv 1409.3682).
pub(crate) struct RedoOnly;

impl LoggingStrategy for RedoOnly {
    fn kind(&self) -> LoggingStrategyKind {
        LoggingStrategyKind::RedoOnly
    }

    fn envelope_id(&self) -> u8 {
        STRATEGY_REDO_ONLY
    }

    fn log_mode_for_txn(&self, _payload_len: usize) -> TxnLogMode {
        TxnLogMode::RedoOnly
    }

    fn commit_wait_durable(&self, client: &ClientCore, txn: TxnId, upto: Lsn) -> Result<()> {
        client.group_force(txn, upto)
    }

    fn before_ship(&self, client: &ClientCore, st: &mut ClientState, page: PageId) -> Result<bool> {
        spill_undo_for_page(client, st, page, STRATEGY_REDO_ONLY)
    }
}

/// Adaptive command/physical hybrid (Yao et al., arXiv 1503.03653).
pub(crate) struct Hybrid;

impl LoggingStrategy for Hybrid {
    fn kind(&self) -> LoggingStrategyKind {
        LoggingStrategyKind::Hybrid
    }

    fn envelope_id(&self) -> u8 {
        STRATEGY_HYBRID
    }

    fn log_mode_for_txn(&self, payload_len: usize) -> TxnLogMode {
        if payload_len <= HYBRID_THRESHOLD {
            TxnLogMode::RedoOnly
        } else {
            TxnLogMode::Physical
        }
    }

    fn commit_wait_durable(&self, client: &ClientCore, txn: TxnId, upto: Lsn) -> Result<()> {
        client.group_force(txn, upto)
    }

    fn before_ship(&self, client: &ClientCore, st: &mut ClientState, page: PageId) -> Result<bool> {
        spill_undo_for_page(client, st, page, STRATEGY_HYBRID)
    }
}

/// No-force write-behind baseline: commits never force under the state
/// mutex; the force runs behind a coalescing window so concurrent
/// committers share one device write. Commit still blocks until its
/// record is durable (the crash contract is unchanged), so this measures
/// pure force-scheduling, not relaxed durability.
pub(crate) struct WriteBehind;

impl LoggingStrategy for WriteBehind {
    fn kind(&self) -> LoggingStrategyKind {
        LoggingStrategyKind::WriteBehind
    }

    fn commit_wait_durable(&self, client: &ClientCore, txn: TxnId, upto: Lsn) -> Result<()> {
        let window = client.config().disk_latency.max(WRITE_BEHIND_WINDOW);
        client.force_coalesced(txn, upto, window)
    }
}
