//! The server's view of a client: the callback half of the protocol.
//!
//! The server runtime holds an `Arc<dyn ClientPeer>` per registered
//! client and invokes it for callback locking (§3.2), flush notifications
//! (§3.6), and the restart-recovery coordination of §3.4/§3.5. The client
//! runtime implements the trait; every call is accounted on the shared
//! [`crate::NetSim`] by the caller.

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_wal::records::DptEntry;
use std::sync::Arc;

/// A client's response to a delivered callback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallbackOutcome {
    /// Complied immediately. `retained` carries de-escalation retentions;
    /// `page_copy` carries the page when the protocol ships it with the
    /// response (downgrade/release of a dirtied page, §3.2).
    ///
    /// The copy travels as a shared frame (`Arc<[u8]>`): the client's
    /// `in_transit` stash and every racing callback wave alias one
    /// snapshot instead of deep-copying per wave; the server pays the
    /// single unavoidable copy when it parses the frame into a `Page`.
    Done {
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    },
    /// In use by the named transactions; a `callback_complete` call will
    /// follow when they terminate.
    Deferred { blockers: Vec<TxnId> },
}

/// What a client reports when the server rebuilds its state after a
/// server crash (§3.4: "requesting from each client a copy of the DPT,
/// the list of the cached pages, and the entries in the LLM tables").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientStateReport {
    pub dpt: Vec<DptEntry>,
    /// Cached pages with their current PSNs.
    pub cached_pages: Vec<(PageId, Psn)>,
    /// The LLM lock table.
    pub locks: Vec<LockTarget>,
}

/// Result of asking a client to recover one page (§3.4 final phase).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveredPageOutcome {
    /// The client replayed its log against the page; here is the result.
    Done(Vec<u8>),
    /// The client could not recover the page (protocol bug or unreachable
    /// log records) — surfaced loudly.
    Failed(String),
}

/// One page of a batched §3.4 replay request: what
/// [`ClientPeer::recover_page`] takes, as a value. The base copy is a
/// shared buffer so the frame encoder splices it in without copying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverJob {
    pub page: PageId,
    pub base: Arc<[u8]>,
    pub install_psn: Psn,
    pub callback_list: Vec<(ObjectId, Psn)>,
}

/// Pages per [`ClientPeer::recover_pages`] call during server restart:
/// large enough that a client scans its log a handful of times, small
/// enough that a request or reply frame stays far below the transport's
/// frame limit at any supported page size.
pub const RECOVER_BATCH_PAGES: usize = 64;

/// Server → client interface.
pub trait ClientPeer: Send + Sync {
    fn client_id(&self) -> ClientId;

    /// Deliver a lock callback (§3.2). The client answers immediately —
    /// either complying (possibly shipping its page copy) or naming the
    /// blocking transactions.
    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome;

    /// Deliver a batch of callbacks in one message and return one outcome
    /// per kind, parallel to `kinds`. A batch-aware client processes all
    /// of them in a single pass over its state and ships at most one page
    /// copy per page across the whole batch. The default implementation
    /// degrades to per-kind delivery so existing peers stay correct.
    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        kinds.iter().map(|k| self.deliver_callback(*k)).collect()
    }

    /// §3.6: the server forced this page to disk; the client advances or
    /// drops the matching DPT entry.
    fn notify_page_flushed(&self, page: PageId);

    /// §3.4: report DPT, cached pages and LLM entries for server restart.
    fn report_state(&self) -> ClientStateReport;

    /// §3.4: build this client's `CallBack_P` list for `page`, restricted
    /// to callback log records naming `for_client`, scanning the private
    /// log from `from_lsn` (the reporting client's DPT RedoLSN for the
    /// page).
    fn callback_list_for(
        &self,
        page: PageId,
        for_client: ClientId,
        from_lsn: Lsn,
    ) -> Vec<(ObjectId, Psn)>;

    /// [`callback_list_for`](Self::callback_list_for) for many
    /// `(page, for_client, from_lsn)` queries in one message; one list
    /// per query, parallel to `queries`. A batch-aware client answers all
    /// of them from a single scan of its log. The default degrades to
    /// per-query calls so existing peers stay correct.
    fn callback_lists_for(&self, queries: &[(PageId, ClientId, Lsn)]) -> Vec<Vec<(ObjectId, Psn)>> {
        queries
            .iter()
            .map(|&(page, for_client, from_lsn)| self.callback_list_for(page, for_client, from_lsn))
            .collect()
    }

    /// §3.4 step 4: ship the cached copy of `page` (None if not cached).
    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>>;

    /// [`ship_cached_page`](Self::ship_cached_page) for many pages in one
    /// message; one copy (or `None`) per page, parallel to `pages`. A
    /// batch-aware client forces its log once for the whole batch. The
    /// default degrades to per-page calls.
    fn ship_cached_pages(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        pages.iter().map(|&p| self.ship_cached_page(p)).collect()
    }

    /// §3.4 final phase: replay the private log against `base` (which the
    /// server sends together with the PSN to install and the merged
    /// `CallBack_P` list) and return the recovered copy.
    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome;

    /// [`recover_page`](Self::recover_page) for many pages in one
    /// message; one outcome per job, parallel to `jobs`. A batch-aware
    /// client buckets the records of every page in a single scan of its
    /// log. The default degrades to per-page calls.
    fn recover_pages(&self, jobs: Vec<RecoverJob>) -> Vec<RecoveredPageOutcome> {
        jobs.into_iter()
            .map(|j| self.recover_page(j.page, j.base.to_vec(), j.install_psn, j.callback_list))
            .collect()
    }
}
