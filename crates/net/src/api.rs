//! The typed RPC surface between clients and the page server.
//!
//! Every client → server request is one [`Request`] variant and every
//! answer one [`Reply`] variant; the reverse direction (server → client
//! callbacks, flush notifications and recovery interrogation — the
//! [`crate::peer::ClientPeer`] surface) is a [`Callback`] /
//! [`CallbackReplyMsg`] pair. [`ServerApi`] is the trait both backends
//! implement: the in-process `ServerCore` (the deterministic sim fabric)
//! and the socket client stub (`crate::transport::socket::RemoteServer`).
//! Adding a message kind is therefore a compile-error-driven change in
//! this one module: the enums, [`dispatch`]/[`apply_callback`], and the
//! codec in [`crate::transport::frame`] all match exhaustively.
//!
//! Lock waits are the one request that must not block the transport:
//! [`dispatch`] returns [`Dispatched::LockWait`] instead of a reply, and
//! the socket backend maps the eventual grant onto the request's
//! correlation ID (see `transport::socket`).

use crate::peer::{
    CallbackOutcome, ClientPeer, ClientStateReport, RecoverJob, RecoveredPageOutcome,
};
use crate::wait::{GrantMsg, GrantWaiter};
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::LockTarget;
use fgl_locks::ObjMode;
use fgl_obs::Metrics;
use std::sync::Arc;

/// What the server hands a §3.5-recovering client for one page: the base
/// copy, the PSN the server can vouch for, and the merged `CallBack_P`
/// list.
pub type RecoverPagePlan = (Vec<u8>, Psn, Vec<(ObjectId, Psn)>);

/// A fetched page: its bytes plus the PSN the DCT remembers for the
/// fetching client.
pub type FetchedPage = (Vec<u8>, Option<Psn>);

/// The §3.3 handshake: the exclusive locks retained for the client and
/// the DCT view of its pages, plus whether that view is complete.
pub type RecoveryHandshake = (Vec<LockTarget>, Vec<(PageId, Option<Psn>)>, bool);

/// Immediate answer to a lock request.
pub enum LockResponse {
    /// Granted synchronously, with no page attached: the grantee fetches
    /// the page before it uses the lock.
    Granted {
        target: LockTarget,
        first_exclusive_on_page: bool,
        /// §3.1: last client to ship this page (and the shipped PSN) —
        /// the grantee writes a callback log record from it on exclusive
        /// grants.
        evidence: Option<(ClientId, Psn)>,
    },
    /// Decided synchronously, in the shape a queued request's waiter
    /// receives: a grant carries the server's copy of the page, so the
    /// grantee needs no fetch.
    Decided(GrantMsg),
    /// Queued at the GLM; block on the waiter.
    Wait(GrantWaiter),
}

/// Every request a client can make of the page server. One trait, two
/// implementations: the local runtime (direct calls on the counted sim
/// fabric) and the socket stub (frames over TCP/UDS). Object-safe on
/// purpose — clients hold `Arc<dyn ServerApi>`.
pub trait ServerApi: Send + Sync {
    // ---- registration ----
    fn register_client(&self, peer: Arc<dyn ClientPeer>);

    // ---- locking (§3.2) ----
    fn lock(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<LockResponse>;
    fn cancel_wait(&self, client: ClientId, txn: TxnId);
    fn callback_complete(
        &self,
        client: ClientId,
        kind: CallbackKind,
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    ) -> Result<()>;

    // ---- pages ----
    fn fetch_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)>;
    fn allocate_page(&self, client: ClientId, txn: TxnId) -> Result<Vec<u8>>;
    fn ship_page(&self, client: ClientId, bytes: Arc<[u8]>, replaced: bool) -> Result<()>;
    fn force_page(&self, client: ClientId, page: PageId) -> Result<()>;

    // ---- page batches (client restart, §3.3) ----
    /// [`fetch_page`](Self::fetch_page) for every page of `pages` in one
    /// request; the copies come back in input order. The default makes
    /// one `fetch_page` per page.
    fn fetch_pages(&self, client: ClientId, pages: &[PageId]) -> Result<Vec<FetchedPage>> {
        pages.iter().map(|&p| self.fetch_page(client, p)).collect()
    }
    /// [`ship_page`](Self::ship_page) for every frame of `pages` in one
    /// request. The default makes one `ship_page` per page.
    fn ship_pages(&self, client: ClientId, pages: Vec<Arc<[u8]>>, replaced: bool) -> Result<()> {
        pages
            .into_iter()
            .try_for_each(|bytes| self.ship_page(client, bytes, replaced))
    }
    /// [`force_page`](Self::force_page) for every page of `pages` in one
    /// request. The default makes one `force_page` per page.
    fn force_pages(&self, client: ClientId, pages: &[PageId]) -> Result<()> {
        pages.iter().try_for_each(|&p| self.force_page(client, p))
    }

    // ---- server-logging baselines (§4.1) ----
    /// §4.1 commit: force `records` to the server log. `touched` lists the
    /// pages the transaction dirtied — a routing hint a partitioned front
    /// end uses to ship only to owning instances (empty ⇒ ship everywhere).
    fn commit_ship_log(
        &self,
        client: ClientId,
        records: Vec<u8>,
        touched: Vec<PageId>,
    ) -> Result<()>;
    fn fetch_client_log(&self, client: ClientId) -> Result<Vec<u8>>;
    fn server_logging(&self) -> bool;

    // ---- crash/recovery (§3.3–§3.5) ----
    fn client_crashed(&self, client: ClientId);
    fn client_recovery_begin(
        &self,
        client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake>;
    fn client_recovery_end(&self, client: ClientId) -> Result<()>;
    fn recovery_fetch(
        &self,
        client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)>;
    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan>;
    fn poll_recovery_needs(&self, provider: ClientId) -> Vec<(PageId, Psn)>;
    fn install_recovered(&self, client: ClientId, bytes: Vec<u8>) -> Result<()>;

    // ---- shared handles (resolved locally by both backends) ----
    fn config(&self) -> &SystemConfig;
    fn config_shared(&self) -> Arc<SystemConfig>;
    fn metrics(&self) -> Arc<Metrics>;
}

/// A client → server request, minus the two implicit parameters every
/// wire request carries out-of-band: the [`ClientId`] (bound at the
/// connection handshake) and, for [`Request::Register`] /
/// [`Request::RecoveryBegin`], the peer handle (the connection itself).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Register,
    Lock {
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    },
    CancelWait {
        txn: TxnId,
    },
    CallbackComplete {
        kind: CallbackKind,
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    },
    FetchPage {
        page: PageId,
    },
    AllocatePage {
        txn: TxnId,
    },
    ShipPage {
        bytes: Arc<[u8]>,
        replaced: bool,
    },
    ForcePage {
        page: PageId,
    },
    FetchPages {
        pages: Vec<PageId>,
    },
    ShipPages {
        pages: Vec<Arc<[u8]>>,
        replaced: bool,
    },
    ForcePages {
        pages: Vec<PageId>,
    },
    CommitShipLog {
        records: Vec<u8>,
        /// Pages the committing transaction dirtied (partition routing hint).
        touched: Vec<PageId>,
    },
    FetchClientLog,
    ClientCrashed,
    RecoveryBegin,
    RecoveryEnd,
    RecoveryFetch {
        page: PageId,
        need: Option<(ClientId, Psn)>,
    },
    RecoverClientPage {
        page: PageId,
    },
    PollRecoveryNeeds,
    InstallRecovered {
        bytes: Vec<u8>,
    },
}

/// A server → client answer to a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Unit,
    Err(WireError),
    /// `lock` granted synchronously, with the page when the server
    /// attached it.
    LockGranted {
        target: LockTarget,
        first_exclusive_on_page: bool,
        evidence: Option<(ClientId, Psn)>,
        page: Option<Vec<u8>>,
    },
    /// `lock` queued at the GLM; the grant arrives later as a `Grant`
    /// frame carrying the same correlation ID.
    LockQueued,
    /// `fetch_page` / `recovery_fetch`: the page plus its DCT PSN.
    Page {
        bytes: Vec<u8>,
        psn: Option<Psn>,
    },
    /// `fetch_pages`: one page plus its DCT PSN per requested page, in
    /// request order.
    Pages(Vec<FetchedPage>),
    /// `allocate_page`: the freshly formatted page image.
    PageImage(Vec<u8>),
    /// `fetch_client_log`: raw log bytes.
    Bytes(Vec<u8>),
    /// `client_recovery_begin`.
    Handshake {
        locks: Vec<LockTarget>,
        pages: Vec<(PageId, Option<Psn>)>,
        dct_complete: bool,
    },
    /// `recover_client_page`.
    RecoverPlan {
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
    },
    /// `poll_recovery_needs`.
    Needs(Vec<(PageId, Psn)>),
}

/// [`FglError`] in a serializable shape. `Io` carries the error text;
/// `InvalidTxnState` decodes to [`FglError::Protocol`] (the static state
/// name cannot cross the wire) — the server never returns it to a remote
/// client in practice. The transaction-abort trio maps 1:1 so
/// [`FglError::is_transaction_abort`] survives a round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    Io(String),
    PageNotFound(PageId),
    ObjectNotFound(ObjectId),
    PageFull {
        page: PageId,
        needed: u64,
        free: u64,
    },
    DeadlockVictim(TxnId),
    LockTimeout(TxnId),
    TxnAborted(TxnId),
    InvalidTxnState {
        txn: TxnId,
        state: String,
    },
    UnknownSavepoint(String),
    LogFull,
    Corrupt(String),
    Disconnected(String),
    Protocol(String),
    Config(String),
}

impl From<&FglError> for WireError {
    fn from(e: &FglError) -> WireError {
        match e {
            FglError::Io(e) => WireError::Io(e.to_string()),
            FglError::PageNotFound(p) => WireError::PageNotFound(*p),
            FglError::ObjectNotFound(o) => WireError::ObjectNotFound(*o),
            FglError::PageFull { page, needed, free } => WireError::PageFull {
                page: *page,
                needed: *needed as u64,
                free: *free as u64,
            },
            FglError::DeadlockVictim(t) => WireError::DeadlockVictim(*t),
            FglError::LockTimeout(t) => WireError::LockTimeout(*t),
            FglError::TxnAborted(t) => WireError::TxnAborted(*t),
            FglError::InvalidTxnState { txn, state } => WireError::InvalidTxnState {
                txn: *txn,
                state: (*state).to_string(),
            },
            FglError::UnknownSavepoint(s) => WireError::UnknownSavepoint(s.clone()),
            FglError::LogFull => WireError::LogFull,
            FglError::Corrupt(s) => WireError::Corrupt(s.clone()),
            FglError::Disconnected(s) => WireError::Disconnected(s.clone()),
            FglError::Protocol(s) => WireError::Protocol(s.clone()),
            FglError::Config(s) => WireError::Config(s.clone()),
        }
    }
}

impl From<WireError> for FglError {
    fn from(e: WireError) -> FglError {
        match e {
            WireError::Io(s) => FglError::Io(std::io::Error::other(s)),
            WireError::PageNotFound(p) => FglError::PageNotFound(p),
            WireError::ObjectNotFound(o) => FglError::ObjectNotFound(o),
            WireError::PageFull { page, needed, free } => FglError::PageFull {
                page,
                needed: needed as usize,
                free: free as usize,
            },
            WireError::DeadlockVictim(t) => FglError::DeadlockVictim(t),
            WireError::LockTimeout(t) => FglError::LockTimeout(t),
            WireError::TxnAborted(t) => FglError::TxnAborted(t),
            WireError::InvalidTxnState { txn, state } => {
                FglError::Protocol(format!("invalid txn state for {txn:?}: {state}"))
            }
            WireError::UnknownSavepoint(s) => FglError::UnknownSavepoint(s),
            WireError::LogFull => FglError::LogFull,
            WireError::Corrupt(s) => FglError::Corrupt(s),
            WireError::Disconnected(s) => FglError::Disconnected(s),
            WireError::Protocol(s) => FglError::Protocol(s),
            WireError::Config(s) => FglError::Config(s),
        }
    }
}

/// A server → client reverse-RPC: the [`ClientPeer`] surface as wire
/// messages. `NotifyFlushed` is one-way; every other variant expects a
/// [`CallbackReplyMsg`] under the same correlation ID.
#[derive(Clone, Debug, PartialEq)]
pub enum Callback {
    /// Deliver a batch of lock callbacks (§3.2).
    DeliverBatch(Vec<CallbackKind>),
    /// §3.6 flush notification. One-way: no reply.
    NotifyFlushed(PageId),
    /// Server-restart interrogation: DPT, cached pages, locks (§3.4).
    ReportState,
    /// `CallBack_P` evidence (§3.4/§3.5): one `(page, for_client,
    /// from_lsn)` query per list wanted.
    CallbackListsFor(Vec<(PageId, ClientId, Lsn)>),
    /// §3.4 step 4: ship cached DPT pages back to the restarting server.
    ShipCachedPages(Vec<PageId>),
    /// §3.4 per-client page recovery: replay onto each job's base copy.
    RecoverPages(Vec<RecoverJob>),
}

/// A client → server answer to a [`Callback`].
#[derive(Clone, Debug, PartialEq)]
pub enum CallbackReplyMsg {
    /// Per-kind outcomes for `DeliverBatch`, in delivery order.
    Outcomes(Vec<CallbackOutcome>),
    State(ClientStateReport),
    /// One list per `CallbackListsFor` query, in query order.
    CallbackLists(Vec<Vec<(ObjectId, Psn)>>),
    /// One copy (or `None`: not cached) per `ShipCachedPages` page, in
    /// page order.
    CachedPages(Vec<Option<Arc<[u8]>>>),
    /// One outcome per `RecoverPages` job, in job order.
    RecoveredPages(Vec<RecoveredPageOutcome>),
}

impl Request {
    /// Whether a socket connection's reader may run this request itself
    /// instead of handing it to a worker. Only a request whose
    /// [`ServerApi`] method never waits on a [`ClientPeer`] reply
    /// qualifies: the reader is what delivers its own client's replies,
    /// so a reader-run request that waited on one would deadlock the
    /// connection (debug builds assert it never happens). Add a variant
    /// here only with that argument written down beside it.
    pub fn runs_on_reader(&self) -> bool {
        match self {
            // Short server mutexes, a disk read or write, and at most the
            // one-way `notify_page_flushed` of an eviction's flush.
            // A batch does the same per page, so it qualifies as well.
            Request::FetchPage { .. }
            | Request::ShipPage { .. }
            | Request::FetchPages { .. }
            | Request::ShipPages { .. } => true,
            // Lock, cancel and callback completion reach `drive`, which
            // delivers callbacks; `Register` installs this connection's
            // peer and the recovery requests wait on peers.
            // `AllocatePage`, `ForcePage`, `ForcePages` and
            // `CommitShipLog` wait on no peer either, but they are rare or
            // hold a log force, so they stay off the reader.
            Request::Register
            | Request::Lock { .. }
            | Request::CancelWait { .. }
            | Request::CallbackComplete { .. }
            | Request::AllocatePage { .. }
            | Request::ForcePage { .. }
            | Request::ForcePages { .. }
            | Request::CommitShipLog { .. }
            | Request::FetchClientLog
            | Request::ClientCrashed
            | Request::RecoveryBegin
            | Request::RecoveryEnd
            | Request::RecoveryFetch { .. }
            | Request::RecoverClientPage { .. }
            | Request::PollRecoveryNeeds
            | Request::InstallRecovered { .. } => false,
        }
    }

    /// The [`crate::MsgKind`] this request is accounted under on a real
    /// transport — the same classification the sim fabric uses.
    pub fn msg_kind(&self) -> crate::MsgKind {
        use crate::MsgKind::*;
        match self {
            Request::Register | Request::CancelWait { .. } | Request::ClientCrashed => Control,
            Request::AllocatePage { .. } => Control,
            Request::Lock { .. } => LockReq,
            Request::CallbackComplete { .. } => CallbackComplete,
            Request::FetchPage { .. } | Request::FetchPages { .. } => FetchPage,
            Request::ShipPage { .. }
            | Request::ShipPages { .. }
            | Request::InstallRecovered { .. } => PageShip,
            Request::ForcePage { .. } | Request::ForcePages { .. } => ForcePage,
            Request::CommitShipLog { .. } => CommitLogShip,
            Request::FetchClientLog
            | Request::RecoveryBegin
            | Request::RecoveryEnd
            | Request::RecoveryFetch { .. }
            | Request::RecoverClientPage { .. }
            | Request::PollRecoveryNeeds => Recovery,
        }
    }
}

impl Reply {
    /// Accounting classification by payload shape (a reply frame does not
    /// know which request it answers).
    pub fn msg_kind(&self) -> crate::MsgKind {
        use crate::MsgKind::*;
        match self {
            Reply::Unit | Reply::Err(_) => Control,
            Reply::LockGranted { .. } | Reply::LockQueued => LockReply,
            Reply::Page { .. } | Reply::Pages(_) | Reply::PageImage(_) => PageShip,
            Reply::Bytes(_)
            | Reply::Handshake { .. }
            | Reply::RecoverPlan { .. }
            | Reply::Needs(_) => Recovery,
        }
    }
}

impl Callback {
    pub fn msg_kind(&self) -> crate::MsgKind {
        match self {
            Callback::DeliverBatch(_) => crate::MsgKind::Callback,
            Callback::NotifyFlushed(_) => crate::MsgKind::FlushNotify,
            Callback::ReportState
            | Callback::CallbackListsFor(_)
            | Callback::ShipCachedPages(_)
            | Callback::RecoverPages(_) => crate::MsgKind::Recovery,
        }
    }
}

impl CallbackReplyMsg {
    pub fn msg_kind(&self) -> crate::MsgKind {
        use crate::MsgKind::*;
        match self {
            CallbackReplyMsg::Outcomes(_) => CallbackReply,
            CallbackReplyMsg::CachedPages(_) => PageShip,
            CallbackReplyMsg::State(_)
            | CallbackReplyMsg::CallbackLists(_)
            | CallbackReplyMsg::RecoveredPages(_) => Recovery,
        }
    }
}

/// Outcome of [`dispatch`]: either an immediate reply, or a queued lock
/// whose grant the transport must deliver out-of-band.
pub enum Dispatched {
    Reply(Reply),
    /// `lock` queued: send [`Reply::LockQueued`] now, then block on the
    /// waiter and deliver the [`crate::GrantMsg`] under the request's
    /// correlation ID.
    LockWait(GrantWaiter),
}

fn unit(r: Result<()>) -> Reply {
    match r {
        Ok(()) => Reply::Unit,
        Err(e) => Reply::Err(WireError::from(&e)),
    }
}

/// Route one decoded [`Request`] to the [`ServerApi`]. `peer` is the
/// reverse-RPC handle for this connection (consumed by `Register` and
/// `RecoveryBegin`). Never blocks on a lock queue: a queued `lock`
/// surfaces as [`Dispatched::LockWait`].
pub fn dispatch(
    api: &dyn ServerApi,
    client: ClientId,
    req: Request,
    peer: &Arc<dyn ClientPeer>,
) -> Dispatched {
    let reply = match req {
        Request::Register => {
            api.register_client(peer.clone());
            Reply::Unit
        }
        Request::Lock {
            txn,
            target,
            cached_psn,
        } => match api.lock(client, txn, target, cached_psn) {
            Ok(LockResponse::Granted {
                target,
                first_exclusive_on_page,
                evidence,
            }) => Reply::LockGranted {
                target,
                first_exclusive_on_page,
                evidence,
                page: None,
            },
            Ok(LockResponse::Decided(GrantMsg::Granted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            })) => Reply::LockGranted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            },
            Ok(LockResponse::Decided(GrantMsg::Victim)) => {
                Reply::Err(WireError::DeadlockVictim(txn))
            }
            Ok(LockResponse::Wait(w)) => return Dispatched::LockWait(w),
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::CancelWait { txn } => {
            api.cancel_wait(client, txn);
            Reply::Unit
        }
        Request::CallbackComplete {
            kind,
            retained,
            page_copy,
        } => unit(api.callback_complete(client, kind, retained, page_copy)),
        Request::FetchPage { page } => match api.fetch_page(client, page) {
            Ok((bytes, psn)) => Reply::Page { bytes, psn },
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::AllocatePage { txn } => match api.allocate_page(client, txn) {
            Ok(bytes) => Reply::PageImage(bytes),
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::ShipPage { bytes, replaced } => unit(api.ship_page(client, bytes, replaced)),
        Request::ForcePage { page } => unit(api.force_page(client, page)),
        Request::FetchPages { pages } => match api.fetch_pages(client, &pages) {
            Ok(copies) => Reply::Pages(copies),
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::ShipPages { pages, replaced } => unit(api.ship_pages(client, pages, replaced)),
        Request::ForcePages { pages } => unit(api.force_pages(client, &pages)),
        Request::CommitShipLog { records, touched } => {
            unit(api.commit_ship_log(client, records, touched))
        }
        Request::FetchClientLog => match api.fetch_client_log(client) {
            Ok(bytes) => Reply::Bytes(bytes),
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::ClientCrashed => {
            api.client_crashed(client);
            Reply::Unit
        }
        Request::RecoveryBegin => match api.client_recovery_begin(client, peer.clone()) {
            Ok((locks, pages, dct_complete)) => Reply::Handshake {
                locks,
                pages,
                dct_complete,
            },
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::RecoveryEnd => unit(api.client_recovery_end(client)),
        Request::RecoveryFetch { page, need } => match api.recovery_fetch(client, page, need) {
            Ok((bytes, psn)) => Reply::Page { bytes, psn },
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::RecoverClientPage { page } => match api.recover_client_page(client, page) {
            Ok((base, install_psn, callback_list)) => Reply::RecoverPlan {
                base,
                install_psn,
                callback_list,
            },
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        Request::PollRecoveryNeeds => Reply::Needs(api.poll_recovery_needs(client)),
        Request::InstallRecovered { bytes } => unit(api.install_recovered(client, bytes)),
    };
    Dispatched::Reply(reply)
}

/// Apply one decoded [`Callback`] to the local [`ClientPeer`]. Returns
/// `None` for the one-way `NotifyFlushed`.
pub fn apply_callback(peer: &dyn ClientPeer, cb: Callback) -> Option<CallbackReplyMsg> {
    match cb {
        Callback::DeliverBatch(kinds) => Some(CallbackReplyMsg::Outcomes(
            peer.deliver_callback_batch(&kinds),
        )),
        Callback::NotifyFlushed(page) => {
            peer.notify_page_flushed(page);
            None
        }
        Callback::ReportState => Some(CallbackReplyMsg::State(peer.report_state())),
        Callback::CallbackListsFor(queries) => Some(CallbackReplyMsg::CallbackLists(
            peer.callback_lists_for(&queries),
        )),
        Callback::ShipCachedPages(pages) => Some(CallbackReplyMsg::CachedPages(
            peer.ship_cached_pages(&pages),
        )),
        Callback::RecoverPages(jobs) => {
            Some(CallbackReplyMsg::RecoveredPages(peer.recover_pages(jobs)))
        }
    }
}

/// The reply a transport fabricates when the peer is unreachable —
/// byte-for-byte the same degraded answers `fgl-client`'s `PeerHandle`
/// gives for a dropped core, so a vanished client behaves identically on
/// both backends.
pub fn unreachable_callback_reply(cb: &Callback) -> Option<CallbackReplyMsg> {
    match cb {
        Callback::DeliverBatch(kinds) => Some(CallbackReplyMsg::Outcomes(
            kinds
                .iter()
                .map(|_| CallbackOutcome::Done {
                    retained: Vec::new(),
                    page_copy: None,
                })
                .collect(),
        )),
        Callback::NotifyFlushed(_) => None,
        Callback::ReportState => Some(CallbackReplyMsg::State(ClientStateReport::default())),
        Callback::CallbackListsFor(queries) => {
            Some(CallbackReplyMsg::CallbackLists(vec![
                Vec::new();
                queries.len()
            ]))
        }
        Callback::ShipCachedPages(pages) => {
            Some(CallbackReplyMsg::CachedPages(vec![None; pages.len()]))
        }
        Callback::RecoverPages(jobs) => Some(CallbackReplyMsg::RecoveredPages(vec![
            RecoveredPageOutcome::Failed(
                "client unreachable".into()
            );
            jobs.len()
        ])),
    }
}
