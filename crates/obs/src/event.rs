//! The typed event vocabulary: every load-bearing moment of the paper's
//! protocol, structured so tests and tools can consume it
//! programmatically (the old `fgl_trace!` emitted free-form strings).

use fgl_common::{ClientId, Lsn, PageId, Psn, TxnId};
use std::fmt;

/// Which log (and recovery path) an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogOwner {
    /// The server's global log (replacement records, checkpoints, §3.1).
    Server,
    /// A client's private log (client-based logging, §2).
    Client(ClientId),
}

/// The shape of a lock callback (§3.2), mirrored from
/// `fgl_locks::glm::CallbackKind` without depending on the locks crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallbackClass {
    ReleaseObject,
    DowngradeObject,
    ReleasePage,
    DowngradePage,
    DeEscalatePage,
}

/// A restart-recovery phase transition (§3.3 client, §3.4/§3.5 server).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// ARIES analysis over the private log (client, §3.3).
    Analysis,
    /// DCT-filtered redo pass (client, §3.3).
    Redo,
    /// Loser rollback (client, §3.3).
    Undo,
    /// Ship + force recovered pages, checkpoint (client).
    Harden,
    /// Gather client states, rebuild the GLM (server, §3.4 a+b).
    Gather,
    /// DCT reconstruction from checkpoint + replacement records (§3.4 c).
    DctRebuild,
    /// Coordinated per-(page, client) log replay (§3.4 d).
    Replay,
    /// Recovery finished.
    Done,
}

/// Where a socket endpoint gave up on a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketSite {
    /// The handshake of an accepted connection failed.
    Setup,
    /// Reading a frame failed mid-frame or on an I/O error.
    Read,
    /// A frame did not decode, or is of a kind its stream never carries.
    BadFrame,
    /// A client stub's `Register` request failed.
    Register,
}

/// What a trace span measures. Each kind is one bucket of the
/// critical-path breakdown the trace assembler computes (see
/// `crate::trace`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Root span: one commit attempt, opened in the client runtime.
    Commit,
    /// Waiting for a global lock grant (queued at the GLM).
    LockWait,
    /// Server-side callback round trip to one client.
    CallbackRtt,
    /// Forcing the WAL to its durable horizon (includes group-commit
    /// piggyback waits).
    WalForce,
    /// One counted-fabric message's simulated network latency.
    NetHop,
    /// Fetching a page copy from the server.
    PageFetch,
    /// Shipping commit-log records to the server.
    CommitLogShip,
}

impl SpanKind {
    /// Stable kebab-case tag (JSON, Chrome trace names).
    pub fn tag(&self) -> &'static str {
        match self {
            SpanKind::Commit => "commit",
            SpanKind::LockWait => "lock-wait",
            SpanKind::CallbackRtt => "callback-rtt",
            SpanKind::WalForce => "wal-force",
            SpanKind::NetHop => "net-hop",
            SpanKind::PageFetch => "page-fetch",
            SpanKind::CommitLogShip => "commit-log-ship",
        }
    }

    /// Every kind, in display order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Commit,
        SpanKind::LockWait,
        SpanKind::CallbackRtt,
        SpanKind::WalForce,
        SpanKind::NetHop,
        SpanKind::PageFetch,
        SpanKind::CommitLogShip,
    ];
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One structured protocol event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Client → server lock request arrived at the GLM (§3.2).
    LockRequest {
        client: ClientId,
        txn: TxnId,
        page: PageId,
        exclusive: bool,
    },
    /// The GLM granted a lock. `queued` distinguishes asynchronous grants
    /// (the requester parked and was woken) from synchronous ones.
    LockGrant {
        client: ClientId,
        txn: TxnId,
        page: PageId,
        queued: bool,
    },
    /// The GLM queued the request behind a conflict.
    LockQueue {
        client: ClientId,
        txn: TxnId,
        page: PageId,
    },
    /// A page lock was replaced by object locks (adaptive scheme, §3.2).
    DeEscalate { client: ClientId, page: PageId },
    /// Server → client callback sent (§3.2).
    CallbackIssued {
        to: ClientId,
        page: PageId,
        class: CallbackClass,
    },
    /// A per-destination batch of callbacks left the server as one
    /// message (`count` kinds coalesced).
    CallbackBatch { to: ClientId, count: u32 },
    /// The client deferred the callback (a local txn holds the lock).
    CallbackDeferred { from: ClientId, page: PageId },
    /// The callback completed (immediately or after a deferral).
    CallbackCompleted { from: ClientId, page: PageId },
    /// A page copy crossed the wire, with the PSN it carried.
    PageShip {
        client: ClientId,
        page: PageId,
        psn: Psn,
        to_server: bool,
    },
    /// The server merged an incoming copy into its current one (§3.1).
    PageMerge {
        from: ClientId,
        page: PageId,
        psn: Psn,
    },
    /// A log force completed; `lsn` is the new durable horizon.
    LogForce { owner: LogOwner, lsn: Lsn },
    /// A commit reached durability. `forced` is true when this committer
    /// ran the force itself, false when it piggybacked on a cohort
    /// member's in-flight force (group commit).
    GroupCommit {
        client: ClientId,
        txn: TxnId,
        forced: bool,
    },
    /// A fuzzy checkpoint was taken (§3.2).
    Checkpoint { owner: LogOwner, lsn: Lsn },
    /// The waits-for graph chose this transaction as a deadlock victim.
    DeadlockVictim { txn: TxnId },
    /// A lock wait hit the timeout backstop.
    LockTimeout {
        client: ClientId,
        txn: TxnId,
        page: PageId,
    },
    /// A transaction aborted (rollback complete).
    TxnAbort { client: ClientId, txn: TxnId },
    /// A restart-recovery phase began.
    RecoveryPhase {
        owner: LogOwner,
        phase: RecoveryPhase,
    },
    /// A §3.5 `recovery_fetch` stopped waiting for `provider`, a client
    /// still recovering, to carry `page` past `psn`, and served the
    /// current merged copy instead.
    RecoveryFetchTimeout {
        provider: ClientId,
        page: PageId,
        psn: Psn,
    },
    /// A socket connection failed at `site` and was dropped (the server)
    /// or left unregistered (a client stub). `client` is `None` when the
    /// handshake failed before naming one. Each site has its `socket_*`
    /// counter.
    SocketFault {
        client: Option<ClientId>,
        site: SocketSite,
    },
    /// A trace span opened. `parent` is the span id active in the opening
    /// context (0 = root). `txn` is the transaction the span belongs to
    /// (`TxnId(0)` when unknown at open time — the assembler resolves it
    /// through the parent chain).
    SpanOpen {
        id: u64,
        parent: u64,
        txn: TxnId,
        kind: SpanKind,
    },
    /// The span closed; its duration is `close.at_us - open.at_us`.
    SpanClose { id: u64 },
    /// The task carrying span `span` sat runnable in the scheduler queue
    /// for `wait_us` before a worker picked it up (emitted at pickup).
    SchedWait { span: u64, wait_us: u64 },
}

impl Event {
    /// Stable kebab-case tag for the event kind (JSON, filtering).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::LockRequest { .. } => "lock-request",
            Event::LockGrant { .. } => "lock-grant",
            Event::LockQueue { .. } => "lock-queue",
            Event::DeEscalate { .. } => "de-escalate",
            Event::CallbackIssued { .. } => "callback-issued",
            Event::CallbackBatch { .. } => "callback-batch",
            Event::CallbackDeferred { .. } => "callback-deferred",
            Event::CallbackCompleted { .. } => "callback-completed",
            Event::PageShip { .. } => "page-ship",
            Event::PageMerge { .. } => "page-merge",
            Event::LogForce { .. } => "log-force",
            Event::GroupCommit { .. } => "group-commit",
            Event::Checkpoint { .. } => "checkpoint",
            Event::DeadlockVictim { .. } => "deadlock-victim",
            Event::LockTimeout { .. } => "lock-timeout",
            Event::TxnAbort { .. } => "txn-abort",
            Event::RecoveryPhase { .. } => "recovery-phase",
            Event::RecoveryFetchTimeout { .. } => "recovery-fetch-timeout",
            Event::SocketFault { .. } => "socket-fault",
            Event::SpanOpen { .. } => "span-open",
            Event::SpanClose { .. } => "span-close",
            Event::SchedWait { .. } => "sched-wait",
        }
    }
}

impl fmt::Display for LogOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogOwner::Server => write!(f, "server"),
            LogOwner::Client(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::LockRequest {
                client,
                txn,
                page,
                exclusive,
            } => write!(
                f,
                "lock-request {client} txn={txn} {page} {}",
                if *exclusive { "X" } else { "S" }
            ),
            Event::LockGrant {
                client,
                txn,
                page,
                queued,
            } => write!(
                f,
                "lock-grant {client} txn={txn} {page}{}",
                if *queued { " (async)" } else { "" }
            ),
            Event::LockQueue { client, txn, page } => {
                write!(f, "lock-queue {client} txn={txn} {page}")
            }
            Event::DeEscalate { client, page } => write!(f, "de-escalate {client} {page}"),
            Event::CallbackIssued { to, page, class } => {
                write!(f, "callback-issued to {to} {page} {class:?}")
            }
            Event::CallbackBatch { to, count } => {
                write!(f, "callback-batch to {to} count={count}")
            }
            Event::CallbackDeferred { from, page } => {
                write!(f, "callback-deferred by {from} {page}")
            }
            Event::CallbackCompleted { from, page } => {
                write!(f, "callback-completed by {from} {page}")
            }
            Event::PageShip {
                client,
                page,
                psn,
                to_server,
            } => write!(
                f,
                "page-ship {page} {} {client} psn={psn:?}",
                if *to_server { "from" } else { "to" }
            ),
            Event::PageMerge { from, page, psn } => {
                write!(f, "page-merge {page} from {from} psn={psn:?}")
            }
            Event::LogForce { owner, lsn } => write!(f, "log-force {owner} lsn={lsn:?}"),
            Event::GroupCommit {
                client,
                txn,
                forced,
            } => write!(
                f,
                "group-commit {client} txn={txn} {}",
                if *forced { "forced" } else { "piggybacked" }
            ),
            Event::Checkpoint { owner, lsn } => write!(f, "checkpoint {owner} lsn={lsn:?}"),
            Event::DeadlockVictim { txn } => write!(f, "deadlock-victim txn={txn}"),
            Event::LockTimeout { client, txn, page } => {
                write!(f, "lock-timeout {client} txn={txn} {page}")
            }
            Event::TxnAbort { client, txn } => write!(f, "txn-abort {client} txn={txn}"),
            Event::RecoveryPhase { owner, phase } => {
                write!(f, "recovery-phase {owner} {phase:?}")
            }
            Event::RecoveryFetchTimeout {
                provider,
                page,
                psn,
            } => write!(
                f,
                "recovery-fetch-timeout {page} waiting on {provider} psn={psn:?}"
            ),
            Event::SocketFault { client, site } => match client {
                Some(c) => write!(f, "socket-fault {site:?} {c}"),
                None => write!(f, "socket-fault {site:?} before hello"),
            },
            Event::SpanOpen {
                id,
                parent,
                txn,
                kind,
            } => write!(f, "span-open {kind} id={id} parent={parent} txn={txn}"),
            Event::SpanClose { id } => write!(f, "span-close id={id}"),
            Event::SchedWait { span, wait_us } => {
                write!(f, "sched-wait span={span} {wait_us}us")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display_are_nonempty() {
        let evs = [
            Event::LockRequest {
                client: ClientId(1),
                txn: TxnId(2),
                page: PageId(3),
                exclusive: true,
            },
            Event::LockQueue {
                client: ClientId(1),
                txn: TxnId(2),
                page: PageId(3),
            },
            Event::DeEscalate {
                client: ClientId(1),
                page: PageId(3),
            },
            Event::PageMerge {
                from: ClientId(1),
                page: PageId(3),
                psn: Psn(9),
            },
            Event::RecoveryPhase {
                owner: LogOwner::Client(ClientId(1)),
                phase: RecoveryPhase::Redo,
            },
            Event::RecoveryFetchTimeout {
                provider: ClientId(2),
                page: PageId(3),
                psn: Psn(4),
            },
            Event::SocketFault {
                client: None,
                site: SocketSite::Setup,
            },
        ];
        for e in evs {
            assert!(!e.kind().is_empty());
            assert!(!format!("{e}").is_empty());
        }
    }
}
