//! The client runtime: the application-facing transactional API plus the
//! client half of every protocol in the paper.
//!
//! A client owns a page cache, a local lock manager, a **private log**
//! (client-based logging, §2/§3), a dirty page table, and a connection to
//! the page server. Transactions begin, update objects, take savepoints,
//! commit and roll back entirely here; under the paper's commit policy
//! the *only* I/O at commit is the force of the private log.
//!
//! Locking discipline (mirror of the server's): the single client-state
//! mutex is never held across a call into the server. Server→client
//! callbacks arrive on server-driving threads and take the same mutex.

use crate::cache::ClientCache;
use crate::txn::{TxnLogMode, TxnState, TxnStatus, UndoEntry};
use fgl_common::config::{CommitPolicy, LoggingStrategyKind};
use fgl_common::{
    ClientId, FglError, IdMap, IdSet, Lsn, ObjectId, PageId, Psn, Result, SlotId, SystemConfig,
    TxnId,
};
use fgl_locks::glm::CallbackKind;
use fgl_locks::llm::{LlmCore, LocalDecision};
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::api::{LockResponse, ServerApi};
use fgl_net::stats::NetSim;
use fgl_net::wait::GrantMsg;
use fgl_obs::{emit, Event, HistKind, LogOwner, Metrics};
use fgl_storage::page::Page;
use fgl_wal::manager::LogManager;
use fgl_wal::records::{LogPayload, RedoUpdateRecord, UndoSpillRecord, UpdateRecord};
use fgl_wal::store::{LogStore, MemLogStore};
use fgl_wal::{ForceTicket, GroupForce};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashSet;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client-side DPT entry (§3.2 + the §3.6 remembered-LSN refinement).
#[derive(Clone, Copy, Debug)]
pub struct DptState {
    /// Earliest log record that may need redo for the page.
    pub redo_lsn: Lsn,
    /// End of log remembered when the page was last shipped (§3.6).
    pub remembered: Option<Lsn>,
    /// Updated again since the last ship? Controls entry drop on flush.
    pub updated_since_ship: bool,
    /// Start of the newest log record naming the page: shipping the page
    /// needs the log durable past it (WAL), not the whole log.
    pub last_lsn: Lsn,
}

pub(crate) struct ClientState {
    pub llm: LlmCore,
    pub cache: ClientCache,
    pub wal: LogManager,
    pub dpt: IdMap<PageId, DptState>,
    pub txns: IdMap<TxnId, TxnState>,
    pub next_seq: u32,
    pub records_since_ckpt: u64,
    /// Pages that must be re-fetched from the server before next use
    /// (a global lock grant may mean the cached copy is stale, §2).
    pub refetch: IdSet<PageId>,
    /// ServerLog baseline: log bytes below this LSN were shipped.
    pub shipped_upto: Lsn,
    /// Dirty pages evicted from the cache whose ship to the server has
    /// not completed yet, as the wire frames being shipped
    /// (`Page::to_wire`). A callback racing that window must answer with
    /// this copy — otherwise the requester can fetch a stale server
    /// version and cache it under its fresh lock.
    pub in_transit: IdMap<PageId, Arc<[u8]>>,
    /// Emptied `dirtied` sets of finished transactions; `begin` hands one
    /// to the next transaction instead of allocating.
    pub spare_dirtied: Vec<IdSet<PageId>>,
    pub crashed: bool,
    /// First-use warm-up done (hot maps pre-sized, cache frame table
    /// reserved)? See [`ClientCore::warm_state`].
    pub warmed: bool,
}

impl ClientState {
    /// The WAL rule for shipping `pages`: force the log when a record
    /// naming one of them is not durable yet. Records of other pages
    /// (another transaction's pending updates) do not hold the ship up. A
    /// page without a DPT entry forces the whole log.
    pub(crate) fn force_for_pages<'a>(
        &mut self,
        pages: impl IntoIterator<Item = &'a PageId>,
    ) -> Result<()> {
        let mut upto = Lsn::NIL;
        for page in pages {
            match self.dpt.get(page) {
                Some(e) => upto = upto.max(e.last_lsn),
                None => return self.wal.force().map(drop),
            }
        }
        self.wal.force_up_to(upto)
    }
}

/// How a page copy leaves the client through [`ClientCore::gate`].
#[derive(Clone, Copy)]
pub(crate) enum Exit<'a> {
    /// A callback's batch reply or deferred completion (§3.2). A clean
    /// page answers with its stash: a copy an earlier exit may still have
    /// in flight. The stash stays until a synchronous exit replaces it.
    Callback,
    /// A synchronous ship ([`ClientCore::ship_pages`]); its stash goes
    /// when the server's reply comes back.
    Sync,
    /// The dirty page the cache just evicted: the copy is taken from it.
    /// Its stash goes once the ship returns, as a synchronous one's.
    Evicted(&'a Page),
    /// §3.4 step 4: every cached page ships, clean or dirty, and stays as
    /// it is: dirty, with no ship point and no stash.
    Restart,
}

/// One page through [`ClientCore::gate`]: the page goes in, and the gate
/// fills in the copy that leaves, if any.
pub(crate) struct Leaving {
    pub page: PageId,
    pub copy: Option<Arc<[u8]>>,
    /// The page's §3.6 ship point, set between the gate's spills and its
    /// force.
    at: Option<Lsn>,
}

impl Leaving {
    pub(crate) fn new(page: PageId) -> Self {
        Leaving {
            page,
            copy: None,
            at: None,
        }
    }
}

/// Per-client counters reported by experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    pub commits: u64,
    pub aborts: u64,
    pub deadlock_victims: u64,
    pub lock_timeouts: u64,
    pub local_grants: u64,
    pub global_lock_requests: u64,
    pub pages_shipped: u64,
    pub forced_flush_requests: u64,
    pub checkpoints: u64,
    pub log_forces: u64,
    pub log_bytes: u64,
    pub log_stall_events: u64,
    /// Group commit: commits that ran the force themselves.
    pub commits_forced: u64,
    /// Group commit: commits covered by a cohort member's force.
    pub commits_piggybacked: u64,
}

impl ClientStats {
    /// Every count as a `(name, value)` pair; the unified snapshot
    /// reports each as `client_<name>`, summed over the clients.
    pub fn counts(&self) -> [(&'static str, u64); 14] {
        [
            ("commits", self.commits),
            ("aborts", self.aborts),
            ("deadlock_victims", self.deadlock_victims),
            ("lock_timeouts", self.lock_timeouts),
            ("local_grants", self.local_grants),
            ("global_lock_requests", self.global_lock_requests),
            ("pages_shipped", self.pages_shipped),
            ("forced_flush_requests", self.forced_flush_requests),
            ("checkpoints", self.checkpoints),
            ("log_forces", self.log_forces),
            ("log_bytes", self.log_bytes),
            ("log_stall_events", self.log_stall_events),
            ("commits_forced", self.commits_forced),
            ("commits_piggybacked", self.commits_piggybacked),
        ]
    }
}

/// `st` locked for the private log's group force.
struct WalGuard<'a>(MutexGuard<'a, ClientState>);

impl Deref for WalGuard<'_> {
    type Target = LogManager;
    fn deref(&self) -> &LogManager {
        &self.0.wal
    }
}

impl DerefMut for WalGuard<'_> {
    fn deref_mut(&mut self) -> &mut LogManager {
        &mut self.0.wal
    }
}

/// The client runtime.
pub struct ClientCore {
    id: ClientId,
    /// Shared with the server and every sibling client — the config is
    /// read-mostly, so N clients hold N refcounts, not N copies.
    cfg: Arc<SystemConfig>,
    pub server: Arc<dyn ServerApi>,
    pub net: Arc<NetSim>,
    pub(crate) st: Mutex<ClientState>,
    /// Woken on callback completion / flush notification / txn end.
    pub(crate) cv: Condvar,
    /// Group commit of the private log, which itself stays under `st`.
    group: GroupForce,
    /// Shared with the server: one registry covers the whole system.
    pub(crate) metrics: Arc<Metrics>,
    /// Set on first transactional activity. Aggregations over huge client
    /// populations ([`stats`](Self::stats), `wal_bytes_by_kind`) short-
    /// circuit untouched clients without taking their state mutex.
    touched: AtomicBool,
    commits: AtomicU64,
    aborts: AtomicU64,
    deadlock_victims: AtomicU64,
    lock_timeouts: AtomicU64,
    local_grants: AtomicU64,
    global_lock_requests: AtomicU64,
    pages_shipped: AtomicU64,
    forced_flush_requests: AtomicU64,
    checkpoints: AtomicU64,
    log_stall_events: AtomicU64,
    commits_forced: AtomicU64,
    commits_piggybacked: AtomicU64,
}

/// Where a transaction's log chain stands, read under the state mutex by
/// [`ClientCore::operate`] and handed to the operation's body.
#[derive(Clone, Copy)]
struct TxnPos {
    /// The transaction's most recent record (ARIES PrevLSN).
    prev: Lsn,
    /// Its log mode, once the first update fixed it.
    mode: Option<TxnLogMode>,
}

impl ClientCore {
    /// Create a client over an in-memory private log (the common case for
    /// experiments; exact crash semantics).
    pub fn new(id: ClientId, server: Arc<dyn ServerApi>, net: Arc<NetSim>) -> Arc<Self> {
        Self::with_log_store(id, server, net, Box::new(MemLogStore::new()))
    }

    /// Re-open a client over an *existing* private log (e.g. a fresh
    /// process restarting over the crashed one's log file, §2: restart
    /// recovery may run anywhere with access to the log). The instance
    /// starts in the crashed state; call [`Self::recover`].
    pub fn reopen_with_log_store(
        id: ClientId,
        server: Arc<dyn ServerApi>,
        net: Arc<NetSim>,
        log_store: Box<dyn LogStore>,
    ) -> Result<Arc<Self>> {
        let cfg = server.config_shared();
        let wal = LogManager::recover(log_store, cfg.client_log_bytes)?;
        let core = Self::with_parts(id, server, net, wal, true);
        Ok(core)
    }

    /// Create a client whose private log lives on the given store.
    pub fn with_log_store(
        id: ClientId,
        server: Arc<dyn ServerApi>,
        net: Arc<NetSim>,
        log_store: Box<dyn LogStore>,
    ) -> Arc<Self> {
        let wal = LogManager::new(log_store, server.config().client_log_bytes);
        Self::with_parts(id, server, net, wal, false)
    }

    fn with_parts(
        id: ClientId,
        server: Arc<dyn ServerApi>,
        net: Arc<NetSim>,
        mut wal: LogManager,
        crashed: bool,
    ) -> Arc<Self> {
        let cfg = server.config_shared();
        let metrics = server.metrics();
        wal.attach_obs(metrics.clone(), LogOwner::Client(id));
        let state = ClientState {
            llm: LlmCore::new(cfg.granularity, cfg.update_policy),
            cache: ClientCache::new(cfg.client_cache_pages),
            wal,
            dpt: IdMap::default(),
            txns: IdMap::default(),
            next_seq: 0,
            records_since_ckpt: 0,
            refetch: IdSet::default(),
            shipped_upto: Lsn(1),
            in_transit: IdMap::default(),
            spare_dirtied: Vec::new(),
            crashed,
            warmed: false,
        };
        let group = GroupForce::new(cfg.disk_latency);
        let core = Arc::new(ClientCore {
            id,
            cfg,
            server,
            net,
            st: Mutex::new(state),
            cv: Condvar::new(),
            group,
            metrics,
            touched: AtomicBool::new(crashed),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            deadlock_victims: AtomicU64::new(0),
            lock_timeouts: AtomicU64::new(0),
            local_grants: AtomicU64::new(0),
            global_lock_requests: AtomicU64::new(0),
            pages_shipped: AtomicU64::new(0),
            forced_flush_requests: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            log_stall_events: AtomicU64::new(0),
            commits_forced: AtomicU64::new(0),
            commits_piggybacked: AtomicU64::new(0),
        });
        if !crashed {
            core.server
                .register_client(Arc::new(crate::peer::PeerHandle::new(&core)));
        }
        core
    }

    pub fn id(&self) -> ClientId {
        self.id
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// First-use warm-up: pre-size the hot per-client containers to their
    /// steady-state capacities so the transaction path never grows them
    /// from empty. Runs at the first `begin`, so never-active clients
    /// skip the cost entirely.
    fn warm_state(st: &mut ClientState, cfg: &SystemConfig) {
        st.cache.warm();
        // The DPT tracks dirty cached pages, so the cache capacity bounds
        // its steady state (evictions move entries to `in_transit`).
        st.dpt.reserve(cfg.client_cache_pages);
        // Concurrent local transactions (group-commit cohorts) stay small
        // by the paper's one-transaction-at-a-time-per-client model.
        st.txns.reserve(8);
        st.in_transit.reserve(8);
        // A refetch entry exists per stale-while-locked cached page; the
        // steady state is a small fraction of the cache, never zero —
        // pre-sizing keeps the lock path off the allocator.
        st.refetch.reserve(8);
        st.warmed = true;
    }

    /// Mark this client active (see the `touched` field).
    pub(crate) fn touch(&self) {
        if !self.touched.load(Ordering::Relaxed) {
            self.touched.store(true, Ordering::Release);
        }
    }

    /// Has this client ever run a transaction (or been reopened from an
    /// existing log)? Cheap — no state lock. Population-wide aggregations
    /// use this as the active-client set.
    pub fn is_touched(&self) -> bool {
        self.touched.load(Ordering::Acquire)
    }

    /// Capacities of the hot per-client maps `(dpt, txns, in_transit)` —
    /// introspection for the scaling tests that pin down the lazy-init /
    /// pre-sizing behavior.
    pub fn hot_map_capacities(&self) -> (usize, usize, usize) {
        let st = self.st.lock();
        (
            st.dpt.capacity(),
            st.txns.capacity(),
            st.in_transit.capacity(),
        )
    }

    pub fn stats(&self) -> ClientStats {
        if !self.is_touched() {
            // Never active: every counter is zero and the WAL is empty.
            // Skipping the state lock keeps whole-population aggregation
            // O(active), not O(clients × mutex).
            return ClientStats::default();
        }
        let st = self.st.lock();
        let (_, log_bytes, log_forces) = st.wal.stats();
        ClientStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            deadlock_victims: self.deadlock_victims.load(Ordering::Relaxed),
            lock_timeouts: self.lock_timeouts.load(Ordering::Relaxed),
            local_grants: self.local_grants.load(Ordering::Relaxed),
            global_lock_requests: self.global_lock_requests.load(Ordering::Relaxed),
            pages_shipped: self.pages_shipped.load(Ordering::Relaxed),
            forced_flush_requests: self.forced_flush_requests.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            log_forces,
            log_bytes,
            log_stall_events: self.log_stall_events.load(Ordering::Relaxed),
            commits_forced: self.commits_forced.load(Ordering::Relaxed),
            commits_piggybacked: self.commits_piggybacked.load(Ordering::Relaxed),
        }
    }

    // ---- transaction lifecycle -------------------------------------------

    /// Begin a new transaction.
    pub fn begin(&self) -> Result<TxnId> {
        self.touch();
        loop {
            let mut st = self.st.lock();
            if st.crashed {
                return Err(FglError::Disconnected("client crashed".into()));
            }
            if !st.warmed {
                Self::warm_state(&mut st, &self.cfg);
            }
            st.next_seq += 1;
            let txn = TxnId::compose(self.id, st.next_seq);
            let lsn = match self.append(&mut st, &LogPayload::Begin { txn }, false) {
                Ok(l) => l,
                Err(FglError::LogFull) => {
                    st.next_seq -= 1;
                    drop(st);
                    self.log_stall_events.fetch_add(1, Ordering::Relaxed);
                    self.reclaim_log_space()?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            let mut t = TxnState::new(txn);
            if let Some(spare) = st.spare_dirtied.pop() {
                t.dirtied = spare;
            }
            t.note_record(lsn);
            st.txns.insert(txn, t);
            return Ok(txn);
        }
    }

    /// Commit. Under client-based logging this forces the *private* log
    /// and nothing else (the paper's headline property).
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        self.commit_with(txn, || {})
    }

    /// Commit, running `before_release` after the commit is durable but
    /// *before* the transaction's locks are released — the window in
    /// which external bookkeeping (e.g. a serialization-order oracle) can
    /// observe the commit without racing the next writer of the same
    /// objects.
    pub fn commit_with(&self, txn: TxnId, before_release: impl FnOnce()) -> Result<()> {
        let commit_start = self.metrics.now_us();
        let _span = fgl_obs::trace::span(fgl_obs::SpanKind::Commit, txn);
        let (shipment, group_force_ticket) = {
            let mut st = self.st.lock();
            let t = st.txns.get_mut(&txn).ok_or(FglError::InvalidTxnState {
                txn,
                state: "unknown",
            })?;
            if !t.is_active() {
                return Err(FglError::InvalidTxnState {
                    txn,
                    state: "terminated",
                });
            }
            let prev = t.last_lsn;
            // Marked before the append, which can itself trip a checkpoint.
            t.commit_logged = true;
            let logged = self.append_critical(
                &mut st,
                &LogPayload::Commit {
                    txn,
                    prev_lsn: prev,
                },
            );
            if let Err(e) = logged {
                // A commit that failed leaves an active transaction for
                // the caller to abort.
                if let Some(t) = st.txns.get_mut(&txn) {
                    t.commit_logged = false;
                }
                return Err(e);
            }
            match self.cfg.commit_policy {
                CommitPolicy::ClientLog => {
                    // The commit record becomes durable *after* the state
                    // mutex drops (`group_force`), so concurrent committers
                    // can append behind us and share the force.
                    (None, Some(st.wal.force_ticket()))
                }
                CommitPolicy::ServerLog | CommitPolicy::ShipPagesAtCommit => {
                    // ARIES/CSA shape: the durable copy of the log lives at
                    // the server; ship the unshipped suffix.
                    let from = st.shipped_upto;
                    let to = st.wal.end_lsn();
                    let bytes = st.wal.read_raw(from, to)?;
                    st.shipped_upto = to;
                    // The local store is volatile under this policy, but
                    // mark it durable so local scans (rollback) still work.
                    st.wal.force()?;
                    let dirtied: Vec<PageId> = st.txns[&txn].dirtied.iter().copied().collect();
                    (Some((bytes, dirtied)), None)
                }
            }
        };
        if let Some(ticket) = group_force_ticket {
            self.group_force(txn, ticket)?;
        }
        if let Some((bytes, dirtied)) = shipment {
            // The dirtied-page set doubles as the partition-routing hint:
            // a multi-server front end ships only to the owners of these
            // pages (one serialized force for a partition-local txn).
            self.server
                .commit_ship_log(self.id, bytes, dirtied.clone())?;
            if self.cfg.commit_policy == CommitPolicy::ShipPagesAtCommit {
                for page in dirtied {
                    self.ship_pages(&[page], false)?;
                }
            }
        }
        // Durable, and a checkpoint already leaves it out
        // (`commit_logged`): the transaction only has its locks to shed.
        before_release();
        self.commits.fetch_add(1, Ordering::Relaxed);
        let released = self.finish_txn(txn);
        self.metrics.observe_since(HistKind::Commit, commit_start);
        released
    }

    /// Group commit (client-based logging): make the commit record that
    /// `ticket` ends durable before the commit returns. Concurrent
    /// committers share the device force ([`GroupForce`]).
    fn group_force(&self, txn: TxnId, ticket: ForceTicket) -> Result<()> {
        let wait_start = self.metrics.now_us();
        // Covers the whole durability wait: leader device time and
        // piggybacked waits alike.
        let _span = fgl_obs::trace::span(fgl_obs::SpanKind::WalForce, txn);
        let forced = self.group.force(ticket, || WalGuard(self.st.lock()))?;
        self.metrics
            .observe_since(HistKind::GroupCommit, wait_start);
        if forced {
            self.commits_forced.fetch_add(1, Ordering::Relaxed);
        } else {
            self.commits_piggybacked.fetch_add(1, Ordering::Relaxed);
        }
        emit(Event::GroupCommit {
            client: self.id,
            txn,
            forced,
        });
        Ok(())
    }

    /// Roll back and terminate the transaction.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        self.rollback_chain(txn, Lsn::NIL)?;
        {
            let mut st = self.st.lock();
            let prev = st.txns.get(&txn).map(|t| t.last_lsn).unwrap_or(Lsn::NIL);
            self.append_critical(
                &mut st,
                &LogPayload::Abort {
                    txn,
                    prev_lsn: prev,
                },
            )?;
            if let Some(t) = st.txns.get_mut(&txn) {
                t.status = TxnStatus::Aborted;
            }
        }
        emit(Event::TxnAbort {
            client: self.id,
            txn,
        });
        self.aborts.fetch_add(1, Ordering::Relaxed);
        self.finish_txn(txn)
    }

    /// Establish (or move) a named savepoint (§3.2 partial rollbacks).
    pub fn savepoint(&self, txn: TxnId, name: &str) -> Result<()> {
        let mut st = self.st.lock();
        let t =
            st.txns
                .get_mut(&txn)
                .filter(|t| t.is_active())
                .ok_or(FglError::InvalidTxnState {
                    txn,
                    state: "not active",
                })?;
        t.set_savepoint(name);
        Ok(())
    }

    /// Partial rollback to a named savepoint; the transaction continues.
    pub fn rollback_to(&self, txn: TxnId, name: &str) -> Result<()> {
        let upto =
            {
                let st = self.st.lock();
                let t = st.txns.get(&txn).filter(|t| t.is_active()).ok_or(
                    FglError::InvalidTxnState {
                        txn,
                        state: "not active",
                    },
                )?;
                t.savepoint_lsn(name)
                    .ok_or_else(|| FglError::UnknownSavepoint(name.to_string()))?
            };
        self.rollback_chain(txn, upto)?;
        let mut st = self.st.lock();
        if let Some(t) = st.txns.get_mut(&txn) {
            t.truncate_savepoints(upto);
        }
        Ok(())
    }

    /// Release lock pins, complete deferred callbacks, drop the txn.
    fn finish_txn(&self, txn: TxnId) -> Result<()> {
        let (completions, low_space) = {
            let mut st = self.st.lock();
            if let Some(mut t) = st.txns.remove(&txn) {
                t.dirtied.clear();
                st.spare_dirtied.push(t.dirtied);
            }
            let completions = st.llm.end_txn(txn);
            let low = st.wal.free_bytes() < st.wal.capacity() / 8;
            (completions, low)
        };
        self.cv.notify_all();
        if low_space {
            // Proactive §3.6 reclamation at a transaction boundary, while
            // there is still headroom for the checkpoint record it needs.
            let _ = self.reclaim_log_space();
        }
        // Cross-server commit atomicity: end-of-transaction callback
        // completions must land on every touched partition before the
        // transaction's locks are considered released. Group by owning
        // partition and drive the groups in parallel — the client paid
        // its single WAL force already, so the partitions' round-trips
        // overlap (max, not sum).
        let instances = self.cfg.server_instances;
        if instances > 1 && completions.len() > 1 {
            let mut groups: Vec<Vec<_>> = (0..instances).map(|_| Vec::new()).collect();
            for c in completions {
                groups[(c.0.page().0 % instances as u64) as usize].push(c);
            }
            let groups: Vec<_> = groups.into_iter().filter(|g| !g.is_empty()).collect();
            return fgl_sched::fan_out(groups, |group| self.deliver_completions(group))
                .into_iter()
                .collect();
        }
        self.deliver_completions(completions)
    }

    /// Ship one partition's worth of deferred-callback completions, in
    /// order, each with its page copy under WAL discipline.
    fn deliver_completions(
        &self,
        completions: Vec<(CallbackKind, fgl_locks::glm::CallbackReply)>,
    ) -> Result<()> {
        for (kind, reply) in completions {
            let retained = match reply {
                fgl_locks::glm::CallbackReply::Done { retained } => retained,
                _ => Vec::new(),
            };
            let page_copy = self.page_copy_for_callback(kind)?;
            self.server
                .callback_complete(self.id, kind, retained, page_copy)?;
        }
        Ok(())
    }

    /// When a completed callback sheds a lock on a dirtied page, ship the
    /// copy with the completion (§3.2) through the gate, exactly as a
    /// batch reply does (DESIGN §6.12): until the server absorbs this
    /// completion, a callback wave racing it finds the page clean and
    /// answers with the stashed copy. For the same reason a completion
    /// that finds the page clean re-ships a stashed copy, which an earlier
    /// exit may still be carrying.
    pub(crate) fn page_copy_for_callback(&self, kind: CallbackKind) -> Result<Option<Arc<[u8]>>> {
        let mut st = self.st.lock();
        let mut one = [Leaving::new(kind.page())];
        self.gate(&mut st, Exit::Callback, &mut one)?;
        if !matches!(kind, CallbackKind::DeEscalatePage(_)) {
            self.drop_if_unlocked(&mut st, kind.page());
        }
        let [Leaving { copy, .. }] = one;
        Ok(copy)
    }

    /// §3.2: after releasing locks, drop the page from the cache when no
    /// lock on it remains.
    fn drop_if_unlocked(&self, st: &mut ClientState, page: PageId) {
        if !st.llm.holds_any_on_page(page) {
            st.cache.remove(page);
        }
    }

    // ---- object operations --------------------------------------------------

    /// Read an object's bytes under a shared lock.
    pub fn read(&self, txn: TxnId, oid: ObjectId) -> Result<Vec<u8>> {
        self.operate(txn, oid, ObjMode::S, false, |st, _| {
            let page = st
                .cache
                .peek(oid.page)
                .ok_or(FglError::PageNotFound(oid.page))?;
            Ok(page.read_object(oid.slot)?.to_vec())
        })
    }

    /// Overwrite an object without changing its size (mergeable, §3.1).
    pub fn write(&self, txn: TxnId, oid: ObjectId, bytes: &[u8]) -> Result<()> {
        self.logged_update(txn, oid, false, |page| {
            let before = page.read_object(oid.slot)?.to_vec();
            if before.len() != bytes.len() {
                return Err(FglError::Protocol(format!(
                    "write: size change on {oid} needs resize",
                )));
            }
            Ok((Some(before), Some(bytes.to_vec())))
        })
    }

    /// Overwrite part of an object (mergeable).
    pub fn write_at(&self, txn: TxnId, oid: ObjectId, offset: usize, bytes: &[u8]) -> Result<()> {
        self.logged_update(txn, oid, false, |page| {
            let before = page.read_object(oid.slot)?.to_vec();
            if offset + bytes.len() > before.len() {
                return Err(FglError::Protocol(format!(
                    "write_at: range past end of {oid}",
                )));
            }
            let mut after = before.clone();
            after[offset..offset + bytes.len()].copy_from_slice(bytes);
            Ok((Some(before), Some(after)))
        })
    }

    /// Create a new object on `page` (structural: needs the page
    /// exclusively, §3.1). Returns its id.
    pub fn insert(&self, txn: TxnId, page: PageId, bytes: &[u8]) -> Result<ObjectId> {
        // Structural lock on the page.
        let probe = ObjectId::new(page, SlotId(0));
        self.operate(txn, probe, ObjMode::X, true, |st, at| {
            let p = st.cache.peek(page).ok_or(FglError::PageNotFound(page))?;
            let oid = ObjectId::new(page, p.peek_insert_slot());
            let psn_before = p.psn();
            let (mode, lsn) = self.log_update(
                st,
                txn,
                at,
                oid,
                psn_before,
                &mut None,
                &mut Some(bytes.to_vec()),
                true,
            )?;
            let p = st.cache.get_mut(page).ok_or(FglError::PageNotFound(page))?;
            let got = p.insert_object(bytes)?;
            debug_assert_eq!(got, oid.slot);
            self.note_mem_undo(st, mode, txn, oid, lsn, None);
            self.after_update(st, txn, oid, lsn);
            st.llm.register_object_use(txn, oid, ObjMode::X);
            Ok(oid)
        })
    }

    /// Delete an object (structural).
    pub fn remove(&self, txn: TxnId, oid: ObjectId) -> Result<()> {
        self.logged_update(txn, oid, true, |page| {
            let before = page.read_object(oid.slot)?.to_vec();
            Ok((Some(before), None))
        })
    }

    /// Resize an object, preserving the common prefix (structural).
    pub fn resize(&self, txn: TxnId, oid: ObjectId, new_len: usize) -> Result<()> {
        self.logged_update(txn, oid, true, |page| {
            let before = page.read_object(oid.slot)?.to_vec();
            let mut after = before.clone();
            after.resize(new_len, 0);
            Ok((Some(before), Some(after)))
        })
    }

    /// Allocate a fresh page from the server; the creator holds it
    /// exclusively.
    pub fn create_page(&self, txn: TxnId) -> Result<PageId> {
        {
            let st = self.st.lock();
            if !st.txns.get(&txn).map(|t| t.is_active()).unwrap_or(false) {
                return Err(FglError::InvalidTxnState {
                    txn,
                    state: "not active",
                });
            }
        }
        let bytes = self.server.allocate_page(self.id, txn)?;
        let page = Page::from_wire(&bytes, self.cfg.page_size)?;
        let pid = page.id();
        let evicted = {
            let mut st = self.st.lock();
            st.llm.grant_page_lock(txn, pid, ObjMode::X);
            Self::ensure_dpt(&mut st, pid);
            let ev = st.cache.install_exact(page, false);
            self.gate_evicted(&mut st, ev)?
        };
        self.handle_evicted(evicted)?;
        Ok(pid)
    }

    /// Apply a logged single-object update under one guard: compute the
    /// before/after images from the page, append the log record first
    /// (WAL), then mutate.
    fn logged_update<F>(&self, txn: TxnId, oid: ObjectId, structural: bool, f: F) -> Result<()>
    where
        F: Fn(&Page) -> Result<(Option<Vec<u8>>, Option<Vec<u8>>)>,
    {
        self.operate(txn, oid, ObjMode::X, structural, |st, at| {
            let page = st
                .cache
                .peek(oid.page)
                .ok_or(FglError::PageNotFound(oid.page))?;
            let (mut before, mut after) = f(page)?;
            let psn_before = page.psn();
            let (mode, lsn) = self.log_update(
                st,
                txn,
                at,
                oid,
                psn_before,
                &mut before,
                &mut after,
                structural,
            )?;
            let p = st
                .cache
                .get_mut(oid.page)
                .ok_or(FglError::PageNotFound(oid.page))?;
            match (&before, &after) {
                (Some(_), Some(a)) => {
                    if p.read_object(oid.slot)?.len() == a.len() {
                        p.write_object(oid.slot, a)?;
                    } else {
                        p.free_object(oid.slot)?;
                        p.insert_object_at(oid.slot, a)?;
                    }
                }
                (Some(_), None) => {
                    p.free_object(oid.slot)?;
                }
                (None, Some(a)) => {
                    p.insert_object_at(oid.slot, a)?;
                }
                (None, None) => {}
            }
            self.note_mem_undo(st, mode, txn, oid, lsn, before);
            self.after_update(st, txn, oid, lsn);
            Ok(())
        })
    }

    /// Append the log record of one object update (WAL: before the page
    /// changes); returns the transaction's log mode and the record's LSN.
    /// The mode is fixed at the transaction's first update by the
    /// configured strategy; redo-only is Sauer & Härder's mode (arXiv
    /// 1409.3682). The record is lent the images it carries — both for a
    /// physical record, the after-image for a redo-only one, whose
    /// before-image goes on the in-memory undo stack instead — and hands
    /// them back after the append.
    #[allow(clippy::too_many_arguments)]
    fn log_update(
        &self,
        st: &mut ClientState,
        txn: TxnId,
        at: TxnPos,
        oid: ObjectId,
        psn_before: Psn,
        before: &mut Option<Vec<u8>>,
        after: &mut Option<Vec<u8>>,
        structural: bool,
    ) -> Result<(TxnLogMode, Lsn)> {
        let mode = at.mode.unwrap_or_else(|| {
            let mode = match self.cfg.logging_strategy {
                LoggingStrategyKind::ClientAries => TxnLogMode::Physical,
                LoggingStrategyKind::RedoOnly => TxnLogMode::RedoOnly,
            };
            if let Some(t) = st.txns.get_mut(&txn) {
                t.log_mode = Some(mode);
            }
            mode
        });
        let record = match mode {
            TxnLogMode::Physical => LogPayload::Update(UpdateRecord {
                txn,
                prev_lsn: at.prev,
                object: oid,
                psn_before,
                before: before.take(),
                after: after.take(),
                structural,
            }),
            TxnLogMode::RedoOnly => LogPayload::RedoUpdate(RedoUpdateRecord {
                txn,
                prev_lsn: at.prev,
                object: oid,
                psn_before,
                after: after.take(),
                structural,
            }),
        };
        let lsn = self.append(st, &record, false)?;
        match record {
            LogPayload::Update(u) => (*before, *after) = (u.before, u.after),
            LogPayload::RedoUpdate(u) => *after = u.after,
            _ => {}
        }
        Ok((mode, lsn))
    }

    /// RedoOnly mode keeps undo state in memory: push the before-image.
    fn note_mem_undo(
        &self,
        st: &mut ClientState,
        mode: TxnLogMode,
        txn: TxnId,
        oid: ObjectId,
        lsn: Lsn,
        before: Option<Vec<u8>>,
    ) {
        if mode != TxnLogMode::RedoOnly {
            return;
        }
        if let Some(t) = st.txns.get_mut(&txn) {
            t.cold_mut().undo.push(UndoEntry {
                lsn,
                object: oid,
                before,
            });
        }
    }

    pub(crate) fn after_update(&self, st: &mut ClientState, txn: TxnId, oid: ObjectId, lsn: Lsn) {
        if let Some(t) = st.txns.get_mut(&txn) {
            t.note_record(lsn);
            t.dirtied.insert(oid.page);
        }
        if let Some(e) = st.dpt.get_mut(&oid.page) {
            e.updated_since_ship = true;
        } else {
            // Conservative: entry should exist from the X grant; create it
            // with the record's own LSN if not.
            st.dpt.insert(
                oid.page,
                DptState {
                    redo_lsn: lsn,
                    remembered: None,
                    updated_since_ship: true,
                    last_lsn: lsn,
                },
            );
        }
    }

    // ---- the operation loop ------------------------------------------------------

    /// One object operation as one loop over the client state. Each round
    /// locks `st` and finishes whatever can be finished locally: the
    /// transaction check, the lock out of the LLM's cache (§2) with its
    /// §3.2 DPT entry, the resident page, and `body` — which logs and
    /// applies under that same guard. A step that needs the server (a
    /// global lock, a page fetch, §3.6 log-space reclamation) or has to
    /// wait out a deferred callback leaves the guard, does that one step,
    /// and goes round again; an operation on a cached lock and a resident
    /// page is simply the first round. The state mutex is never held
    /// across a call into the server.
    fn operate<R>(
        &self,
        txn: TxnId,
        oid: ObjectId,
        mode: ObjMode,
        structural: bool,
        mut body: impl FnMut(&mut ClientState, TxnPos) -> Result<R>,
    ) -> Result<R> {
        // Once `txn` uses the lock no callback can take it away (strict
        // 2PL defers them), so later rounds skip the LLM.
        let mut locked = false;
        // Computed when the operation first has to wait.
        let mut deadline = None;
        let mut st = self.st.lock();
        loop {
            let at = match st.txns.get(&txn) {
                Some(t) if t.is_active() => TxnPos {
                    prev: t.last_lsn,
                    mode: t.log_mode,
                },
                _ => {
                    return Err(FglError::InvalidTxnState {
                        txn,
                        state: "not active",
                    })
                }
            };
            if !locked {
                match st.llm.acquire(txn, oid, mode, structural) {
                    LocalDecision::LocallyGranted => {
                        self.local_grants.fetch_add(1, Ordering::Relaxed);
                        self.on_lock_granted(&mut st, oid, mode, structural, None);
                        locked = true;
                    }
                    LocalDecision::BlockedByCallback => {
                        // Wait for local callback resolution, then retry: whatever
                        // clears a deferred callback notifies `cv`.
                        let deadline =
                            *deadline.get_or_insert_with(|| Instant::now() + self.cfg.lock_timeout);
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            drop(st);
                            return Err(self.lock_timed_out(txn, oid.page));
                        }
                        self.cv.wait_for(&mut st, left);
                        continue;
                    }
                    LocalDecision::NeedGlobal(target) => {
                        // Guard the in-flight window: a callback arriving
                        // between the server-side grant and our
                        // installation below must defer, not revoke.
                        st.llm.begin_global_request(txn, target);
                        let cached_psn = st.cache.peek(oid.page).map(|p| p.psn());
                        drop(st);
                        let (granted, evidence, page) =
                            self.request_global(txn, oid.page, target, cached_psn)?;
                        st = self.st.lock();
                        st.llm.global_granted(txn, oid, mode, granted);
                        st.llm.end_global_request(txn);
                        self.on_lock_granted(&mut st, oid, mode, structural, evidence);
                        locked = true;
                        // The cached copy may be stale for the newly locked
                        // object (§2): merge the copy the grant carried, or
                        // refetch before next use when it carried none.
                        let evicted = match page {
                            Some(bytes) => self.install_from_server(&mut st, bytes)?,
                            None => {
                                if st.cache.contains(oid.page) {
                                    st.refetch.insert(oid.page);
                                }
                                None
                            }
                        };
                        if evicted.is_some() {
                            drop(st);
                            self.handle_evicted(evicted)?;
                            st = self.st.lock();
                        }
                        continue; // the guard was dropped: look at the txn again
                    }
                }
            }
            if !st.cache.contains(oid.page) || st.refetch.contains(&oid.page) {
                drop(st);
                self.fetch_page(oid.page)?;
                st = self.st.lock();
                continue;
            }
            match body(&mut st, at) {
                Err(FglError::LogFull) => {
                    drop(st);
                    self.log_stall_events.fetch_add(1, Ordering::Relaxed);
                    self.reclaim_log_space()?;
                    st = self.st.lock();
                }
                done => return done,
            }
        }
    }

    /// Bookkeeping the moment `oid` becomes usable in `mode`, under the
    /// guard that saw the grant.
    fn on_lock_granted(
        &self,
        st: &mut ClientState,
        oid: ObjectId,
        mode: ObjMode,
        structural: bool,
        evidence: Option<(ClientId, Psn)>,
    ) {
        if mode == ObjMode::X || structural {
            Self::ensure_dpt(st, oid.page);
        }
        // §3.1: the client that triggered a callback for an exclusive lock
        // logs who responded and at which PSN — server restart recovery
        // rebuilds the inter-client update order from these records.
        if let (ObjMode::X, Some((from_client, psn))) = (mode, evidence) {
            let record = LogPayload::Callback(fgl_wal::records::CallbackRecord {
                object: oid,
                from_client,
                psn,
            });
            let _ = self.append(st, &record, true);
        }
    }

    /// §3.2: DPT entry at first exclusive lock, RedoLSN = current end of
    /// log (conservative).
    fn ensure_dpt(st: &mut ClientState, page: PageId) {
        let end = st.wal.end_lsn();
        st.dpt.entry(page).or_insert(DptState {
            redo_lsn: end,
            remembered: None,
            updated_since_ship: false,
            last_lsn: Lsn::NIL,
        });
    }

    /// The global-lock step of [`Self::operate`]: ask the server's GLM for
    /// `target` and wait out its queue, with no client lock held. Returns
    /// the granted (possibly adaptive-converted) target, the §3.1
    /// callback evidence and the page copy the grant carried. On a
    /// deadlock verdict or a timeout the transaction is already rolled
    /// back when the error returns.
    #[allow(clippy::type_complexity)]
    fn request_global(
        &self,
        txn: TxnId,
        page: PageId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<(LockTarget, Option<(ClientId, Psn)>, Option<Vec<u8>>)> {
        self.global_lock_requests.fetch_add(1, Ordering::Relaxed);
        let wait_start = self.metrics.now_us();
        // Dropped on every exit: grant, victim, timeout and transport
        // error all close the span.
        let _span = fgl_obs::trace::span(fgl_obs::SpanKind::LockWait, txn);
        let resp = match self.server.lock(self.id, txn, target, cached_psn) {
            Ok(r) => r,
            Err(e) => {
                self.clear_inflight(txn);
                return Err(e);
            }
        };
        let verdict = match resp {
            LockResponse::Granted {
                target,
                first_exclusive_on_page,
                evidence,
            } => Some(GrantMsg::Granted {
                target,
                first_exclusive_on_page,
                evidence,
                page: None,
            }),
            LockResponse::Decided(msg) => Some(msg),
            LockResponse::Wait(waiter) => waiter.wait(self.cfg.lock_timeout),
        };
        let granted = match verdict {
            Some(GrantMsg::Granted {
                target,
                evidence,
                page: copy,
                ..
            }) => (target, evidence, copy),
            Some(GrantMsg::Victim) => {
                self.deadlock_victims.fetch_add(1, Ordering::Relaxed);
                self.clear_inflight(txn);
                self.abort(txn)?;
                fgl_obs::dump_on_anomaly("deadlock-victim");
                return Err(FglError::DeadlockVictim(txn));
            }
            // Only a queued request's wait runs out.
            None => {
                self.server.cancel_wait(self.id, txn);
                self.clear_inflight(txn);
                return Err(self.lock_timed_out(txn, page));
            }
        };
        self.metrics.observe_since(HistKind::LockWait, wait_start);
        Ok(granted)
    }

    /// A lock wait ran out: count it, roll the transaction back so its
    /// locks stop blocking others, and return the error to report.
    fn lock_timed_out(&self, txn: TxnId, page: PageId) -> FglError {
        self.lock_timeouts.fetch_add(1, Ordering::Relaxed);
        emit(Event::LockTimeout {
            client: self.id,
            txn,
            page,
        });
        if let Err(e) = self.abort(txn) {
            return e;
        }
        fgl_obs::dump_on_anomaly("lock-timeout");
        FglError::LockTimeout(txn)
    }

    /// Clear a failed request's in-flight registration. Deferred
    /// callbacks that were waiting on it alone complete via the
    /// `finish_txn → end_txn` that follows every lock failure.
    fn clear_inflight(&self, txn: TxnId) {
        self.st.lock().llm.end_global_request(txn);
    }

    // ---- page movement ---------------------------------------------------------

    /// Make sure the page is cached and fresh (honouring `refetch`).
    pub(crate) fn ensure_page_present(&self, page: PageId) -> Result<()> {
        loop {
            {
                let st = self.st.lock();
                if st.cache.contains(page) && !st.refetch.contains(&page) {
                    return Ok(());
                }
            }
            self.fetch_page(page)?;
        }
    }

    /// The page-fetch step: bring `page` from the server and merge it into
    /// the cache, shipping whatever dirty page that pushed out.
    fn fetch_page(&self, page: PageId) -> Result<()> {
        let fetch_start = self.metrics.now_us();
        let fetch_span = fgl_obs::trace::span(fgl_obs::SpanKind::PageFetch, TxnId(0));
        let (bytes, _dct_psn) = self.server.fetch_page(self.id, page)?;
        drop(fetch_span);
        self.metrics.observe_since(HistKind::PageFetch, fetch_start);
        let evicted = self.install_from_server(&mut self.st.lock(), bytes)?;
        self.handle_evicted(evicted)
    }

    /// Merge a page copy from the server — a fetch's, or the one a lock
    /// grant carried — into the cache (§2), and pass the dirty page that
    /// pushed out, if any, through the gate, for [`Self::handle_evicted`]
    /// to ship once the guard is gone.
    fn install_from_server(
        &self,
        st: &mut ClientState,
        bytes: Vec<u8>,
    ) -> Result<Option<(PageId, Arc<[u8]>)>> {
        let incoming = Page::from_wire(&bytes, self.cfg.page_size)?;
        st.refetch.remove(&incoming.id());
        let ev = st.cache.install_from_server(incoming)?;
        self.gate_evicted(st, ev)
    }

    /// Ship the dirty page an eviction pushed out (§2). The gate stashed
    /// it in the critical section that evicted it, so a callback racing
    /// this ship still answers with the copy. A stash that no longer holds
    /// this frame means a crash cleared it, or a newer copy of the page
    /// took its place and leaves by its own exit: this frame then stays.
    fn handle_evicted(&self, evicted: Option<(PageId, Arc<[u8]>)>) -> Result<()> {
        let Some((page, frame)) = evicted else {
            return Ok(());
        };
        if !Self::stashes(&self.st.lock(), page, &frame) {
            return Ok(());
        }
        self.ship_stashed(vec![(page, frame)], true)
    }

    /// Pass the dirty page the cache just evicted, if any, through the
    /// gate, inside the critical section that evicted it: there is no
    /// window in which the page exists nowhere.
    fn gate_evicted(
        &self,
        st: &mut ClientState,
        evicted: Option<fgl_storage::bufferpool::EvictedPage>,
    ) -> Result<Option<(PageId, Arc<[u8]>)>> {
        let Some(ev) = evicted else { return Ok(None) };
        let mut one = [Leaving::new(ev.page.id())];
        self.gate(st, Exit::Evicted(&ev.page), &mut one)?;
        let [Leaving { page, copy, .. }] = one;
        Ok(copy.map(|frame| (page, frame)))
    }

    /// The one way a page copy leaves the client (§2, §3.2, §3.6). Under
    /// the state mutex, for every page of `pages` that leaves by `exit`:
    /// append the redo-only undo spills for it (the steal point), force
    /// the log once through the last records of all of them (the WAL
    /// rule), take one wire snapshot and count it in `pages_shipped`.
    /// Unless the exit is [`Exit::Restart`], the page is then marked
    /// clean, the end of log after its own spills is remembered as its
    /// §3.6 ship point, and the frame is stashed in `in_transit`: until
    /// the server absorbs it, a callback racing the ship answers with
    /// that frame (DESIGN §6.12). Copies are filled in only once the
    /// force succeeded, so a gate that fails fills in none.
    pub(crate) fn gate(
        &self,
        st: &mut ClientState,
        exit: Exit,
        pages: &mut [Leaving],
    ) -> Result<()> {
        for p in pages.iter_mut() {
            let leaves = match exit {
                Exit::Callback | Exit::Sync => st.cache.is_dirty(p.page),
                Exit::Evicted(_) => true,
                Exit::Restart => st.cache.contains(p.page),
            };
            if leaves {
                self.spill_undo_for_page(st, p.page)?;
                p.at = Some(st.wal.end_lsn());
            }
        }
        let mut leaving = pages.iter().filter(|p| p.at.is_some()).peekable();
        if leaving.peek().is_some() {
            st.force_for_pages(leaving.map(|p| &p.page))?;
        }
        for p in pages.iter_mut() {
            let Some(at) = p.at else {
                // A callback finding the page clean re-ships the stashed
                // frame an earlier exit may still have in flight (an Arc
                // bump, not a page copy).
                if let Exit::Callback = exit {
                    p.copy = st.in_transit.get(&p.page).cloned();
                }
                continue;
            };
            let source = match exit {
                Exit::Evicted(evicted) => evicted,
                _ => st.cache.peek(p.page).expect("a leaving page is cached"),
            };
            let frame = source.wire_frame();
            self.pages_shipped.fetch_add(1, Ordering::Relaxed);
            if !matches!(exit, Exit::Restart) {
                st.cache.mark_clean(p.page);
                if let Some(e) = st.dpt.get_mut(&p.page) {
                    e.remembered = Some(at);
                    e.updated_since_ship = false;
                }
                st.in_transit.insert(p.page, Arc::clone(&frame));
            }
            p.copy = Some(frame);
        }
        Ok(())
    }

    /// The steal point, called under the state mutex right before a
    /// dirty page's bytes leave the client and *before* the WAL force
    /// covering them: append the first-touch before-image of every object
    /// on `page` that an active redo-only transaction updated and has not
    /// spilled yet. The caller's force then makes them durable before the
    /// page ships, so a crash can still roll those transactions back from
    /// the log alone. Finds nothing unless an active transaction logs
    /// redo-only.
    fn spill_undo_for_page(&self, st: &mut ClientState, page: PageId) -> Result<()> {
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
                if u.object.page != page
                    || cold.spilled.contains(&u.object)
                    || !seen.insert(u.object)
                {
                    continue;
                }
                spills.push(UndoSpillRecord {
                    txn: t.id,
                    object: u.object,
                    before: u.before.clone(),
                });
            }
        }
        for rec in spills {
            let (txn, object) = (rec.txn, rec.object);
            self.append(st, &LogPayload::UndoSpill(rec), true)?;
            if let Some(t) = st.txns.get_mut(&txn) {
                t.cold_mut().spilled.insert(object);
            }
        }
        Ok(())
    }

    /// The synchronous exits (§3.6 reclamation, [`harden`](Self::harden),
    /// ship-at-commit, restart hardening): ship the dirty pages among
    /// `pages` through the gate, in one message.
    pub(crate) fn ship_pages(&self, pages: &[PageId], replaced: bool) -> Result<()> {
        let mut leaving: Vec<Leaving> = pages.iter().map(|&page| Leaving::new(page)).collect();
        self.gate(&mut self.st.lock(), Exit::Sync, &mut leaving)?;
        let frames = leaving
            .into_iter()
            .filter_map(|p| Some((p.page, p.copy?)))
            .collect();
        self.ship_stashed(frames, replaced)
    }

    /// Ship frames the gate stashed, then drop each stash that still holds
    /// this ship's own frame. A newer copy stashed while the ship was in
    /// flight stays: it must answer callbacks until its own ship lands.
    pub(crate) fn ship_stashed(
        &self,
        frames: Vec<(PageId, Arc<[u8]>)>,
        replaced: bool,
    ) -> Result<()> {
        let result = match frames.as_slice() {
            [] => return Ok(()),
            [(_, frame)] => self.server.ship_page(self.id, Arc::clone(frame), replaced),
            _ => {
                let copies = frames.iter().map(|(_, frame)| Arc::clone(frame)).collect();
                self.server.ship_pages(self.id, copies, replaced)
            }
        };
        let mut st = self.st.lock();
        for (page, frame) in &frames {
            if Self::stashes(&st, *page, frame) {
                st.in_transit.remove(page);
            }
        }
        result
    }

    /// Is `frame` the copy of `page` stashed in `in_transit`?
    fn stashes(st: &ClientState, page: PageId, frame: &Arc<[u8]>) -> bool {
        st.in_transit
            .get(&page)
            .is_some_and(|stash| Arc::ptr_eq(stash, frame))
    }

    /// Ship our dirty copy of `page` if we still cache one, then have the
    /// server force the page (§3.6). The `force_page` reply is itself the
    /// flush acknowledgment (the broadcast notification additionally
    /// reaches other clients that replaced the page).
    fn ship_and_force(&self, page: PageId) -> Result<()> {
        self.ship_pages(&[page], true)?;
        self.server.force_page(self.id, page)?;
        self.handle_flush_notification(page);
        Ok(())
    }

    // ---- logging ------------------------------------------------------------------

    /// Append with automatic fuzzy checkpointing.
    pub(crate) fn append(
        &self,
        st: &mut ClientState,
        payload: &LogPayload,
        critical: bool,
    ) -> Result<Lsn> {
        let lsn = if critical {
            st.wal.append_critical(payload)?
        } else {
            st.wal.append(payload)?
        };
        if let Some(e) = payload.page().and_then(|p| st.dpt.get_mut(&p)) {
            e.last_lsn = lsn;
        }
        st.records_since_ckpt += 1;
        if st.records_since_ckpt >= self.cfg.client_checkpoint_every {
            st.records_since_ckpt = 0;
            self.checkpoint_locked(st)?;
        }
        Ok(lsn)
    }

    pub(crate) fn append_critical(
        &self,
        st: &mut ClientState,
        payload: &LogPayload,
    ) -> Result<Lsn> {
        self.append(st, payload, true)
    }

    /// §3.6: free private log space. Checkpoint, advance the low-water
    /// mark, and force out the pages holding the minimum RedoLSN until
    /// enough space is free.
    pub fn reclaim_log_space(&self) -> Result<()> {
        for _round in 0..64 {
            // Re-anchor analysis, then advance the low-water mark. A
            // checkpoint that cannot fit is skipped for this round: the
            // page forces below still advance the DPT floor, and the next
            // round retries.
            {
                let mut st = self.st.lock();
                match self.checkpoint_locked(&mut st) {
                    Ok(()) | Err(FglError::LogFull) => {}
                    Err(e) => return Err(e),
                }
                let lw = Self::reclaim_floor(&st);
                st.wal.advance_low_water(lw)?;
                if st.wal.free_bytes() >= st.wal.capacity() / 4 {
                    return Ok(());
                }
            }
            // Pick the page with the minimum RedoLSN and have it forced.
            let victim = {
                let st = self.st.lock();
                st.dpt
                    .iter()
                    .min_by_key(|(_, e)| e.redo_lsn)
                    .map(|(p, _)| *p)
            };
            let Some(page) = victim else {
                // Nothing left to force: space is bounded by active txns.
                let st = self.st.lock();
                if st.wal.free_bytes() == 0 {
                    return Err(FglError::LogFull);
                }
                return Ok(());
            };
            self.forced_flush_requests.fetch_add(1, Ordering::Relaxed);
            self.ship_and_force(page)?;
        }
        Err(FglError::LogFull)
    }

    /// Oldest LSN still needed: checkpoint anchor, DPT redo points, and
    /// the first record of every active transaction (undo needs them; the
    /// paper's §3.6 leaves this implicit).
    fn reclaim_floor(st: &ClientState) -> Lsn {
        let mut floor = st.wal.last_checkpoint();
        if floor.is_nil() {
            floor = st.wal.end_lsn();
        }
        for e in st.dpt.values() {
            if e.redo_lsn < floor {
                floor = e.redo_lsn;
            }
        }
        for t in st.txns.values() {
            if t.is_active() && !t.first_lsn.is_nil() && t.first_lsn < floor {
                floor = t.first_lsn;
            }
        }
        floor
    }

    /// Take a fuzzy client checkpoint (§3.2): active transactions + DPT.
    pub fn checkpoint(&self) -> Result<()> {
        let mut st = self.st.lock();
        self.checkpoint_locked(&mut st)
    }

    fn checkpoint_locked(&self, st: &mut ClientState) -> Result<()> {
        let active: Vec<(TxnId, Lsn)> = st
            .txns
            .values()
            .filter(|t| t.is_active() && !t.commit_logged)
            .map(|t| (t.id, t.last_lsn))
            .collect();
        let dpt: Vec<fgl_wal::records::DptEntry> = st
            .dpt
            .iter()
            .map(|(p, e)| fgl_wal::records::DptEntry {
                page: *p,
                redo_lsn: e.redo_lsn,
            })
            .collect();
        let lsn = st.wal.append_critical(&LogPayload::ClientCheckpoint {
            active_txns: active,
            dpt,
        })?;
        st.wal.force()?;
        st.wal.set_checkpoint(lsn)?;
        emit(Event::Checkpoint {
            owner: LogOwner::Client(self.id),
            lsn,
        });
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ---- rollback ------------------------------------------------------------------

    /// Full rollback entry point for restart recovery.
    pub(crate) fn rollback_chain_public(&self, txn: TxnId) -> Result<usize> {
        self.rollback_chain(txn, Lsn::NIL)
    }

    /// Walk the transaction's log chain backwards, undoing updates and
    /// writing CLRs, until reaching `upto` (NIL = full rollback). Returns
    /// the number of log records read back.
    /// RedoOnly-mode transactions have no before-images on the log; their
    /// rollback pops the in-memory undo stack instead.
    fn rollback_chain(&self, txn: TxnId, upto: Lsn) -> Result<usize> {
        let mode = self.st.lock().txns.get(&txn).and_then(|t| t.log_mode);
        if mode == Some(TxnLogMode::RedoOnly) {
            return self.rollback_mem(txn, upto).map(|()| 0);
        }
        let mut read = 0;
        loop {
            // Find the next record to undo.
            let entry = {
                let st = self.st.lock();
                let t = st.txns.get(&txn).ok_or(FglError::InvalidTxnState {
                    txn,
                    state: "unknown",
                })?;
                let mut cur = t.last_lsn;
                // Follow CLR undo-next pointers without re-undoing.
                let rec = loop {
                    if cur.is_nil() || cur <= upto {
                        break None;
                    }
                    let e = st.wal.read_at(cur)?;
                    read += 1;
                    match &e.payload {
                        LogPayload::Clr(c) => {
                            cur = c.undo_next;
                        }
                        LogPayload::Update(u) => break Some((e.lsn, u.clone())),
                        LogPayload::Begin { .. } => break None,
                        other => {
                            return Err(FglError::Protocol(format!(
                                "unexpected record in undo chain: {other:?}"
                            )))
                        }
                    }
                };
                rec
            };
            let Some((_lsn, u)) = entry else {
                return Ok(read);
            };
            // Undo needs the page; it may have been replaced.
            self.ensure_page_present(u.object.page)?;
            let mut st = self.st.lock();
            let psn_before = st
                .cache
                .peek(u.object.page)
                .ok_or(FglError::PageNotFound(u.object.page))?
                .psn();
            let clr = LogPayload::Clr(fgl_wal::records::ClrRecord {
                txn,
                prev_lsn: st.txns.get(&txn).unwrap().last_lsn,
                undo_next: u.prev_lsn,
                object: u.object,
                psn_before,
                after: u.before.clone(),
            });
            let clr_lsn = self.append_critical(&mut st, &clr)?;
            {
                let p = st
                    .cache
                    .get_mut(u.object.page)
                    .ok_or(FglError::PageNotFound(u.object.page))?;
                Self::undo_install(p, u.object.slot, u.before.as_deref())?;
            }
            self.after_update(&mut st, txn, u.object, clr_lsn);
            // after_update set last_lsn = clr_lsn; the next iteration
            // resumes from u.prev_lsn via the CLR's undo_next.
        }
    }

    /// Rollback from the in-memory undo stack (RedoOnly mode). Each
    /// popped entry still writes a real CLR — the restored image must be
    /// redoable and the PSN ordering observable by merges — but the CLR's
    /// undo-next is NIL: the stack, not the log chain, carries progress.
    fn rollback_mem(&self, txn: TxnId, upto: Lsn) -> Result<()> {
        loop {
            let entry = {
                let mut st = self.st.lock();
                let t = st.txns.get_mut(&txn).ok_or(FglError::InvalidTxnState {
                    txn,
                    state: "unknown",
                })?;
                match t.cold().and_then(|c| c.undo.last()) {
                    Some(u) if u.lsn > upto => t.cold_mut().undo.pop(),
                    _ => None,
                }
            };
            let Some(u) = entry else {
                return Ok(());
            };
            self.ensure_page_present(u.object.page)?;
            let mut st = self.st.lock();
            let psn_before = st
                .cache
                .peek(u.object.page)
                .ok_or(FglError::PageNotFound(u.object.page))?
                .psn();
            let clr = LogPayload::Clr(fgl_wal::records::ClrRecord {
                txn,
                prev_lsn: st.txns.get(&txn).unwrap().last_lsn,
                undo_next: Lsn::NIL,
                object: u.object,
                psn_before,
                after: u.before.clone(),
            });
            let clr_lsn = self.append_critical(&mut st, &clr)?;
            {
                let p = st
                    .cache
                    .get_mut(u.object.page)
                    .ok_or(FglError::PageNotFound(u.object.page))?;
                Self::undo_install(p, u.object.slot, u.before.as_deref())?;
            }
            self.after_update(&mut st, txn, u.object, clr_lsn);
        }
    }

    /// Install the before-image during undo (bumps the PSN like a normal
    /// update so later merges order correctly).
    pub(crate) fn undo_install(page: &mut Page, slot: SlotId, before: Option<&[u8]>) -> Result<()> {
        match before {
            None => {
                page.free_object(slot)?;
            }
            Some(b) => {
                if page.slot_is_live(slot) {
                    if page.read_object(slot)?.len() == b.len() {
                        page.write_object(slot, b)?;
                    } else {
                        page.free_object(slot)?;
                        page.insert_object_at(slot, b)?;
                    }
                } else {
                    page.insert_object_at(slot, b)?;
                }
            }
        }
        Ok(())
    }

    /// Push every dirty page to the server and have it forced to disk,
    /// then checkpoint: afterwards the client's private log is cold (its
    /// DPT is empty). Used by experiment setup and by operators before
    /// planned downtime.
    pub fn harden(&self) -> Result<()> {
        let dirty = self.st.lock().cache.dirty_ids();
        for page in dirty {
            self.ship_and_force(page)?;
        }
        // Pages updated and replaced earlier may still hold DPT entries.
        let remaining: Vec<PageId> = self.st.lock().dpt.keys().copied().collect();
        for page in remaining {
            self.ship_and_force(page)?;
        }
        self.checkpoint()
    }

    // ---- crash ---------------------------------------------------------------------

    /// Simulate a client crash (§3.3): every volatile structure is lost;
    /// the private log's forced prefix survives. The server is informed
    /// (connection loss).
    pub fn crash(&self) {
        {
            let mut st = self.st.lock();
            st.llm.clear();
            st.cache.clear();
            st.dpt.clear();
            st.txns.clear();
            st.refetch.clear();
            st.in_transit.clear();
            st.records_since_ckpt = 0;
            st.wal.crash();
            st.crashed = true;
        }
        self.server.client_crashed(self.id);
        self.cv.notify_all();
    }

    pub fn is_crashed(&self) -> bool {
        self.st.lock().crashed
    }

    // ---- introspection (oracle / experiments) -----------------------------------------

    /// Copy of a cached page (diagnostics).
    pub fn cached_page(&self, page: PageId) -> Option<Page> {
        self.st.lock().cache.peek(page).cloned()
    }

    /// Client DPT snapshot.
    pub fn dpt_snapshot(&self) -> Vec<(PageId, Lsn)> {
        let st = self.st.lock();
        let mut v: Vec<(PageId, Lsn)> = st.dpt.iter().map(|(p, e)| (*p, e.redo_lsn)).collect();
        v.sort_by_key(|(p, _)| p.0);
        v
    }

    /// Private-log occupancy `(in_use, capacity)`.
    pub fn log_usage(&self) -> (u64, u64) {
        let st = self.st.lock();
        (st.wal.bytes_in_use(), st.wal.capacity())
    }

    /// Bytes appended to the private log per record kind (non-zero only).
    pub fn wal_bytes_by_kind(&self) -> Vec<(&'static str, u64)> {
        if !self.is_touched() {
            return Vec::new();
        }
        self.st.lock().wal.bytes_by_kind()
    }
}
