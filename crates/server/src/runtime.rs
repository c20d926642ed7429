//! The page-server runtime: the methods clients invoke over the (counted)
//! message fabric, and the driver that turns GLM events into callbacks,
//! grants and aborts.
//!
//! # One of each
//!
//! A `ServerCore` is the paper's server (§2, §3.2): one lock table (a
//! [`GlmCore`] and the requests parked on it), one buffer pool + space
//! map (a [`PageStore`]), one DCT, one server log. Scale-out is by
//! *instances*: an N-way partitioned page service is N `ServerCore`s,
//! instance `k` owning the pages with `PageId % N == k` (see
//! [`ServerCore::new_instance`]); nothing inside an instance is
//! partitioned again. The GLM feeds a [`WaitGraph`] that the
//! cross-instance `DeadlockCoordinator` reads, so cycles spanning
//! instances are still found. The §4.1 `commit_ship_log` baseline's
//! shared mutex *is* the bottleneck the paper predicts and stays as is.
//!
//! # Locking discipline
//!
//! Internal mutexes (`locks`, `store`, `dct`, …) are held only for short
//! state transitions and **never** across a [`ClientPeer`] call; clients,
//! symmetrically, never invoke the server while holding their own runtime
//! mutex. This pair of rules is what makes the direct-call message fabric
//! deadlock-free. `locks` guards the GLM together with the requests
//! parked on it, so a request is parked, and its grant or verdict claims
//! its slot, in the critical section that decided it. The GLM acquires
//! the wait graph's lock only while the graph never calls back into the
//! server, so the order `locks → graph` is acyclic. Simulated disk
//! latency (page reads and in-place writes) runs with **no server lock
//! held**: the store exposes pool-first primitives and a bare disk handle
//! so every sleep happens between lock acquisitions.

use crate::dct::Dct;
use crate::pagestore::PageStore;
use fgl_common::config::CommitPolicy;
use fgl_common::{ClientId, FglError, Lsn, PageId, Psn, Result, SystemConfig, TxnId};
use fgl_locks::coordinator::DeadlockCoordinator;
use fgl_locks::glm::{CallbackKind, CallbackReply, GlmCore, GlmEvent, LockOutcome};
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_locks::WaitGraph;
use fgl_net::peer::{CallbackOutcome, ClientPeer};
use fgl_net::stats::{MsgKind, NetSim};
use fgl_net::transport::frame;
use fgl_net::wait::{grant_pair, GrantMsg, GrantSlot};
use fgl_obs::{emit, CallbackClass, Counter, Event, HistKind, LogOwner, Metrics};
use fgl_storage::disk::DiskBackend;
use fgl_storage::page::Page;
use fgl_wal::manager::{LogManager, LogRecordEntry};
use fgl_wal::records::{LogPayload, ReplacementRecord};
use fgl_wal::store::MemLogStore;
use fgl_wal::{ForceTicket, GroupForce};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

// The request/response vocabulary lives with the RPC surface in
// `fgl-net::api`; re-exported here so server-side callers keep their
// historical paths.
use fgl_net::api::{FetchedPage, ServerApi};
pub use fgl_net::api::{LockResponse, RecoverPagePlan, RecoveryHandshake};

/// Aggregate counters exposed for experiments.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    pub lock_requests: u64,
    pub page_fetches: u64,
    pub pages_flushed: u64,
    pub replacement_records: u64,
    pub commit_log_ships: u64,
    pub merges: u64,
}

impl ServerStats {
    /// Every count as a `(name, value)` pair; the unified snapshot
    /// reports each as `server_<name>`, summed over the instances, and as
    /// `srv<k>_<name>` for instance `k`.
    pub fn counts(&self) -> [(&'static str, u64); 6] {
        [
            ("lock_requests", self.lock_requests),
            ("page_fetches", self.page_fetches),
            ("pages_flushed", self.pages_flushed),
            ("replacement_records", self.replacement_records),
            ("commit_log_ships", self.commit_log_ships),
            ("merges", self.merges),
        ]
    }
}

/// Map a GLM callback to its observability class.
fn class_of(kind: &CallbackKind) -> CallbackClass {
    match kind {
        CallbackKind::ReleaseObject(_) => CallbackClass::ReleaseObject,
        CallbackKind::DowngradeObject(_) => CallbackClass::DowngradeObject,
        CallbackKind::ReleasePage(_) => CallbackClass::ReleasePage,
        CallbackKind::DowngradePage(_) => CallbackClass::DowngradePage,
        CallbackKind::DeEscalatePage(_) => CallbackClass::DeEscalatePage,
    }
}

/// A parked request: the slot its client waits on and the cached PSN it carried (§3.2 fn. 4).
type Parked = (GrantSlot, Option<Psn>);

/// A GLM event with the parked request it resolves, if any.
type Claimed = (GlmEvent, Option<Parked>);

/// The lock table and the requests parked on it (by txn), under one mutex.
pub(crate) struct LockTable {
    pub(crate) glm: GlmCore,
    parked: HashMap<TxnId, Parked>,
}

impl LockTable {
    fn new(graph: Arc<WaitGraph>) -> Self {
        let (glm, parked) = (GlmCore::with_graph(graph), HashMap::new());
        LockTable { glm, parked }
    }

    /// Pair each event with the parked request it resolves, taken out of the table.
    fn claim(&mut self, events: Vec<GlmEvent>) -> Vec<Claimed> {
        let mut claim = |e: GlmEvent| match e {
            GlmEvent::Grant { txn, .. } | GlmEvent::AbortTxn { txn, .. } => {
                (e, self.parked.remove(&txn))
            }
            GlmEvent::SendCallback(_) => (e, None),
        };
        events.into_iter().map(&mut claim).collect()
    }
}

/// One client as the server sees it (§3.3–§3.5): up (a peer, not
/// crashed), crashed (no peer), or recovering (a peer, still crashed).
#[derive(Default)]
pub(crate) struct ClientEntry {
    peer: Option<Arc<dyn ClientPeer>>,
    /// Crashed and not yet through `client_recovery_end`: sent nothing.
    pub(crate) crashed: bool,
    /// Down across a server restart: the rebuilt DCT does not cover it,
    /// so its recovery takes the §3.5 path.
    pub(crate) dct_incomplete: bool,
}

/// The page server.
pub struct ServerCore {
    /// Read-mostly and shared: clients hold `Arc` clones instead of
    /// per-client copies (see [`ServerCore::config_shared`]).
    cfg: Arc<SystemConfig>,
    pub net: Arc<NetSim>,
    /// This server's partition index in a multi-instance system: it owns
    /// pages with `PageId % instances == instance`. `(0, 1)` is the
    /// single-server system.
    instance: usize,
    instances: usize,
    pub(crate) locks: Mutex<LockTable>,
    pub(crate) store: Mutex<PageStore>,
    pub(crate) dct: Mutex<Dct>,
    /// Clients that replaced each page and must be told when it is forced
    /// (§3.6).
    replaced_by: Mutex<HashMap<PageId, HashSet<ClientId>>>,
    /// Last client to ship each page, with the shipped PSN — callback
    /// log-record evidence (§3.1).
    last_ship: Mutex<HashMap<PageId, (ClientId, Psn)>>,
    /// The waits-for graph the GLM feeds; the cross-instance
    /// [`DeadlockCoordinator`] reads it.
    wait_graph: Arc<WaitGraph>,
    /// Multi-server systems: the merged cycle search this instance's
    /// graph joined, plus our member id (skipped on our own broadcasts).
    coord: OnceLock<(Arc<DeadlockCoordinator>, usize)>,
    /// Server log: replacement records + server checkpoints (§3.1, §3.2).
    /// Global: one sequential log device.
    slog: Mutex<LogManager>,
    /// Group commit of the server log: concurrent flushes share a force,
    /// and none holds `slog` while the device works.
    slog_force: GroupForce,
    /// Every client's liveness: the one place delivery and recovery read it.
    pub(crate) clients: RwLock<HashMap<ClientId, ClientEntry>>,
    /// Server-logging baseline (§4.1): log records shipped at commit,
    /// appended per client behind one (bottleneck) mutex.
    client_logs: Mutex<HashMap<ClientId, Vec<u8>>>,
    /// Signals DCT PSN progress during parallel page recovery (§3.4).
    recovery_gen: Mutex<u64>,
    recovery_cv: Condvar,
    /// Outstanding partial-state needs: (provider client, page, PSN) —
    /// §3.4 step 3 ("the server will request P from CID").
    recovery_needs: Mutex<Vec<(ClientId, PageId, Psn)>>,
    down: AtomicBool,
    /// Shared metrics registry: histograms + counters for the whole
    /// system. Clients and WAL managers clone this handle.
    metrics: Arc<Metrics>,
    /// `page_ship_bytes_copied`, resolved once: every absorbed page adds
    /// the length of its wire frame (`parse_frame`).
    ship_bytes_copied: Counter,
    /// `server_recovery_fetch_timeouts`: §3.5 waits that ran out and
    /// served the current merged copy instead.
    recovery_fetch_timeouts: Counter,
    lock_requests: AtomicU64,
    page_fetches: AtomicU64,
    pages_flushed: AtomicU64,
    replacement_records: AtomicU64,
    commit_log_ships: AtomicU64,
    slog_appends_since_ckpt: AtomicU64,
}

impl ServerCore {
    pub fn new(cfg: SystemConfig, net: Arc<NetSim>, disk: Arc<dyn DiskBackend>) -> Arc<Self> {
        let metrics = Arc::new(Metrics::new());
        Self::new_instance(cfg, net, disk, 0, 1, metrics)
    }

    /// Build one instance of an N-way partitioned page service: the
    /// instance owns pages in the residue class `PageId % instances ==
    /// instance`, and its space map allocates ids in that class. Every
    /// instance gets its own GLM, store, DCT, server log and §4.1
    /// commit-log ship; the metrics registry is shared so one snapshot
    /// covers the system.
    /// `(0, 1)` with a fresh registry is exactly [`ServerCore::new`].
    pub fn new_instance(
        cfg: SystemConfig,
        net: Arc<NetSim>,
        disk: Arc<dyn DiskBackend>,
        instance: usize,
        instances: usize,
        metrics: Arc<Metrics>,
    ) -> Arc<Self> {
        assert!(instances >= 1 && instance < instances);
        let wait_graph = Arc::new(WaitGraph::new());
        let store = PageStore::with_partition(
            disk,
            cfg.server_cache_pages,
            cfg.page_size,
            instance as u64,
            instances as u64,
        );
        // The device latency is `slog_force`'s to pay, outside the mutex.
        let mut slog = LogManager::new(Box::new(MemLogStore::new()), cfg.server_log_bytes);
        slog.attach_obs(metrics.clone(), LogOwner::Server);
        let slog_force = GroupForce::new(cfg.disk_latency);
        Arc::new(ServerCore {
            cfg: Arc::new(cfg),
            net,
            instance,
            instances,
            locks: Mutex::new(LockTable::new(wait_graph.clone())),
            store: Mutex::new(store),
            dct: Mutex::new(Dct::new()),
            replaced_by: Mutex::new(HashMap::new()),
            last_ship: Mutex::new(HashMap::new()),
            wait_graph,
            coord: OnceLock::new(),
            slog: Mutex::new(slog),
            slog_force,
            clients: RwLock::new(HashMap::new()),
            client_logs: Mutex::new(HashMap::new()),
            recovery_gen: Mutex::new(0),
            recovery_cv: Condvar::new(),
            recovery_needs: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            ship_bytes_copied: metrics.counter("page_ship_bytes_copied"),
            recovery_fetch_timeouts: metrics.counter("server_recovery_fetch_timeouts"),
            metrics,
            lock_requests: AtomicU64::new(0),
            page_fetches: AtomicU64::new(0),
            pages_flushed: AtomicU64::new(0),
            replacement_records: AtomicU64::new(0),
            commit_log_ships: AtomicU64::new(0),
            slog_appends_since_ckpt: AtomicU64::new(0),
        })
    }

    /// Whether `page` belongs to this instance's residue class. Requests
    /// for pages of other instances are a routing bug upstream.
    pub fn owns_page(&self, page: PageId) -> bool {
        page.0 % self.instances as u64 == self.instance as u64
    }

    /// Join a multi-server system's merged deadlock search: this
    /// instance's wait graph starts feeding the coordinator, and victims
    /// detected elsewhere are torn down here through the registered
    /// abort hook (idempotent when the victim never waited here).
    pub fn attach_coordinator(self: &Arc<Self>, coord: &Arc<DeadlockCoordinator>) {
        let weak: Weak<ServerCore> = Arc::downgrade(self);
        let member = coord.register(
            self.wait_graph.clone(),
            Box::new(move |txn| {
                if let Some(srv) = weak.upgrade() {
                    srv.abort_parked(txn);
                }
            }),
        );
        let _ = self.coord.set((coord.clone(), member));
    }

    /// Cross-instance victim teardown: withdraw `txn`'s request (if any)
    /// here, tell its parked waiter it is a deadlock victim, and drive the
    /// resulting GLM events. Runs with no server mutex held.
    fn abort_parked(&self, txn: TxnId) {
        if self.down.load(Ordering::Acquire) {
            return;
        }
        let mut parked = None;
        let events = self.with_locks(|l| {
            parked = l.parked.remove(&txn);
            l.glm.cancel_wait(txn)
        });
        self.tell_victim(parked);
        self.drive(events);
    }

    /// Tell a deadlock victim's parked waiter (if any) its verdict.
    fn tell_victim(&self, parked: Option<Parked>) {
        if let Some((slot, _)) = parked {
            self.net.msg(MsgKind::Abort, 16);
            slot.fulfil(GrantMsg::Victim);
        }
    }

    /// Run `f` on the lock table and claim what its events resolve, in one critical section.
    fn with_locks(&self, f: impl FnOnce(&mut LockTable) -> Vec<GlmEvent>) -> Vec<Claimed> {
        let mut locks = self.locks.lock();
        let events = f(&mut locks);
        locks.claim(events)
    }

    fn check_up(&self) -> Result<()> {
        if self.down.load(Ordering::Acquire) {
            Err(FglError::Disconnected("server down".into()))
        } else {
            Ok(())
        }
    }

    pub fn stats(&self) -> ServerStats {
        ServerStats {
            lock_requests: self.lock_requests.load(Ordering::Relaxed),
            page_fetches: self.page_fetches.load(Ordering::Relaxed),
            pages_flushed: self.pages_flushed.load(Ordering::Relaxed),
            replacement_records: self.replacement_records.load(Ordering::Relaxed),
            commit_log_ships: self.commit_log_ships.load(Ordering::Relaxed),
            merges: self.store.lock().merges(),
        }
    }

    // ---- client table ------------------------------------------------------

    /// `id`'s peer if it is up: the one check that holds back callbacks
    /// and flush notices to a crashed or recovering client (§3.3).
    fn up_peer(&self, id: ClientId) -> Option<Arc<dyn ClientPeer>> {
        let clients = self.clients.read();
        clients.get(&id).filter(|e| !e.crashed)?.peer.clone()
    }

    /// Run `f` on `id`'s entry in the client table.
    pub(crate) fn with_client<R>(&self, id: ClientId, f: impl FnOnce(&mut ClientEntry) -> R) -> R {
        f(self.clients.write().entry(id).or_default())
    }

    // ---- locking -------------------------------------------------------------

    /// Turn GLM events into protocol actions. Runs with no server mutex
    /// held; each step takes exactly the locks it needs.
    ///
    /// Callbacks are **batched per destination**: every `SendCallback` in
    /// the current wave of events is collected into one message per
    /// holder, the batches are delivered to distinct holders in parallel
    /// (legal precisely because `drive` holds no server mutex), and each
    /// holder's merged reply feeds the GLM in one pass. A grant blocked
    /// on N holders thus resolves after max(RTT) instead of sum(RTT), and
    /// the E2/E10 callbacks-per-commit constant drops with the fan-out.
    fn drive(&self, events: Vec<Claimed>) {
        let mut queue: std::collections::VecDeque<Claimed> = events.into();
        loop {
            // Wave: drain the queue, accumulating callbacks into
            // per-destination batches; grants and aborts apply inline.
            let mut batches: Vec<(ClientId, Vec<CallbackKind>)> = Vec::new();
            while let Some((ev, parked)) = queue.pop_front() {
                match ev {
                    GlmEvent::SendCallback(cb) => {
                        match batches.iter_mut().find(|(to, _)| *to == cb.to) {
                            Some((_, kinds)) => kinds.push(cb.kind),
                            None => batches.push((cb.to, vec![cb.kind])),
                        }
                    }
                    GlmEvent::Grant {
                        client,
                        txn,
                        target,
                        first_exclusive_on_page: first_x,
                    } => {
                        if let Some((slot, cached_psn)) = parked {
                            slot.fulfil(self.grant(client, txn, target, first_x, cached_psn, true));
                        }
                    }
                    // The GLM withdrew the victim's request when it chose it.
                    GlmEvent::AbortTxn { txn, .. } => {
                        emit(Event::DeadlockVictim { txn });
                        self.tell_victim(parked);
                        // A cross-*server* cycle's victim may be parked on
                        // another instance entirely: broadcast so every
                        // other member hunts (and cancels) it too.
                        if let Some((coord, me)) = self.coord.get() {
                            coord.broadcast_abort(txn, *me);
                        }
                    }
                }
            }
            if batches.is_empty() {
                break;
            }
            for (to, kinds, outcomes) in self.fan_out_batches(batches) {
                self.apply_batch_reply(to, kinds, outcomes, &mut queue);
            }
        }
    }

    /// Ship one callback batch per destination, concurrently for distinct
    /// destinations. Message counting (and the injected one-way latency)
    /// runs inside each delivery thread, so N holders cost max(RTT), not
    /// sum(RTT), while the per-kind message counts stay deterministic.
    #[allow(clippy::type_complexity)]
    fn fan_out_batches(
        &self,
        batches: Vec<(ClientId, Vec<CallbackKind>)>,
    ) -> Vec<(ClientId, Vec<CallbackKind>, Vec<CallbackOutcome>)> {
        // A callback to a client that is not up stays outstanding in the
        // GLM until `release_all` at its recovery's end drops it.
        let deliveries: Vec<(ClientId, Arc<dyn ClientPeer>, Vec<CallbackKind>)> = batches
            .into_iter()
            .filter_map(|(to, kinds)| Some((to, self.up_peer(to)?, kinds)))
            .collect();
        // One concurrent delivery per destination holder.
        fgl_sched::fan_out(deliveries, |(to, peer, kinds)| {
            // One round-trip span per destination batch. A `fanout`
            // subtask inherits the spawner's trace tag, so concurrent
            // deliveries stay parented under the span that triggered the
            // callbacks.
            let _span = fgl_obs::trace::span(fgl_obs::SpanKind::CallbackRtt, TxnId(0));
            self.net
                .msg(MsgKind::Callback, frame::callback_batch_len(kinds.len()));
            emit(Event::CallbackBatch {
                to,
                count: kinds.len() as u32,
            });
            for kind in &kinds {
                emit(Event::CallbackIssued {
                    to,
                    page: kind.page(),
                    class: class_of(kind),
                });
            }
            let issued_at = self.metrics.now_us();
            let outcomes = peer.deliver_callback_batch(&kinds);
            self.net
                .msg(MsgKind::CallbackReply, frame::callback_reply_len(&outcomes));
            for (kind, outcome) in kinds.iter().zip(&outcomes) {
                match outcome {
                    CallbackOutcome::Done { .. } => {
                        self.metrics
                            .observe_since(HistKind::CallbackRoundTrip, issued_at);
                        emit(Event::CallbackCompleted {
                            from: to,
                            page: kind.page(),
                        });
                    }
                    CallbackOutcome::Deferred { .. } => {
                        emit(Event::CallbackDeferred {
                            from: to,
                            page: kind.page(),
                        });
                    }
                }
            }
            (to, kinds, outcomes)
        })
    }

    /// Apply one destination's merged reply: absorb shipped page copies
    /// first (PSN monotonicity — merges still go through `absorb_page`),
    /// then feed the per-kind replies to the GLM in one batch pass.
    fn apply_batch_reply(
        &self,
        from: ClientId,
        kinds: Vec<CallbackKind>,
        outcomes: Vec<CallbackOutcome>,
        queue: &mut std::collections::VecDeque<Claimed>,
    ) {
        let mut replies = Vec::with_capacity(kinds.len());
        for (kind, outcome) in kinds.into_iter().zip(outcomes) {
            let reply = match outcome {
                CallbackOutcome::Done {
                    retained,
                    page_copy,
                } => {
                    if let Some(bytes) = page_copy {
                        let _ = self.absorb_page(from, &bytes, false);
                    }
                    CallbackReply::Done { retained }
                }
                CallbackOutcome::Deferred { blockers } => CallbackReply::Deferred { blockers },
            };
            replies.push((kind, reply));
        }
        queue.extend(self.with_locks(|l| l.glm.callback_reply_batch(from, replies)));
    }

    /// Deliver a grant: seed the DCT entry on the client's first exclusive
    /// lock touching the page (§3.2), then build the message, one
    /// `LockReply` carrying the page. It runs once the deciding wave has
    /// absorbed every copy its callbacks shipped, so the grantee needs no
    /// fetch. A page that cannot be read is left off; the grantee then
    /// fetches it, and meets the error there.
    fn grant(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        first_exclusive_on_page: bool,
        cached_psn: Option<Psn>,
        queued: bool,
    ) -> GrantMsg {
        let page = target.page();
        emit(Event::LockGrant {
            client,
            txn,
            page,
            queued,
        });
        if first_exclusive_on_page {
            self.dct.lock().insert(page, client, cached_psn);
        }
        let evidence = self.grant_evidence(client, &target);
        let page = self
            .hand_out_page(client, page)
            .ok()
            .map(|(bytes, _)| bytes);
        self.net
            .msg(MsgKind::LockReply, 24 + page.as_ref().map_or(0, Vec::len));
        GrantMsg::Granted {
            target,
            first_exclusive_on_page,
            evidence,
            page,
        }
    }

    /// Evidence for the §3.1 callback log record: the last client that
    /// shipped this page (excluding the grantee itself), for exclusive
    /// grants only.
    fn grant_evidence(&self, grantee: ClientId, target: &LockTarget) -> Option<(ClientId, Psn)> {
        if target.mode() != ObjMode::X {
            return None;
        }
        self.last_ship
            .lock()
            .get(&target.page())
            .copied()
            .filter(|(c, _)| *c != grantee)
    }

    // ---- pages ---------------------------------------------------------------

    /// Pool-first page read that hands `f` the page. A hit runs `f` on
    /// the pooled page under the store lock, so nothing is cloned; on a
    /// miss the disk read (and its simulated latency) runs with **no
    /// server lock held**, then the copy is installed unless a newer one
    /// appeared meanwhile. A page absent on disk is `PageNotFound`, or,
    /// with `or_format` (recovery: §3.4 replay bases, §3.5), formatted.
    pub(crate) fn with_page<R>(
        &self,
        page: PageId,
        or_format: bool,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        if let Some(p) = self.store.lock().pooled(page) {
            return Ok(f(p));
        }
        let disk = self.store.lock().disk_handle();
        let from_disk = disk.read_page(page)?;
        if from_disk.is_none() && !or_format {
            return Err(FglError::PageNotFound(page));
        }
        Ok(f(&self.install_read(page, from_disk)?))
    }

    /// Install what a disk read made with no server lock held found
    /// (`PageStore::install_read`), flushing whatever that evicts.
    pub(crate) fn install_read(&self, page: PageId, from_disk: Option<Page>) -> Result<Page> {
        let (copy, evicted) = self.store.lock().install_read(page, from_disk);
        self.flush_images(evicted)?;
        Ok(copy)
    }

    /// The current merged copy of `page` as a fetch or a grant hands it to
    /// `client`, in its wire form, plus the PSN the DCT remembers for the
    /// client (§3.2: ignored during normal processing, used by
    /// rollback-after-replacement and by restart recovery). A DCT entry
    /// still without a PSN takes the copy's.
    fn hand_out_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        let (wire, psn) = self.with_page(page, false, |p| (p.to_wire(), p.psn()))?;
        let dct_psn = {
            let mut dct = self.dct.lock();
            dct.set_psn_if_unset(page, client, psn);
            dct.psn_of(page, client)
        };
        emit(Event::PageShip {
            client,
            page,
            psn,
            to_server: false,
        });
        Ok((wire, dct_psn))
    }

    pub(crate) fn absorb_page(&self, client: ClientId, bytes: &[u8], replaced: bool) -> Result<()> {
        let page = self.parse_frame(bytes)?;
        self.absorb_parsed(client, page, replaced)
    }

    /// The ship path's single copy: materialize an owned page of the
    /// configured size from a shipped wire frame ([`Page::from_wire`]),
    /// accounting the frame's bytes to `page_ship_bytes_copied`. Shipped
    /// copies travel as shared `Arc<[u8]>` frames, so the shipping
    /// client's `in_transit` stash and every racing callback wave alias
    /// one snapshot; this is where the receiving side first owns one.
    fn parse_frame(&self, bytes: &[u8]) -> Result<Page> {
        self.ship_bytes_copied.add(bytes.len() as u64);
        Page::from_wire(bytes, self.cfg.page_size)
    }

    fn absorb_parsed(&self, client: ClientId, page: Page, replaced: bool) -> Result<()> {
        let id = page.id();
        debug_assert!(self.owns_page(id), "misrouted page {id:?}");
        let merge_start = self.metrics.now_us();
        // Pool-first merge; on a miss the disk read runs unlocked and the
        // merge re-checks the pool (a copy that slipped in wins as the
        // resident side).
        let store = self.store.lock();
        let (incoming_psn, evicted) = {
            let mut store = store;
            if store.pool_has(id) {
                store.receive_with(page, None)?
            } else {
                let disk = store.disk_handle();
                drop(store);
                let disk_copy = disk.read_page(id)?;
                self.store.lock().receive_with(page, disk_copy)?
            }
        };
        self.metrics.observe_since(HistKind::Merge, merge_start);
        emit(Event::PageMerge {
            from: client,
            page: id,
            psn: incoming_psn,
        });
        self.dct.lock().set_psn(id, client, incoming_psn);
        self.last_ship.lock().insert(id, (client, incoming_psn));
        if replaced {
            self.replaced_by
                .lock()
                .entry(id)
                .or_default()
                .insert(client);
        }
        self.flush_images(evicted)?;
        self.bump_recovery_gen();
        Ok(())
    }

    /// Force one page to disk: replacement log record first (§3.1), then
    /// the in-place write, then flush notifications and DCT pruning.
    pub fn flush_page(&self, page: PageId) -> Result<()> {
        self.flush_pages(&[page])
    }

    /// [`flush_page`](Self::flush_page) for several pages at once: the
    /// dirty ones go through one [`flush_images`](Self::flush_images);
    /// the clean ones are on disk already and only notify whoever waited.
    fn flush_pages(&self, pages: &[PageId]) -> Result<()> {
        let mut images = Vec::with_capacity(pages.len());
        for &page in pages {
            let copy = self.store.lock().dirty_copy(page);
            match copy {
                Some(img) => images.push(img),
                None => self.notify_flushed(page),
            }
        }
        self.flush_images(images)
    }

    /// Write page images to disk with their replacement records: every
    /// record is appended and the server log forced once, so all of them
    /// are durable before the first page is written (§3.1); then the
    /// pages go to disk as one request. Neither the force nor the
    /// in-place writes hold a server lock while the device works:
    /// concurrent flushes append behind an in-flight force and share the
    /// next one (`slog_force`).
    fn flush_images(&self, images: Vec<Page>) -> Result<()> {
        if images.is_empty() {
            return Ok(());
        }
        let records: Vec<LogPayload> = images
            .iter()
            .map(|img| {
                let entries = self.dct.lock().entries_for_page(img.id());
                LogPayload::Replacement(ReplacementRecord {
                    page: img.id(),
                    psn: img.psn(),
                    clients: entries
                        .iter()
                        .filter_map(|e| e.psn.map(|p| (e.client, p)))
                        .collect(),
                })
            })
            .collect();
        let ticket = {
            // Each record is noted in the DCT as it is appended: a
            // checkpoint snapshots the DCT under `slog` too, so one that
            // lands while this flush waits for its force keeps the log
            // from these records.
            let mut slog = self.slog.lock();
            let mut dct = self.dct.lock();
            for (img, record) in images.iter().zip(&records) {
                let lsn = slog.append_critical(record)?;
                dct.note_replacement_record(img.id(), lsn);
            }
            slog.force_ticket()
        };
        self.force_slog(ticket)?;
        self.replacement_records
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        let disk = self.store.lock().disk_handle();
        disk.write_pages(&images)?;
        {
            let mut store = self.store.lock();
            for img in &images {
                store.mark_clean_if_match(img);
            }
        }
        self.pages_flushed
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        for img in &images {
            self.notify_flushed(img.id());
            self.prune_dct(img.id());
            self.maybe_checkpoint()?;
        }
        Ok(())
    }

    fn notify_flushed(&self, page: PageId) {
        let clients: Vec<ClientId> = {
            let mut map = self.replaced_by.lock();
            map.remove(&page)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        for peer in clients.into_iter().filter_map(|c| self.up_peer(c)) {
            self.net.msg(MsgKind::FlushNotify, 16);
            peer.notify_page_flushed(page);
        }
    }

    /// Drop DCT entries whose page is clean on disk and whose client no
    /// longer holds exclusive locks touching the page (§3.2).
    fn prune_dct(&self, page: PageId) {
        if self.store.lock().is_dirty(page) {
            return;
        }
        let entries = self.dct.lock().entries_for_page(page);
        let locks = self.locks.lock();
        let mut dct = self.dct.lock();
        for e in entries {
            if !locks.glm.client_has_exclusive_on_page(e.client, page) {
                dct.remove(page, e.client);
            }
        }
    }

    fn maybe_checkpoint(&self) -> Result<()> {
        let n = self.slog_appends_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        if n < self.cfg.server_checkpoint_every {
            return Ok(());
        }
        self.slog_appends_since_ckpt.store(0, Ordering::Relaxed);
        self.checkpoint()
    }

    /// Take a server fuzzy checkpoint (§3.2): persist the DCT and advance
    /// the log low-water mark.
    pub fn checkpoint(&self) -> Result<()> {
        let (lsn, ticket, min_redo) = {
            let mut slog = self.slog.lock();
            let snapshot = self.dct.lock().snapshot();
            let min_redo = snapshot.iter().filter_map(|e| e.redo_lsn).min();
            let lsn = slog.append_critical(&LogPayload::ServerCheckpoint { dct: snapshot })?;
            (lsn, slog.force_ticket(), min_redo)
        };
        self.force_slog(ticket)?;
        let mut slog = self.slog.lock();
        // After a crash since the force, restart rebuilt the DCT this
        // snapshot describes; a later checkpoint that completed first
        // supersedes this one.
        if slog.crash_epoch() != ticket.epoch || lsn < slog.last_checkpoint() {
            return Ok(());
        }
        slog.set_checkpoint(lsn)?;
        if let Some(lw) = min_redo {
            slog.advance_low_water(lw.min(lsn))?;
        } else {
            slog.advance_low_water(lsn)?;
        }
        drop(slog);
        emit(Event::Checkpoint {
            owner: LogOwner::Server,
            lsn,
        });
        Ok(())
    }

    /// Make the server log durable up to `ticket`, sharing the device
    /// force with every concurrent flush.
    fn force_slog(&self, ticket: ForceTicket) -> Result<()> {
        self.slog_force.force(ticket, || self.slog.lock()).map(drop)
    }

    // ---- server crash plumbing (the restart algorithm lives in recovery.rs) ----

    /// Simulate a server crash: all volatile state (buffer pool, GLM,
    /// DCT, waits-for graph, parked waiters, un-forced log tail)
    /// vanishes; disk and forced log survive.
    pub fn crash(&self) {
        self.down.store(true, Ordering::Release);
        self.wait_graph.clear();
        self.store.lock().crash();
        self.dct.lock().clear();
        *self.locks.lock() = LockTable::new(self.wait_graph.clone());
        self.replaced_by.lock().clear();
        self.last_ship.lock().clear();
        self.slog.lock().crash();
        self.slog_appends_since_ckpt.store(0, Ordering::Relaxed);
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    pub(crate) fn mark_up(&self) {
        self.down.store(false, Ordering::Release);
    }

    pub(crate) fn slog_mut(&self) -> parking_lot::MutexGuard<'_, LogManager> {
        self.slog.lock()
    }

    /// The peers of every client that is up or recovering.
    pub(crate) fn all_peers(&self) -> Vec<Arc<dyn ClientPeer>> {
        let clients = self.clients.read();
        clients.values().filter_map(|e| e.peer.clone()).collect()
    }

    fn bump_recovery_gen(&self) {
        let mut gen = self.recovery_gen.lock();
        *gen += 1;
        self.recovery_cv.notify_all();
    }

    /// Block (bounded) until `cid`'s recovery of `page` passes `psn`.
    fn wait_for_recovery_progress(&self, cid: ClientId, page: PageId, psn: Psn) {
        {
            self.recovery_needs.lock().push((cid, page, psn));
            // Bounded wait: if the provider has not recovered the page
            // past the needed PSN in time (it may itself be a crashed
            // client whose recovery runs later), fall back to the current
            // merged copy — per-object slot-PSN merging reorders the
            // provider's state correctly whenever it does arrive, so the
            // fallback trades a transient stale read (repaired at the
            // provider's ship) for liveness.
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
            loop {
                // Hold the generation lock across the condition check so a
                // concurrent bump cannot slip between check and wait.
                let mut gen = self.recovery_gen.lock();
                let have = self.dct.lock().psn_of(page, cid);
                if have.map(|p| p >= psn).unwrap_or(false) {
                    break;
                }
                let timeout = deadline.saturating_duration_since(std::time::Instant::now());
                if timeout.is_zero() {
                    self.recovery_fetch_timeouts.add(1);
                    emit(Event::RecoveryFetchTimeout {
                        provider: cid,
                        page,
                        psn,
                    });
                    break;
                }
                self.recovery_cv.wait_for(&mut gen, timeout);
            }
            self.recovery_needs
                .lock()
                .retain(|&(c, p, q)| !(c == cid && p == page && q == psn));
        }
    }

    /// Diagnostics: `client`'s parked requests and its requests queued in
    /// the GLM (by txn, sorted), and its exclusive locks.
    pub fn lock_state(&self, client: ClientId) -> (Vec<TxnId>, Vec<TxnId>, Vec<LockTarget>) {
        let locks = self.locks.lock();
        let mut parked: Vec<TxnId> = locks.parked.keys().copied().collect();
        parked.retain(|t| t.client() == client);
        parked.sort_unstable();
        let glm = &locks.glm;
        (
            parked,
            glm.waiting_txns(client),
            glm.exclusive_locks(client),
        )
    }

    /// Diagnostics / oracle verification: a copy of the page as the server
    /// sees it now.
    pub fn page_copy(&self, page: PageId) -> Result<Page> {
        self.with_page(page, false, Page::clone)
    }

    /// Diagnostics: ids of every allocated page, ascending.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        self.store.lock().allocated_pages()
    }

    /// Server log state: `(last checkpoint, end)` (diagnostics).
    pub fn slog_bounds(&self) -> (Lsn, Lsn) {
        let slog = self.slog.lock();
        (slog.last_checkpoint(), slog.end_lsn())
    }

    /// Every server-log record from the low-water mark on (diagnostics).
    pub fn slog_records(&self) -> Result<Vec<LogRecordEntry>> {
        self.slog.lock().collect_from(Lsn::NIL)
    }

    /// Bytes appended to the server log per record kind (non-zero only).
    pub fn wal_bytes_by_kind(&self) -> Vec<(&'static str, u64)> {
        self.slog.lock().bytes_by_kind()
    }
}

// The typed RPC surface. The sim transport IS this impl — clients hold
// `Arc<dyn ServerApi>` and the trait object dispatches straight into the
// runtime, so the direct call path (and its nominal `NetSim` accounting)
// has no layer in between.
impl ServerApi for ServerCore {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
        self.net.msg(MsgKind::Control, 16);
        let id = peer.client_id();
        self.with_client(id, |e| (e.peer, e.crashed) = (Some(peer), false));
    }

    /// Client → server lock request (§3.2). `cached_psn` carries the PSN
    /// of the client's cached copy for DCT seeding (footnote 4).
    fn lock(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<LockResponse> {
        self.check_up()?;
        self.net.msg(MsgKind::LockReq, 40);
        self.lock_requests.fetch_add(1, Ordering::Relaxed);
        debug_assert!(self.owns_page(target.page()), "misrouted {target:?}");
        emit(Event::LockRequest {
            client,
            txn,
            page: target.page(),
            exclusive: target.mode() == ObjMode::X,
        });
        let mut locks = self.locks.lock();
        let (outcome, effective, events) = locks.glm.lock(client, txn, target);
        let LockOutcome::Granted {
            first_exclusive_on_page: first_x,
        } = outcome
        else {
            // Parked in the critical section that queued it: whatever
            // grant or verdict resolves the request claims the slot under
            // this same mutex, so none can come before the slot is there.
            let (slot, waiter) = grant_pair();
            locks.parked.insert(txn, (slot, cached_psn));
            let events = locks.claim(events);
            drop(locks);
            emit(Event::LockQueue {
                client,
                txn,
                page: target.page(),
            });
            self.drive(events);
            return Ok(LockResponse::Wait(waiter));
        };
        drop(locks);
        debug_assert!(events.is_empty(), "an immediate grant emits no events");
        let msg = self.grant(client, txn, effective, first_x, cached_psn, false);
        Ok(LockResponse::Decided(msg))
    }

    /// A waiting client gave up (timeout) or aborted.
    fn cancel_wait(&self, _client: ClientId, txn: TxnId) {
        self.net.msg(MsgKind::Control, 16);
        let events = self.with_locks(|l| {
            l.parked.remove(&txn);
            l.glm.cancel_wait(txn)
        });
        self.drive(events);
    }

    /// A client finished a previously deferred callback (its blocking
    /// transactions ended).
    fn callback_complete(
        &self,
        client: ClientId,
        kind: CallbackKind,
        retained: Vec<(fgl_common::ObjectId, ObjMode)>,
        page_copy: Option<std::sync::Arc<[u8]>>,
    ) -> Result<()> {
        self.check_up()?;
        self.net.msg(
            MsgKind::CallbackComplete,
            frame::callback_complete_len(
                retained.len(),
                page_copy.as_ref().map(|bytes| bytes.len()),
            ),
        );
        emit(Event::CallbackCompleted {
            from: client,
            page: kind.page(),
        });
        if let Some(bytes) = page_copy {
            self.absorb_page(client, &bytes, false)?;
        }
        let done = CallbackReply::Done { retained };
        let events = self.with_locks(|l| l.glm.callback_reply(client, kind, done));
        self.drive(events);
        Ok(())
    }

    /// Fetch the current merged copy of a page (see `hand_out_page`). A
    /// lock grant already carries its page, so this serves pages read
    /// under a cached lock and recovery. A one-page batch of
    /// [`fetch_pages`](ServerApi::fetch_pages), at the same cost.
    fn fetch_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        let mut copies = self.fetch_pages(client, &[page])?;
        copies.pop().ok_or(FglError::PageNotFound(page))
    }

    /// Allocate a fresh page on behalf of a client, granting it the page
    /// exclusively and seeding the DCT entry (creation is a structural
    /// update, §3.1). The space map hands out ids in this instance's
    /// residue class.
    fn allocate_page(&self, client: ClientId, _txn: TxnId) -> Result<Vec<u8>> {
        self.check_up()?;
        self.net.msg(MsgKind::Control, 16);
        let (page, evicted) = self.store.lock().allocate()?;
        self.flush_images(evicted)?;
        self.locks
            .lock()
            .glm
            .install_holder(client, LockTarget::Page(page.id(), ObjMode::X));
        self.dct.lock().insert(page.id(), client, Some(page.psn()));
        let wire = page.to_wire();
        self.net.msg(MsgKind::PageShip, wire.len());
        Ok(wire)
    }

    /// A dirty page arrives from a client (cache replacement ships it to
    /// the server, §2). `replaced` marks cache replacement, which enrolls
    /// the client for the §3.6 flush notification.
    fn ship_page(
        &self,
        client: ClientId,
        bytes: std::sync::Arc<[u8]>,
        replaced: bool,
    ) -> Result<()> {
        self.ship_pages(client, vec![bytes], replaced)
    }

    /// §3.6: a client low on log space asks the server to force a page.
    fn force_page(&self, client: ClientId, page: PageId) -> Result<()> {
        self.force_pages(client, &[page])
    }

    /// Client restart redo fetches its pages in one request: one message
    /// of 8 bytes plus 8 per page, and one ship carrying every copy, in
    /// request order.
    fn fetch_pages(&self, client: ClientId, pages: &[PageId]) -> Result<Vec<FetchedPage>> {
        self.check_up()?;
        self.net.msg(MsgKind::FetchPage, 8 + 8 * pages.len());
        self.page_fetches
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        let copies = pages
            .iter()
            .map(|&page| {
                debug_assert!(self.owns_page(page), "misrouted page {page:?}");
                self.hand_out_page(client, page)
            })
            .collect::<Result<Vec<_>>>()?;
        self.net.msg(
            MsgKind::PageShip,
            copies.iter().map(|(bytes, _)| bytes.len()).sum(),
        );
        Ok(copies)
    }

    /// Client restart hardening ships its recovered pages in one message
    /// carrying every frame; a cache replacement ships one.
    fn ship_pages(&self, client: ClientId, pages: Vec<Arc<[u8]>>, replaced: bool) -> Result<()> {
        self.check_up()?;
        self.net
            .msg(MsgKind::PageShip, pages.iter().map(|b| b.len()).sum());
        pages.iter().try_for_each(|bytes| {
            let page = self.parse_frame(bytes)?;
            emit(Event::PageShip {
                client,
                page: page.id(),
                psn: page.psn(),
                to_server: true,
            });
            self.absorb_parsed(client, page, replaced)
        })
    }

    /// Client restart hardening forces its recovered pages in one request
    /// of 8 bytes plus 8 per page: one server-log force and one disk
    /// request for all of them (`ServerCore::flush_pages`).
    /// §3.6 reclamation forces one.
    fn force_pages(&self, _client: ClientId, pages: &[PageId]) -> Result<()> {
        self.check_up()?;
        self.net.msg(MsgKind::ForcePage, 8 + 8 * pages.len());
        self.flush_pages(pages)
    }

    /// ARIES/CSA-shape commit: the client ships its log records; the
    /// server appends them to its (single, shared) client-log store and
    /// forces. The shared mutex *is* the bottleneck the paper predicts,
    /// and the disk sleep deliberately runs under it.
    /// (The `touched` hint routes at the partition layer; a single
    /// instance logs everything it is handed.)
    fn commit_ship_log(
        &self,
        client: ClientId,
        records: Vec<u8>,
        _touched: Vec<PageId>,
    ) -> Result<()> {
        self.check_up()?;
        let _span = fgl_obs::trace::span(fgl_obs::SpanKind::CommitLogShip, TxnId(0));
        self.net.msg(MsgKind::CommitLogShip, records.len());
        self.commit_log_ships.fetch_add(1, Ordering::Relaxed);
        let mut logs = self.client_logs.lock();
        logs.entry(client).or_default().extend_from_slice(&records);
        // Force: one disk write per commit, serialized on this mutex.
        if !self.cfg.disk_latency.is_zero() {
            fgl_sched::pause(self.cfg.disk_latency);
        }
        Ok(())
    }

    /// Return the log bytes a client shipped (baseline client-crash
    /// recovery reads its log from the server).
    fn fetch_client_log(&self, client: ClientId) -> Result<Vec<u8>> {
        self.check_up()?;
        self.net.msg(MsgKind::Recovery, 16);
        let bytes = self
            .client_logs
            .lock()
            .get(&client)
            .cloned()
            .unwrap_or_default();
        self.net.msg(MsgKind::Recovery, bytes.len());
        Ok(bytes)
    }

    /// True when running one of the server-logging baselines.
    fn server_logging(&self) -> bool {
        matches!(
            self.cfg.commit_policy,
            CommitPolicy::ServerLog | CommitPolicy::ShipPagesAtCommit
        )
    }

    /// A client crashed: release its shared locks, keep its exclusive
    /// locks, hold back callbacks addressed to it. Its parked requests die
    /// with it.
    fn client_crashed(&self, client: ClientId) {
        self.with_client(client, |e| (e.peer, e.crashed) = (None, true));
        let events = self.with_locks(|l| {
            l.parked.retain(|t, _| t.client() != client);
            l.glm.crash_client(client)
        });
        self.drive(events);
    }

    /// Restarting client: hand it the exclusive locks it held (§3.3) and
    /// the DCT PSNs for its pages (Property 1 filtering).
    fn client_recovery_begin(
        &self,
        client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        self.check_up()?;
        self.net.msg(MsgKind::Recovery, 16);
        let dct_incomplete = self.with_client(client, |e| {
            e.peer = Some(peer);
            e.dct_incomplete
        });
        let locks = self.locks.lock().glm.exclusive_locks(client);
        let psns: Vec<(PageId, Option<Psn>)> = self
            .dct
            .lock()
            .entries_for_client(client)
            .into_iter()
            .map(|e| (e.page, e.psn))
            .collect();
        self.net
            .msg(MsgKind::Recovery, 16 * (locks.len() + psns.len()).max(1));
        Ok((locks, psns, !dct_incomplete))
    }

    /// Recovery finished: the client is up again, and the locks of its
    /// (now resolved) pre-crash transactions go with the callbacks held
    /// back for it.
    fn client_recovery_end(&self, client: ClientId) -> Result<()> {
        self.check_up()?;
        self.net.msg(MsgKind::Recovery, 16);
        self.with_client(client, |e| (e.crashed, e.dct_incomplete) = (false, false));
        let events = self.with_locks(|l| l.glm.release_all(client));
        self.drive(events);
        self.bump_recovery_gen();
        Ok(())
    }

    /// §3.4 step 3 of per-client page recovery: a recovering client hit a
    /// callback log record for an object *not* in its `CallBack_P` list
    /// and needs the page state of client `cid` at PSN ≥ `psn`. Blocks
    /// (bounded) until the server's merged copy reflects it.
    fn recovery_fetch(
        &self,
        client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        self.net.msg(MsgKind::Recovery, 24);
        if let Some((cid, psn)) = need {
            // Needs on *operational* clients are already satisfied: their
            // cached DPT pages were absorbed in step 4 before replay
            // began, and their flushed state is on disk — the current
            // merged copy covers them. Only a crashed client recovering
            // in parallel (§3.5) can still owe state — and only once the
            // server is up again: until then its recovery cannot begin
            // (`client_recovery_begin` refuses), so the wait would always
            // run to its deadline and reach the same merged copy.
            let crashed = self.clients.read().get(&cid).is_some_and(|e| e.crashed);
            if crashed && !self.is_down() {
                self.wait_for_recovery_progress(cid, page, psn);
            }
        }
        let wire = self.with_page(page, false, Page::to_wire)?;
        let dct_psn = self.dct.lock().psn_of(page, client);
        self.net.msg(MsgKind::PageShip, wire.len());
        Ok((wire, dct_psn))
    }

    /// §3.5: prepare one page for a crashed client's post-server-restart
    /// recovery — the base copy (current merged view, or a fresh format
    /// when the page never reached disk), the PSN the server can vouch
    /// for (rebuilt DCT via Property 2, else zero = replay everything),
    /// and the merged `CallBack_P` list from the operational clients.
    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        self.net.msg(MsgKind::Recovery, 16);
        let base = self.with_page(page, true, Page::to_wire)?;
        let install_psn = self.dct.lock().psn_of(page, client).unwrap_or(Psn::ZERO);
        // Ensure a DCT entry exists so parallel recoveries can wait on our
        // progress for this page.
        self.dct.lock().insert(page, client, None);
        let mut merged: HashMap<fgl_common::ObjectId, Psn> = HashMap::new();
        for peer in self.all_peers() {
            if peer.client_id() == client {
                continue;
            }
            self.net.msg(MsgKind::Recovery, 16);
            let list = peer.callback_list_for(page, client, fgl_common::Lsn::NIL);
            self.net.msg(MsgKind::Recovery, 16 + 24 * list.len());
            for (obj, psn) in list {
                let e = merged.entry(obj).or_insert(psn);
                if psn > *e {
                    *e = psn;
                }
            }
        }
        let mut list: Vec<_> = merged.into_iter().collect();
        list.sort_by_key(|(o, _)| (o.page.0, o.slot.0));
        self.net.msg(MsgKind::PageShip, base.len());
        Ok((base, install_psn, list))
    }

    /// A recovering client polls for partial-state needs addressed to it
    /// (§3.4 step 3: "CID will send P to the server only after it has
    /// processed all log records containing a PSN value that is less than
    /// the PSN value C sent"). Returns pages another recovering client is
    /// waiting on, with the PSN threshold.
    fn poll_recovery_needs(&self, provider: ClientId) -> Vec<(PageId, Psn)> {
        self.recovery_needs
            .lock()
            .iter()
            .filter(|(c, _, _)| *c == provider)
            .map(|&(_, p, q)| (p, q))
            .collect()
    }

    /// Install a client's recovered copy of a page (final phase of §3.4).
    fn install_recovered(&self, client: ClientId, bytes: Vec<u8>) -> Result<()> {
        self.net.msg(MsgKind::PageShip, bytes.len());
        self.absorb_page(client, &bytes, false)
    }

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The shared configuration handle (what clients store — one config
    /// allocation per system, not per participant).
    fn config_shared(&self) -> Arc<SystemConfig> {
        self.cfg.clone()
    }

    /// The shared metrics registry (histograms + counters). Clients attach
    /// to this same instance so one snapshot covers the whole system.
    fn metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }
}
