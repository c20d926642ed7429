//! The page-server runtime: the methods clients invoke over the (counted)
//! message fabric, and the driver that turns GLM events into callbacks,
//! grants and aborts.
//!
//! # One of each
//!
//! A `ServerCore` is the paper's server (§2, §3.2): one lock table (a
//! [`GlmCore`]), one buffer pool + space map (a [`PageStore`]), one DCT,
//! one server log. Scale-out is by *instances*: an N-way partitioned
//! page service is N `ServerCore`s, instance `k` owning the pages with
//! `PageId % N == k` (see [`ServerCore::new_instance`]); nothing inside
//! an instance is partitioned again. The GLM feeds a [`WaitGraph`] that
//! the cross-instance `DeadlockCoordinator` reads, so cycles spanning
//! instances are still found. The §4.1 `commit_ship_log` baseline's
//! shared mutex *is* the bottleneck the paper predicts and stays as is.
//!
//! # Locking discipline
//!
//! Internal mutexes (`glm`, `store`, `dct`, `waiters`, …) are held only
//! for short state transitions and **never** across a [`ClientPeer`]
//! call; clients, symmetrically, never invoke the server while holding
//! their own runtime mutex. This pair of rules is what makes the
//! direct-call message fabric deadlock-free. The GLM acquires the wait
//! graph's lock only while the graph never calls back into the server,
//! so the order `glm → graph` is acyclic. Simulated disk latency (page
//! reads and in-place writes) runs with **no server lock held**: the
//! store exposes pool-first primitives and a bare disk handle so every
//! sleep happens between lock acquisitions.

use crate::dct::Dct;
use crate::pagestore::PageStore;
use fgl_common::config::CommitPolicy;
use fgl_common::{ClientId, FglError, Lsn, PageId, Psn, Result, SystemConfig, TxnId};
use fgl_locks::contention::{ContentionProfiler, PageContention};
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
use fgl_wal::manager::LogManager;
use fgl_wal::records::{LogPayload, ReplacementRecord};
use fgl_wal::store::MemLogStore;
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
    pub pages_received: u64,
    pub pages_flushed: u64,
    pub replacement_records: u64,
    pub server_checkpoints: u64,
    pub commit_log_ships: u64,
    pub merges: u64,
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
    pub(crate) glm: Mutex<GlmCore>,
    pub(crate) store: Mutex<PageStore>,
    pub(crate) dct: Mutex<Dct>,
    /// Parked lock waiters plus the cached PSN their request carried
    /// (footnote 4 of §3.2), keyed by txn.
    waiters: Mutex<HashMap<TxnId, (GrantSlot, Option<Psn>)>>,
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
    peers: RwLock<HashMap<ClientId, Arc<dyn ClientPeer>>>,
    /// Server-logging baseline (§4.1): log records shipped at commit,
    /// appended per client behind one (bottleneck) mutex.
    client_logs: Mutex<HashMap<ClientId, Vec<u8>>>,
    crashed_clients: Mutex<HashSet<ClientId>>,
    /// Clients that were down across a server restart: the rebuilt DCT is
    /// incomplete for them, so their recovery must use the §3.5 path.
    dct_incomplete: Mutex<HashSet<ClientId>>,
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
    /// `page_ship_bytes_copied`, resolved once: every absorbed page adds.
    ship_bytes_copied: Counter,
    /// `server_recovery_fetch_timeouts`: §3.5 waits that ran out and
    /// served the current merged copy instead.
    recovery_fetch_timeouts: Counter,
    /// Per-page wait-time / callback fan-out accumulator (top-N hottest
    /// pages; surfaced through [`ServerCore::contention_top`]).
    contention: ContentionProfiler,
    lock_requests: AtomicU64,
    page_fetches: AtomicU64,
    pages_received: AtomicU64,
    pages_flushed: AtomicU64,
    replacement_records: AtomicU64,
    server_checkpoints: AtomicU64,
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
        let mut slog = LogManager::new(
            Box::new(fgl_wal::store::SimLogStore::new(
                Box::new(MemLogStore::new()),
                cfg.disk_latency,
            )),
            cfg.server_log_bytes,
        );
        slog.attach_obs(metrics.clone(), LogOwner::Server);
        Arc::new(ServerCore {
            cfg: Arc::new(cfg),
            net,
            instance,
            instances,
            glm: Mutex::new(GlmCore::with_graph(wait_graph.clone())),
            store: Mutex::new(store),
            dct: Mutex::new(Dct::new()),
            waiters: Mutex::new(HashMap::new()),
            replaced_by: Mutex::new(HashMap::new()),
            last_ship: Mutex::new(HashMap::new()),
            wait_graph,
            coord: OnceLock::new(),
            slog: Mutex::new(slog),
            peers: RwLock::new(HashMap::new()),
            client_logs: Mutex::new(HashMap::new()),
            crashed_clients: Mutex::new(HashSet::new()),
            dct_incomplete: Mutex::new(HashSet::new()),
            recovery_gen: Mutex::new(0),
            recovery_cv: Condvar::new(),
            recovery_needs: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            ship_bytes_copied: metrics.counter("page_ship_bytes_copied"),
            recovery_fetch_timeouts: metrics.counter("server_recovery_fetch_timeouts"),
            metrics,
            contention: ContentionProfiler::new(),
            lock_requests: AtomicU64::new(0),
            page_fetches: AtomicU64::new(0),
            pages_received: AtomicU64::new(0),
            pages_flushed: AtomicU64::new(0),
            replacement_records: AtomicU64::new(0),
            server_checkpoints: AtomicU64::new(0),
            commit_log_ships: AtomicU64::new(0),
            slog_appends_since_ckpt: AtomicU64::new(0),
        })
    }

    /// This server's partition index (`0` in a single-server system).
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// Total server instances in the system this server belongs to.
    pub fn instance_count(&self) -> usize {
        self.instances
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

    /// Cross-instance victim teardown: cancel `txn`'s parked waiter (if
    /// any) on this instance and drive the resulting GLM events. Runs
    /// with no server mutex held.
    fn abort_parked(&self, txn: TxnId) {
        if self.down.load(Ordering::Acquire) {
            return;
        }
        let events = self.abort_waiter(txn);
        self.drive(events);
    }

    /// Tell `txn`'s parked waiter (if any) it was chosen as a deadlock
    /// victim and withdraw its request from the GLM.
    fn abort_waiter(&self, txn: TxnId) -> Vec<GlmEvent> {
        let slot = self.waiters.lock().remove(&txn);
        if let Some((slot, _)) = slot {
            self.net.msg(MsgKind::Abort, 16);
            slot.fulfil(GrantMsg::Victim);
        }
        self.glm.lock().cancel_wait(txn)
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
            pages_received: self.pages_received.load(Ordering::Relaxed),
            pages_flushed: self.pages_flushed.load(Ordering::Relaxed),
            replacement_records: self.replacement_records.load(Ordering::Relaxed),
            server_checkpoints: self.server_checkpoints.load(Ordering::Relaxed),
            commit_log_ships: self.commit_log_ships.load(Ordering::Relaxed),
            merges: self.store.lock().merges(),
        }
    }

    /// The `n` pages with the most cumulative lock-wait time (callback
    /// fan-out breaks ties), hottest first.
    pub fn contention_top(&self, n: usize) -> Vec<(PageId, PageContention)> {
        self.contention.top_n(n)
    }

    /// Distinct pages that ever saw a queued wait or a callback.
    pub fn contention_pages_tracked(&self) -> usize {
        self.contention.pages_tracked()
    }

    // ---- registration ------------------------------------------------------

    fn peer(&self, id: ClientId) -> Option<Arc<dyn ClientPeer>> {
        self.peers.read().get(&id).cloned()
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
    fn drive(&self, events: Vec<GlmEvent>) {
        let mut queue: std::collections::VecDeque<GlmEvent> = events.into();
        loop {
            // Wave: drain the queue, accumulating callbacks into
            // per-destination batches; grants and aborts apply inline.
            let mut batches: Vec<(ClientId, Vec<CallbackKind>)> = Vec::new();
            while let Some(ev) = queue.pop_front() {
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
                        first_exclusive_on_page,
                    } => {
                        emit(Event::LockGrant {
                            client,
                            txn,
                            page: target.page(),
                            queued: true,
                        });
                        self.contention.on_resolve(txn, self.metrics.now_us());
                        let slot = self.waiters.lock().remove(&txn);
                        if let Some((slot, cached_psn)) = slot {
                            if first_exclusive_on_page {
                                self.dct.lock().insert(target.page(), client, cached_psn);
                            }
                            slot.fulfil(self.grant(client, target, first_exclusive_on_page));
                        }
                    }
                    GlmEvent::AbortTxn { txn, .. } => {
                        emit(Event::DeadlockVictim { txn });
                        self.metrics.add("deadlock_victims", 1);
                        self.contention.on_resolve(txn, self.metrics.now_us());
                        queue.extend(self.abort_waiter(txn));
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
        let mut deliveries: Vec<(ClientId, Arc<dyn ClientPeer>, Vec<CallbackKind>)> = Vec::new();
        for (to, kinds) in batches {
            // A client that crashed between GLM decision and delivery is
            // skipped entirely: its callbacks stay outstanding in the GLM
            // and are re-delivered after recovery, and the GLM's
            // crash_client path re-evaluates the waiters so the grant is
            // not stranded.
            if self.crashed_clients.lock().contains(&to) {
                continue;
            }
            let Some(peer) = self.peer(to) else {
                continue;
            };
            deliveries.push((to, peer, kinds));
        }
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
                self.contention.on_callback(kind.page());
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
        queue: &mut std::collections::VecDeque<GlmEvent>,
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
        let evs = self.glm.lock().callback_reply_batch(from, replies);
        queue.extend(evs);
    }

    /// The grant message for `client`'s lock on `target`, counted as one
    /// `LockReply` that carries the page. It runs once the wave that
    /// decided the grant has absorbed every copy its callbacks shipped, so
    /// the attached page holds the released updates and the grantee needs
    /// no fetch. A page that cannot be read is left off; the grantee then
    /// fetches it, and meets the error there.
    fn grant(
        &self,
        client: ClientId,
        target: LockTarget,
        first_exclusive_on_page: bool,
    ) -> GrantMsg {
        let evidence = self.grant_evidence(client, &target);
        let page = self
            .hand_out_page(client, target.page())
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

    /// Pool-first page read: on a miss, the disk read (and its simulated
    /// latency) runs with **no server lock held**, then the copy is
    /// installed unless a newer one appeared meanwhile.
    fn read_page_copy(&self, page: PageId) -> Result<Page> {
        if let Some(p) = self.store.lock().pool_copy(page) {
            return Ok(p);
        }
        let disk = self.store.lock().disk_handle();
        let from_disk = disk.read_page(page)?.ok_or(FglError::PageNotFound(page))?;
        self.install_read(page, Some(from_disk))
    }

    /// [`read_page_copy`](Self::read_page_copy) for recovery (§3.4 replay
    /// bases, §3.5): a page absent on disk is formatted, not missing.
    pub(crate) fn read_or_format_page(&self, page: PageId) -> Result<Page> {
        if let Some(p) = self.store.lock().pool_copy(page) {
            return Ok(p);
        }
        let disk = self.store.lock().disk_handle();
        let from_disk = disk.read_page(page)?;
        self.install_read(page, from_disk)
    }

    /// Install what a disk read made with no server lock held found
    /// (`PageStore::install_read`), flushing whatever that evicts.
    pub(crate) fn install_read(&self, page: PageId, from_disk: Option<Page>) -> Result<Page> {
        let (copy, evicted) = self.store.lock().install_read(page, from_disk);
        self.flush_images(evicted)?;
        Ok(copy)
    }

    /// The current merged copy of `page` as a fetch or a grant hands it to
    /// `client`, plus the PSN the DCT remembers for the client (§3.2:
    /// ignored during normal processing, used by rollback-after-
    /// replacement and by restart recovery). A DCT entry still without a
    /// PSN takes the copy's.
    fn hand_out_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        let copy = self.read_page_copy(page)?;
        let dct_psn = {
            let mut dct = self.dct.lock();
            dct.set_psn_if_unset(page, client, copy.psn());
            dct.psn_of(page, client)
        };
        emit(Event::PageShip {
            client,
            page,
            psn: copy.psn(),
            to_server: false,
        });
        Ok((copy.into_bytes(), dct_psn))
    }

    pub(crate) fn absorb_page(&self, client: ClientId, bytes: &[u8], replaced: bool) -> Result<()> {
        let page = self.parse_frame(bytes)?;
        self.absorb_parsed(client, page, replaced)
    }

    /// The ship path's single copy: materialize an owned page from a
    /// shared frame, accounting the copied bytes.
    fn parse_frame(&self, bytes: &[u8]) -> Result<Page> {
        self.ship_bytes_copied.add(bytes.len() as u64);
        fgl_storage::merge::parse_incoming(bytes)
    }

    fn absorb_parsed(&self, client: ClientId, page: Page, replaced: bool) -> Result<()> {
        let id = page.id();
        self.pages_received.fetch_add(1, Ordering::Relaxed);
        debug_assert!(self.owns_page(id), "misrouted page {id:?}");
        let merge_start = self.metrics.now_us();
        // Pool-first merge; on a miss the disk read runs unlocked and the
        // merge re-checks the pool (a copy that slipped in wins as the
        // resident side).
        let store = self.store.lock();
        let (incoming_psn, _outcome, evicted) = {
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
    /// pages go to disk as one request. The in-place writes (and their
    /// simulated latency) run with no server lock held; the log force
    /// serializes on the log's own mutex, which is the nature of a single
    /// sequential log device.
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
        let lsns = {
            let mut slog = self.slog.lock();
            let lsns = records
                .iter()
                .map(|record| slog.append_critical(record))
                .collect::<Result<Vec<Lsn>>>()?;
            slog.force()?;
            lsns
        };
        self.replacement_records
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        {
            let mut dct = self.dct.lock();
            for (img, lsn) in images.iter().zip(lsns) {
                dct.note_replacement_record(img.id(), lsn);
            }
        }
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
        let crashed = self.crashed_clients.lock().clone();
        for c in clients {
            if crashed.contains(&c) {
                continue;
            }
            if let Some(peer) = self.peer(c) {
                self.net.msg(MsgKind::FlushNotify, 16);
                peer.notify_page_flushed(page);
            }
        }
    }

    /// Drop DCT entries whose page is clean on disk and whose client no
    /// longer holds exclusive locks touching the page (§3.2).
    fn prune_dct(&self, page: PageId) {
        if self.store.lock().is_dirty(page) {
            return;
        }
        let entries = self.dct.lock().entries_for_page(page);
        let glm = self.glm.lock();
        let mut dct = self.dct.lock();
        for e in entries {
            if !glm.client_has_exclusive_on_page(e.client, page) {
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
        let snapshot = self.dct.lock().snapshot();
        let min_redo = snapshot.iter().filter_map(|e| e.redo_lsn).min();
        let mut slog = self.slog.lock();
        let lsn = slog.append_critical(&LogPayload::ServerCheckpoint { dct: snapshot })?;
        slog.force()?;
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
        self.server_checkpoints.fetch_add(1, Ordering::Relaxed);
        self.metrics.add("server_checkpoints", 1);
        Ok(())
    }

    // ---- server-logging baselines (§4.1) --------------------------------------

    // ---- client crash handling (§3.3) ------------------------------------------

    // ---- server crash plumbing (the restart algorithm lives in recovery.rs) ----

    /// Simulate a server crash: all volatile state (buffer pool, GLM,
    /// DCT, waits-for graph, parked waiters, un-forced log tail)
    /// vanishes; disk and forced log survive.
    pub fn crash(&self) {
        self.down.store(true, Ordering::Release);
        self.wait_graph.clear();
        self.store.lock().crash();
        self.dct.lock().clear();
        *self.glm.lock() = GlmCore::with_graph(self.wait_graph.clone());
        self.waiters.lock().clear();
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

    pub(crate) fn all_peers(&self) -> Vec<Arc<dyn ClientPeer>> {
        self.peers.read().values().cloned().collect()
    }

    pub(crate) fn crashed_set(&self) -> HashSet<ClientId> {
        self.crashed_clients.lock().clone()
    }

    pub(crate) fn mark_dct_incomplete(&self, clients: &HashSet<ClientId>) {
        self.dct_incomplete.lock().extend(clients.iter().copied());
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

    /// Diagnostics: PSN of the server's current copy (pool else disk).
    pub fn current_psn(&self, page: PageId) -> Option<Psn> {
        self.store.lock().current_psn(page).ok().flatten()
    }

    /// Diagnostics / oracle verification: a copy of the page as the server
    /// sees it now.
    pub fn page_copy(&self, page: PageId) -> Result<Page> {
        self.read_page_copy(page)
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
        self.peers.write().insert(id, peer);
        self.crashed_clients.lock().remove(&id);
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
        // Hold the waiter registry across the GLM call: once the GLM
        // queues the request (and releases its mutex), a concurrent
        // `drive` may already carry the Grant/Victim for this txn, and it
        // resolves the slot through this same mutex — registering after
        // releasing it would drop that wake-up and strand the client
        // until the timeout backstop.
        let mut parked = self.waiters.lock();
        let (outcome, effective, events) = self.glm.lock().lock(client, txn, target);
        match outcome {
            LockOutcome::Granted {
                first_exclusive_on_page,
            } => {
                drop(parked);
                if first_exclusive_on_page {
                    self.dct.lock().insert(effective.page(), client, cached_psn);
                }
                self.drive(events);
                emit(Event::LockGrant {
                    client,
                    txn,
                    page: effective.page(),
                    queued: false,
                });
                Ok(LockResponse::Decided(self.grant(
                    client,
                    effective,
                    first_exclusive_on_page,
                )))
            }
            LockOutcome::Queued => {
                let (slot, waiter) = grant_pair();
                parked.insert(txn, (slot, cached_psn));
                drop(parked);
                self.contention
                    .on_queue(txn, &target, self.metrics.now_us());
                emit(Event::LockQueue {
                    client,
                    txn,
                    page: target.page(),
                });
                self.drive(events);
                Ok(LockResponse::Wait(waiter))
            }
        }
    }

    /// A waiting client gave up (timeout) or aborted.
    fn cancel_wait(&self, _client: ClientId, txn: TxnId) {
        self.net.msg(MsgKind::Control, 16);
        self.contention.on_resolve(txn, self.metrics.now_us());
        self.waiters.lock().remove(&txn);
        let events = self.glm.lock().cancel_wait(txn);
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
        let events = self
            .glm
            .lock()
            .callback_reply(client, kind, CallbackReply::Done { retained });
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
        self.glm
            .lock()
            .install_holder(client, LockTarget::Page(page.id(), ObjMode::X));
        self.dct.lock().insert(page.id(), client, Some(page.psn()));
        self.net.msg(MsgKind::PageShip, page.size());
        Ok(page.into_bytes())
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
    /// locks, queue callbacks addressed to it.
    fn client_crashed(&self, client: ClientId) {
        self.crashed_clients.lock().insert(client);
        self.peers.write().remove(&client);
        // Its parked waiters die with it.
        let its: Vec<TxnId> = {
            let mut waiters = self.waiters.lock();
            let its: Vec<TxnId> = waiters
                .keys()
                .copied()
                .filter(|t| t.client() == client)
                .collect();
            for t in &its {
                waiters.remove(t);
            }
            its
        };
        let mut events = Vec::new();
        {
            let mut glm = self.glm.lock();
            for t in its {
                events.extend(glm.cancel_wait(t));
            }
            events.extend(glm.crash_client(client));
        }
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
        self.peers.write().insert(client, peer);
        let locks = self.glm.lock().exclusive_locks(client);
        let psns: Vec<(PageId, Option<Psn>)> = self
            .dct
            .lock()
            .entries_for_client(client)
            .into_iter()
            .map(|e| (e.page, e.psn))
            .collect();
        let dct_complete = !self.dct_incomplete.lock().contains(&client);
        self.net
            .msg(MsgKind::Recovery, 16 * (locks.len() + psns.len()).max(1));
        Ok((locks, psns, dct_complete))
    }

    /// Recovery finished: deliver queued callbacks, then let the client
    /// release the locks of its (now resolved) pre-crash transactions.
    fn client_recovery_end(&self, client: ClientId) -> Result<()> {
        self.check_up()?;
        self.net.msg(MsgKind::Recovery, 16);
        self.crashed_clients.lock().remove(&client);
        self.dct_incomplete.lock().remove(&client);
        let events = {
            let mut glm = self.glm.lock();
            glm.client_recovered(client);
            glm.release_all(client)
        };
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
            let provider_recovering = self.crashed_clients.lock().contains(&cid);
            if provider_recovering && !self.is_down() {
                self.wait_for_recovery_progress(cid, page, psn);
            }
        }
        let copy = self.read_page_copy(page)?;
        let dct_psn = self.dct.lock().psn_of(page, client);
        self.net.msg(MsgKind::PageShip, copy.size());
        Ok((copy.into_bytes(), dct_psn))
    }

    /// §3.5: prepare one page for a crashed client's post-server-restart
    /// recovery — the base copy (current merged view, or a fresh format
    /// when the page never reached disk), the PSN the server can vouch
    /// for (rebuilt DCT via Property 2, else zero = replay everything),
    /// and the merged `CallBack_P` list from the operational clients.
    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        self.net.msg(MsgKind::Recovery, 16);
        let base = self.read_or_format_page(page)?;
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
        self.net.msg(MsgKind::PageShip, base.size());
        Ok((base.into_bytes(), install_psn, list))
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
