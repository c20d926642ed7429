//! The socket server's connection model: page fetches and ships run on
//! the connection reader, every other request on a cached worker pool
//! that starts a thread only when none is idle, and the accept loop
//! blocks instead of polling. Each client has two streams: callers read
//! their own replies from the rpc stream, and callbacks and grants come
//! down the events stream.

use fgl::{
    ClientCore, ClientId, FglError, LockTarget, Lsn, NetSim, ObjMode, ObjectId, PageId, Psn,
    RemoteServer, Result, ServerApi, ServerCore, SlotId, SocketServer, SystemConfig, TransportKind,
    TxnId,
};
use fgl_locks::glm::CallbackKind;
use fgl_net::transport::frame::{self, FrameKind, StreamRole, HEADER};
use fgl_net::{
    CallbackOutcome, ClientPeer, ClientStateReport, GrantMsg, LockResponse, MsgKind, NetStats,
    RecoverPagePlan, RecoveredPageOutcome, RecoveryHandshake, Reply, Request, RECOVER_BATCH_PAGES,
};
use fgl_obs::{CaptureSink, Event, Metrics, SocketSite};
use fgl_sim::crash::prepare;
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use fgl_storage::disk::MemDisk;
use fgl_storage::page::{Page, PAGE_HEADER_SIZE};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

fn socket_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fgl-sock-{tag}-{}-{}.sock",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn server() -> Arc<ServerCore> {
    ServerCore::new(
        SystemConfig::default(),
        Arc::new(NetSim::new(Duration::ZERO)),
        Arc::new(MemDisk::new()),
    )
}

fn connect(path: &Path, id: u32) -> Arc<RemoteServer> {
    RemoteServer::connect_uds(path, ClientId(id), Arc::new(NetStats::default()), None).unwrap()
}

/// Replies this stub's callers read for one another.
fn handed_off(remote: &RemoteServer) -> u64 {
    remote.metrics().snapshot().counters["socket_replies_handed_off"]
}

/// A page created, committed and hardened at the server by an in-process
/// loader, so any client can fetch it.
fn loaded_page(core: &Arc<ServerCore>, fill: u8) -> PageId {
    let loader = ClientCore::new(
        ClientId(100 + fill as u32),
        core.clone(),
        Arc::new(NetSim::new(Duration::ZERO)),
    );
    let t = loader.begin().unwrap();
    let page = loader.create_page(t).unwrap();
    loader.insert(t, page, &[fill; 32]).unwrap();
    loader.commit(t).unwrap();
    loader.harden().unwrap();
    page
}

#[test]
fn steady_state_spawns_no_threads() {
    let core = server();
    let path = socket_path("steady");
    let sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    let remote = connect(&path, 1);
    let client = ClientCore::new(
        ClientId(1),
        remote.clone(),
        Arc::new(NetSim::new(Duration::ZERO)),
    );
    let t = client.begin().unwrap();
    let page = client.create_page(t).unwrap();
    client.insert(t, page, b"steady").unwrap();
    client.commit(t).unwrap();
    client.harden().unwrap();

    let (bytes, _) = remote.fetch_page(ClientId(1), page).unwrap();
    let bytes: Arc<[u8]> = bytes.into();
    let mut after_200 = 0;
    for i in 1..=2_000 {
        if i % 2 == 0 {
            remote.fetch_page(ClientId(1), page).unwrap();
        } else {
            remote.ship_page(ClientId(1), bytes.clone(), false).unwrap();
        }
        if i == 200 {
            after_200 = sock.pool_threads();
        }
    }
    let after_2000 = sock.pool_threads();
    assert!(after_2000 <= 4, "{after_2000} pool threads");
    assert_eq!(after_200, after_2000, "a fetch or ship started a thread");
    assert!(sock.requests() >= 2_000);
    assert_eq!(handed_off(&remote), 0, "one caller read another's reply");
    remote.disconnect();
}

/// A `ServerApi` that leaves a trace tag behind on `client_crashed` — a
/// span that was never closed — and records the tag `poll_recovery_needs`
/// starts under. Its `force_page` answers only once the requesting
/// client answered a `report_state` callback: a reply that depends on a
/// callback to the caller's own client. Every other method is the wrapped
/// server's.
struct Probe {
    inner: Arc<ServerCore>,
    seen: Mutex<Vec<(&'static str, ThreadId, u64)>>,
    peer: Mutex<Option<Arc<dyn ClientPeer>>>,
}

impl Probe {
    fn new() -> Arc<Probe> {
        Arc::new(Probe {
            inner: server(),
            seen: Mutex::new(Vec::new()),
            peer: Mutex::new(None),
        })
    }
}

const LEAKED_TAG: u64 = 0xF00D;

impl ServerApi for Probe {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
        *self.peer.lock().unwrap() = Some(peer.clone());
        self.inner.register_client(peer)
    }
    fn lock(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<LockResponse> {
        self.inner.lock(client, txn, target, cached_psn)
    }
    fn cancel_wait(&self, client: ClientId, txn: TxnId) {
        self.inner.cancel_wait(client, txn)
    }
    fn callback_complete(
        &self,
        client: ClientId,
        kind: CallbackKind,
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    ) -> Result<()> {
        self.inner
            .callback_complete(client, kind, retained, page_copy)
    }
    fn fetch_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        self.inner.fetch_page(client, page)
    }
    fn allocate_page(&self, client: ClientId, txn: TxnId) -> Result<Vec<u8>> {
        self.inner.allocate_page(client, txn)
    }
    fn ship_page(&self, client: ClientId, bytes: Arc<[u8]>, replaced: bool) -> Result<()> {
        self.inner.ship_page(client, bytes, replaced)
    }
    fn force_page(&self, _client: ClientId, _page: PageId) -> Result<()> {
        let peer = self.peer.lock().unwrap().clone();
        peer.expect("force_page before register_client")
            .report_state();
        Ok(())
    }
    fn commit_ship_log(
        &self,
        client: ClientId,
        records: Vec<u8>,
        touched: Vec<PageId>,
    ) -> Result<()> {
        self.inner.commit_ship_log(client, records, touched)
    }
    fn fetch_client_log(&self, client: ClientId) -> Result<Vec<u8>> {
        self.inner.fetch_client_log(client)
    }
    fn server_logging(&self) -> bool {
        self.inner.server_logging()
    }
    fn client_crashed(&self, _client: ClientId) {
        let tag = fgl_sched::trace_tag();
        self.seen
            .lock()
            .unwrap()
            .push(("crashed", thread::current().id(), tag));
        fgl_sched::set_trace_tag(LEAKED_TAG);
    }
    fn client_recovery_begin(
        &self,
        client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        self.inner.client_recovery_begin(client, peer)
    }
    fn client_recovery_end(&self, client: ClientId) -> Result<()> {
        self.inner.client_recovery_end(client)
    }
    fn recovery_fetch(
        &self,
        client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        self.inner.recovery_fetch(client, page, need)
    }
    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        self.inner.recover_client_page(client, page)
    }
    fn poll_recovery_needs(&self, _provider: ClientId) -> Vec<(PageId, Psn)> {
        let tag = fgl_sched::trace_tag();
        self.seen
            .lock()
            .unwrap()
            .push(("poll", thread::current().id(), tag));
        Vec::new()
    }
    fn install_recovered(&self, client: ClientId, bytes: Vec<u8>) -> Result<()> {
        self.inner.install_recovered(client, bytes)
    }
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }
    fn config_shared(&self) -> Arc<SystemConfig> {
        self.inner.config_shared()
    }
    fn metrics(&self) -> Arc<Metrics> {
        self.inner.metrics()
    }
}

#[test]
fn pooled_worker_does_not_inherit_a_trace_tag() {
    let probe = Probe::new();
    let path = socket_path("tag");
    let _sock = SocketServer::serve_uds(probe.clone(), &path).unwrap();
    let remote = connect(&path, 1);
    let mut reused = 0;
    for _ in 0..20 {
        remote.client_crashed(ClientId(1));
        // Let the worker park, so the next request can reuse it.
        thread::sleep(Duration::from_millis(5));
        remote.poll_recovery_needs(ClientId(1));
        let seen = probe.seen.lock().unwrap();
        let [.., (_, crashed_on, _), (_, polled_on, tag)] = seen[..] else {
            panic!("both requests must reach the server: {seen:?}");
        };
        if crashed_on == polled_on {
            reused += 1;
            assert_eq!(tag, 0, "the next job on a worker saw a stale trace tag");
        }
    }
    assert!(reused > 0, "no request reused a parked worker");
    assert_eq!(handed_off(&remote), 0, "one caller read another's reply");
    remote.disconnect();
}

/// E17's contended cell over UDS in a debug build: the guard that a
/// reader-run request never waits on a peer is live, so a fetch or ship
/// that reached a callback or a lock wait would panic the reader and
/// stall the run into a timeout. The last input runs 8 committers on 2
/// workers: a green task blocks its worker while it reads a socket, so
/// committers outnumbering workers must still make progress.
#[test]
fn reader_inline_requests_never_wait_on_a_peer() {
    for (clients, workers) in [(2, 0), (4, 0), (8, 2)] {
        let cfg = SystemConfig {
            disk_latency: Duration::from_micros(400),
            lock_timeout: Duration::from_secs(2),
            ..SystemConfig::default()
        }
        .with_transport(TransportKind::Uds);
        let sys = fgl::System::build(cfg, clients).unwrap();
        let mut spec = WorkloadSpec::new(WorkloadKind::HiCon);
        spec.pages = (16 * clients).max(32);
        spec.objects_per_page = 16;
        spec.ops_per_txn = 8;
        spec.write_fraction = 0.5;
        spec.hot_pages = (2 * clients).max(4);
        let (layout, oracle) = prepare(&sys, &spec).unwrap();
        let mut opts = HarnessOptions::new(spec, 20);
        opts.seed = 0xE17;
        opts.event_workers = workers;
        let report = run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        let verify = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(
            verify.is_clean(),
            "{clients} clients: {:?}",
            verify.mismatches
        );
        assert_eq!(report.metrics.counters["client_lock_timeouts"], 0);
    }
}

#[test]
fn runs_on_reader_is_pinned_per_variant() {
    let obj = ObjectId {
        page: PageId(1),
        slot: SlotId(0),
    };
    let txn = TxnId(7);
    let page: Arc<[u8]> = Arc::from(vec![0u8; 64]);
    let cases = [
        (Request::FetchPage { page: PageId(1) }, true),
        (
            Request::ShipPage {
                bytes: page.clone(),
                replaced: true,
            },
            true,
        ),
        (Request::Register, false),
        (
            Request::Lock {
                txn,
                target: LockTarget::Object(obj, ObjMode::X),
                cached_psn: None,
            },
            false,
        ),
        (Request::CancelWait { txn }, false),
        (
            Request::CallbackComplete {
                kind: CallbackKind::ReleaseObject(obj),
                retained: Vec::new(),
                page_copy: Some(page.clone()),
            },
            false,
        ),
        (Request::AllocatePage { txn }, false),
        (Request::ForcePage { page: PageId(1) }, false),
        // A batch runs where its per-page request runs: fetches and
        // ships on the reader, forces (a server-log force) off it.
        (
            Request::FetchPages {
                pages: vec![PageId(1), PageId(2)],
            },
            true,
        ),
        (
            Request::ShipPages {
                pages: vec![page.clone(), page],
                replaced: true,
            },
            true,
        ),
        (
            Request::ForcePages {
                pages: vec![PageId(1), PageId(2)],
            },
            false,
        ),
        (
            Request::CommitShipLog {
                records: Vec::new(),
                touched: Vec::new(),
            },
            false,
        ),
        (Request::FetchClientLog, false),
        (Request::ClientCrashed, false),
        (Request::RecoveryBegin, false),
        (Request::RecoveryEnd, false),
        (
            Request::RecoveryFetch {
                page: PageId(1),
                need: Some((ClientId(2), Psn(3))),
            },
            false,
        ),
        (Request::RecoverClientPage { page: PageId(1) }, false),
        (Request::PollRecoveryNeeds, false),
        (Request::InstallRecovered { bytes: Vec::new() }, false),
    ];
    for (req, inline) in &cases {
        assert_eq!(req.runs_on_reader(), *inline, "{req:?}");
    }
}

#[test]
fn accept_answers_at_once_and_shutdown_is_prompt() {
    let path = socket_path("accept");
    let core = server();
    let mut sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    // Fifty connect + Hello round trips; an accept loop that slept on an
    // empty backlog made each wait out its nap.
    let t0 = Instant::now();
    for id in 1..=50 {
        connect(&path, id).disconnect();
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "50 handshakes took {elapsed:?}"
    );

    let t0 = Instant::now();
    sock.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(50),
        "shutdown took {elapsed:?}"
    );
    assert!(!path.exists(), "the socket file outlived the server");
    let counters = core.metrics().snapshot().counters;
    assert_eq!(
        counters["socket_conn_setup_failed"], 0,
        "the wake-up connection counted as a failed setup"
    );
}

// ---- the read role and the events stream -----------------------------------

/// Eight callers share one stub; every reply reaches the caller that
/// asked for it, and some are read by another caller's thread.
/// Mutation: the role holder returns the first reply it reads, whoever
/// asked — callers get foreign pages.
#[test]
fn concurrent_callers_each_get_their_own_reply() {
    let core = server();
    let path = socket_path("many");
    let _sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    let pages: Vec<PageId> = (0..8).map(|i| loaded_page(&core, i)).collect();
    let remote = connect(&path, 1);
    let _client = ClientCore::new(
        ClientId(1),
        remote.clone(),
        Arc::new(NetSim::new(Duration::ZERO)),
    );
    let want: Vec<Vec<u8>> = pages
        .iter()
        .map(|&p| remote.fetch_page(ClientId(1), p).unwrap().0)
        .collect();
    for (i, a) in want.iter().enumerate() {
        assert!(want[i + 1..].iter().all(|b| a != b), "pages must differ");
    }
    thread::scope(|s| {
        for (&page, want) in pages.iter().zip(&want) {
            let remote = &remote;
            s.spawn(move || {
                for _ in 0..500 {
                    let (got, _) = remote.fetch_page(ClientId(1), page).unwrap();
                    assert!(&got == want, "a caller got another caller's reply");
                }
            });
        }
    });
    assert!(
        handed_off(&remote) > 0,
        "no reply was read for another caller"
    );
    remote.disconnect();
}

/// The client side of the role deadlock: answering `report_state` ships
/// a page through the very stub whose other caller is waiting.
struct ShipOnCallback {
    remote: OnceLock<Weak<RemoteServer>>,
    page: OnceLock<Arc<[u8]>>,
    shipped: AtomicUsize,
}

impl ClientPeer for ShipOnCallback {
    fn client_id(&self) -> ClientId {
        ClientId(1)
    }
    fn deliver_callback(&self, _kind: CallbackKind) -> CallbackOutcome {
        unreachable!("no lock callbacks in this test")
    }
    fn notify_page_flushed(&self, _page: PageId) {}
    fn report_state(&self) -> ClientStateReport {
        let remote = self.remote.get().and_then(Weak::upgrade).unwrap();
        let page = self.page.get().unwrap().clone();
        remote.ship_page(ClientId(1), page, false).unwrap();
        self.shipped.fetch_add(1, Ordering::Relaxed);
        ClientStateReport::default()
    }
    fn callback_list_for(&self, _: PageId, _: ClientId, _: Lsn) -> Vec<(ObjectId, Psn)> {
        Vec::new()
    }
    fn ship_cached_page(&self, _page: PageId) -> Option<Arc<[u8]>> {
        None
    }
    fn recover_page(
        &self,
        _: PageId,
        _: Vec<u8>,
        _: Psn,
        _: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        RecoveredPageOutcome::Failed("not recovering".into())
    }
}

/// A caller holds the read role waiting on `force_page`, whose reply the
/// server sends only after this client answered a callback — and the
/// callback's handler must first ship a page over the same stub. The
/// holder reads the ship's reply for the handler, so all three finish.
/// Mutation: the role as a plain mutex around the reader, each caller
/// reading only its own reply — the ship waits on the mutex, the server
/// waits on the callback until its 30 s timeout.
#[test]
fn a_callback_that_ships_while_the_role_is_held_does_not_deadlock() {
    let probe = Probe::new();
    let path = socket_path("deadlock");
    let _sock = SocketServer::serve_uds(probe.clone(), &path).unwrap();
    let page = loaded_page(&probe.inner, 1);
    let remote = connect(&path, 1);
    let peer = Arc::new(ShipOnCallback {
        remote: OnceLock::new(),
        page: OnceLock::new(),
        shipped: AtomicUsize::new(0),
    });
    peer.remote.set(Arc::downgrade(&remote)).unwrap();
    remote.register_client(peer.clone());
    let (bytes, _) = remote.fetch_page(ClientId(1), page).unwrap();
    peer.page.set(bytes.into()).unwrap();

    let t0 = Instant::now();
    remote.force_page(ClientId(1), page).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(peer.shipped.load(Ordering::Relaxed), 1);
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    assert_eq!(
        handed_off(&remote),
        1,
        "the ship's reply came from the holder"
    );
    remote.disconnect();
}

/// A client with no call in flight still serves a callback: the events
/// stream has its own reader. Mutation: callbacks read only by a caller
/// holding the role — the idle writer never answers, and the reader waits
/// out the server's 30 s callback timeout.
#[test]
fn an_idle_client_still_answers_callbacks() {
    let cfg = SystemConfig::default().with_transport(TransportKind::Uds);
    let sys = fgl::System::build(cfg, 2).unwrap();
    let (writer, reader) = (sys.client(0), sys.client(1));
    let t = writer.begin().unwrap();
    let page = writer.create_page(t).unwrap();
    let obj = writer.insert(t, page, b"in writer's cache").unwrap();
    writer.commit(t).unwrap();

    // The writer is idle from here on; its lock is called back.
    let t0 = Instant::now();
    let t = reader.begin().unwrap();
    assert_eq!(reader.read(t, obj).unwrap(), b"in writer's cache");
    reader.commit(t).unwrap();
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    let counters = sys.metrics_snapshot().counters;
    assert_eq!(counters["socket_replies_handed_off"], 0);
}

/// A server restart over UDS with cached DPT pages on two clients: each
/// client ships all of its pages in one `ShipCachedPages` reply through
/// the real codec, and the restarted server reads back what both
/// committed.
#[test]
fn a_server_restart_pulls_each_clients_cached_pages_in_one_frame() {
    let cfg = SystemConfig::default().with_transport(TransportKind::Uds);
    let sys = fgl::System::build(cfg, 2).unwrap();
    let mut written = Vec::new();
    for c in &sys.clients {
        let t = c.begin().unwrap();
        for n in 0..3u8 {
            let page = c.create_page(t).unwrap();
            let value = [n + 10 * c.id().0 as u8; 16];
            written.push((c.insert(t, page, &value).unwrap(), value));
        }
        c.commit(t).unwrap();
        assert_eq!(c.dpt_snapshot().len(), 3);
    }

    let before = sys.wire_snapshot().unwrap();
    sys.server.crash();
    let report = sys.server.restart_recovery().unwrap();
    let wire = sys.wire_snapshot().unwrap().delta_since(&before);
    assert_eq!(report.recovery_units, 0, "every DPT page is cached");
    assert_eq!(wire.count(MsgKind::PageShip), 2, "one reply per client");

    // Each client reads the other's pages, as the server merged them.
    for (reader, other) in [(0, 1), (1, 0)] {
        let c = sys.client(reader);
        let t = c.begin().unwrap();
        for (obj, value) in &written[3 * other..3 * other + 3] {
            assert_eq!(c.read(t, *obj).unwrap(), value);
        }
        c.commit(t).unwrap();
    }
}

/// Client restart (§3.3) over UDS fetches, ships and forces its
/// recovered pages in one frame of each batch kind per
/// `RECOVER_BATCH_PAGES` pages, through the real codec at the largest
/// page a socket carries, and reads back what it committed.
#[test]
fn a_client_restart_sends_one_frame_of_each_batch_kind_per_batch() {
    for pages in [6, RECOVER_BATCH_PAGES + 6] {
        let cfg = SystemConfig {
            page_size: 32 * 1024,
            client_cache_pages: 2 * RECOVER_BATCH_PAGES,
            ..SystemConfig::default()
        }
        .with_transport(TransportKind::Uds);
        let sys = fgl::System::build(cfg, 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let mut written = Vec::new();
        for n in 0..pages {
            let page = c.create_page(t).unwrap();
            let value = [n as u8 + 1; 16];
            written.push((c.insert(t, page, &value).unwrap(), value));
        }
        c.commit(t).unwrap();

        c.crash();
        let before = sys.wire_snapshot().unwrap();
        let report = c.recover().unwrap();
        let wire = sys.wire_snapshot().unwrap().delta_since(&before);
        assert_eq!(report.pages_fetched, pages);
        // Per batch one `FetchPages` and one `ForcePages` request; the
        // page ships are the `Pages` reply and one `ShipPages` request.
        let batches = pages.div_ceil(RECOVER_BATCH_PAGES) as u64;
        assert_eq!(wire.count(MsgKind::FetchPage), batches, "{pages} pages");
        assert_eq!(wire.count(MsgKind::ForcePage), batches, "{pages} pages");
        assert_eq!(wire.count(MsgKind::PageShip), 2 * batches, "{pages} pages");
        let counters = sys.metrics_snapshot().counters;
        assert_eq!(counters["server_recovery_fetch_timeouts"], 0);

        let t = c.begin().unwrap();
        for (obj, value) in &written {
            assert_eq!(c.read(t, *obj).unwrap(), value);
        }
        c.commit(t).unwrap();
    }
}

/// A scripted server over UDS: accepts one client's rpc and events
/// streams and completes both handshakes, then does what the test says.
struct Scripted {
    rpc: UnixStream,
    events: UnixStream,
}

impl Scripted {
    fn accept(listener: &UnixListener) -> Scripted {
        let open = |role| {
            let (mut s, _) = listener.accept().unwrap();
            let (h, body) = frame::read_frame(&mut s).unwrap();
            assert_eq!(h.kind, FrameKind::Hello);
            assert_eq!(frame::decode_hello(&body).unwrap(), (ClientId(1), role));
            let ack = frame::encode_hello_ack(&SystemConfig::default());
            frame::write_frame(&mut s, &ack).unwrap();
            s
        };
        let rpc = open(StreamRole::Rpc);
        let events = open(StreamRole::Events);
        Scripted { rpc, events }
    }

    /// Read the next request on the rpc stream.
    fn request(&mut self) -> (u64, Request) {
        let (h, body) = frame::read_frame(&mut self.rpc).unwrap();
        (h.corr, frame::decode_request(&h, &body).unwrap())
    }
}

/// Connect a stub to a scripted server and hand both to the test.
fn scripted(tag: &str) -> (Arc<RemoteServer>, Scripted) {
    let path = socket_path(tag);
    let listener = UnixListener::bind(&path).unwrap();
    let server = thread::spawn(move || Scripted::accept(&listener));
    let remote = connect(&path, 1);
    let _ = std::fs::remove_file(&path);
    (remote, server.join().unwrap())
}

/// Callers waiting on a server that goes away mid-call all fail with
/// `Disconnected` within a second — whether the server closes both
/// streams or only its events stream. Mutation: `disconnect` shuts only
/// the events stream — with the rpc stream left open, the role holder
/// waits out its 50 s read timeout.
#[test]
fn a_server_gone_mid_call_fails_every_waiting_caller() {
    for close_rpc in [true, false] {
        let (remote, mut server) = scripted("gone");
        let callers: Vec<_> = (0..4)
            .map(|i| {
                let remote = remote.clone();
                thread::spawn(move || remote.fetch_page(ClientId(1), PageId(i)))
            })
            .collect();
        for _ in 0..callers.len() {
            assert!(matches!(server.request().1, Request::FetchPage { .. }));
        }
        let t0 = Instant::now();
        drop(server.events);
        if close_rpc {
            drop(server.rpc);
        }
        for c in callers {
            let err = c.join().unwrap().unwrap_err();
            assert!(matches!(err, FglError::Disconnected(_)), "{err:?}");
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "close_rpc={close_rpc}: callers failed after {elapsed:?}"
        );
    }
}

/// The grant rides the events stream and may overtake its `LockQueued`
/// reply; the slot registered before the request left still catches it.
/// Mutation: the slot registered only once `LockQueued` is read — the
/// grant finds no slot and the waiter times out.
#[test]
fn a_grant_that_beats_its_lock_queued_reply_finds_its_slot() {
    let (remote, mut server) = scripted("grant");
    let target = LockTarget::Page(PageId(3), ObjMode::X);
    let locker = {
        let remote = remote.clone();
        thread::spawn(move || remote.lock(ClientId(1), TxnId(7), target, None))
    };
    let (corr, req) = server.request();
    assert!(matches!(req, Request::Lock { .. }), "{req:?}");
    let granted = GrantMsg::Granted {
        target,
        first_exclusive_on_page: true,
        evidence: None,
        page: Some(vec![0xE7; 4096]),
    };
    frame::write_frame(&mut server.events, &frame::encode_grant(corr, &granted)).unwrap();
    // The reply leaves only once the events reader has read the grant.
    while remote.wire_stats().snapshot().count(MsgKind::LockReply) == 0 {
        thread::yield_now();
    }
    let queued = frame::encode_reply(corr, &Reply::LockQueued).unwrap();
    frame::write_frame(&mut server.rpc, &queued).unwrap();
    let Ok(LockResponse::Wait(waiter)) = locker.join().unwrap() else {
        panic!("a LockQueued reply must hand back a waiter");
    };
    assert_eq!(waiter.wait(Duration::from_secs(1)), Some(granted));
    remote.disconnect();
}

/// Send `bytes` on a fresh connection and wait for the server to close it
/// unanswered.
fn refused(path: &Path, bytes: &[u8]) {
    sent_and_dropped(&mut UnixStream::connect(path).unwrap(), bytes);
}

/// Send `bytes` on `s` and wait for the server to close it unanswered.
fn sent_and_dropped(s: &mut UnixStream, bytes: &[u8]) {
    s.write_all(bytes).unwrap();
    let mut buf = [0u8; 1];
    match s.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("a hostile handshake was answered: {other:?}"),
    }
}

/// Well-framed `ShipPage` requests whose page body is hostile each get a
/// `Corrupt` reply, and the server keeps serving: a whole page with its
/// free gap (what a version-9 peer sent), truncated wire bodies, a slot
/// pointing past the page and a body implying another page size. The
/// page is left as it was, and the same connection still fetches and
/// ships it.
#[test]
fn hostile_shipped_page_bodies_get_an_error_reply() {
    let core = server();
    let path = socket_path("hostile-page");
    let _sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    let page = loaded_page(&core, 3);
    let remote = connect(&path, 1);
    let (wire, _) = remote.fetch_page(ClientId(1), page).unwrap();
    let size = core.config().page_size;
    let whole = Page::from_wire(&wire, size).unwrap();
    let mut far_slot = wire.clone();
    far_slot[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + 2].copy_from_slice(&u16::MAX.to_le_bytes());
    let hostile = [
        whole.as_bytes().to_vec(),
        wire[..wire.len() - 1].to_vec(),
        wire[..PAGE_HEADER_SIZE - 1].to_vec(),
        far_slot,
        Page::format(size / 2, page, whole.psn()).to_wire(),
    ];
    for body in hostile {
        let len = body.len();
        let err = remote
            .ship_page(ClientId(1), body.into(), false)
            .unwrap_err();
        assert!(matches!(err, FglError::Corrupt(_)), "{len} B body: {err:?}");
    }
    assert_eq!(core.metrics().snapshot().counters["socket_bad_frame"], 0);
    assert_eq!(core.page_copy(page).unwrap().as_bytes(), whole.as_bytes());
    let (again, _) = remote.fetch_page(ClientId(1), page).unwrap();
    assert_eq!(again, wire);
    remote.ship_page(ClientId(1), wire.into(), false).unwrap();
    remote.disconnect();
}

/// Handshakes that misuse the second stream are refused and counted,
/// and the server keeps serving: an events `Hello` for a client with no
/// rpc stream, a second events `Hello`, a `Req` where an events `Hello`
/// belongs, and a version-4 `Hello` (no role byte).
#[test]
fn hostile_second_stream_handshakes_are_refused_and_counted() {
    let core = server();
    let path = socket_path("hostile");
    let _sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    let page = loaded_page(&core, 1);
    let setup_failed = || core.metrics().snapshot().counters["socket_conn_setup_failed"];
    let hello = |id, role| frame::frame_bytes(&frame::encode_hello(ClientId(id), role));

    // No rpc stream for client 7.
    refused(&path, &hello(7, StreamRole::Events));
    // Client 1's events stream is attached already.
    let remote = connect(&path, 1);
    refused(&path, &hello(1, StreamRole::Events));
    // Client 2's rpc stream awaits its events stream; a request comes.
    let mut rpc = UnixStream::connect(&path).unwrap();
    rpc.write_all(&hello(2, StreamRole::Rpc)).unwrap();
    let (h, _) = frame::read_frame(&mut rpc).unwrap();
    assert_eq!(h.kind, FrameKind::HelloAck);
    let req = frame::encode_request(1, &Request::FetchPage { page }).unwrap();
    refused(&path, &frame::frame_bytes(&req));
    // A version-4 Hello: magic, version, client id, no role byte.
    let mut v4 = hello(3, StreamRole::Rpc);
    v4.pop();
    let len = v4.len() as u32;
    v4[..4].copy_from_slice(&len.to_le_bytes());
    v4[HEADER + 4..HEADER + 6].copy_from_slice(&4u16.to_le_bytes());
    refused(&path, &v4);

    let deadline = Instant::now() + Duration::from_secs(5);
    while setup_failed() < 4 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(setup_failed(), 4);
    assert_eq!(core.metrics().snapshot().counters["socket_bad_frame"], 0);
    // The refusals broke nothing: client 1 is still served.
    remote.fetch_page(ClientId(1), page).unwrap();
    remote.disconnect();
}

/// A client that completes `Hello` and then sends an unsolicited 20-byte
/// `CbResp` frame — a state report whose DPT count is `u32::MAX` — costs
/// only its own connection: the server counts one bad frame, reports it
/// as a typed event naming the client, drops the connection and still
/// serves another client. (That count once sized a 64 GiB allocation,
/// and the server process aborted.)
#[test]
fn a_hostile_callback_reply_drops_only_its_connection() {
    let (sink, _guard) = CaptureSink::install();
    let core = server();
    let path = socket_path("hostile-cbresp");
    let _sock = SocketServer::serve_uds(core.clone(), &path).unwrap();
    let page = loaded_page(&core, 4);
    let bad_frames = || core.metrics().snapshot().counters["socket_bad_frame"];

    let mut rpc = UnixStream::connect(&path).unwrap();
    let hello = frame::encode_hello(ClientId(9), StreamRole::Rpc);
    rpc.write_all(&frame::frame_bytes(&hello)).unwrap();
    let (h, _) = frame::read_frame(&mut rpc).unwrap();
    assert_eq!(h.kind, FrameKind::HelloAck);
    // The header — length 20, `CbResp`, aux 0, tag 2 (`State`), corr 1 —
    // then the DPT count.
    let mut hostile = 20u32.to_le_bytes().to_vec();
    hostile.extend_from_slice(&[FrameKind::CbResp as u8, 0, 2, 0]);
    hostile.extend_from_slice(&1u64.to_le_bytes());
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(hostile.len(), HEADER + 4);
    // The server counts and reports the frame before it drops the
    // connection.
    sent_and_dropped(&mut rpc, &hostile);
    assert_eq!(bad_frames(), 1);
    let fault = Event::SocketFault {
        client: Some(ClientId(9)),
        site: SocketSite::BadFrame,
    };
    assert_eq!(sink.events().iter().filter(|s| s.event == fault).count(), 1);
    let remote = connect(&path, 1);
    remote.fetch_page(ClientId(1), page).unwrap();
    remote.disconnect();
    assert_eq!(bad_frames(), 1);
}
