//! The socket server's connection model: page fetches and ships run on
//! the connection reader, every other request on a cached worker pool
//! that starts a thread only when none is idle, and the accept loop
//! blocks instead of polling.

use fgl::{
    ClientCore, ClientId, LockTarget, NetSim, ObjMode, ObjectId, PageId, Psn, RemoteServer, Result,
    ServerApi, ServerCore, SlotId, SocketServer, SystemConfig, TransportKind, TxnId,
};
use fgl_locks::glm::CallbackKind;
use fgl_net::{ClientPeer, LockResponse, NetStats, RecoverPagePlan, RecoveryHandshake, Request};
use fgl_obs::Metrics;
use fgl_sim::crash::prepare;
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use fgl_storage::disk::MemDisk;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

fn connect(path: &std::path::Path, id: u32) -> Arc<RemoteServer> {
    RemoteServer::connect_uds(path, ClientId(id), Arc::new(NetStats::default()), None).unwrap()
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
    remote.disconnect();
}

/// A `ServerApi` that leaves a trace tag behind on `client_crashed` — a
/// span that was never closed — and records the tag `poll_recovery_needs`
/// starts under. Every other method is the wrapped server's.
struct TagProbe {
    inner: Arc<ServerCore>,
    seen: Mutex<Vec<(&'static str, ThreadId, u64)>>,
}

const LEAKED_TAG: u64 = 0xF00D;

impl ServerApi for TagProbe {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
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
    fn force_page(&self, client: ClientId, page: PageId) -> Result<()> {
        self.inner.force_page(client, page)
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
    let probe = Arc::new(TagProbe {
        inner: server(),
        seen: Mutex::new(Vec::new()),
    });
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
    remote.disconnect();
}

/// E17's contended cell over UDS in a debug build: the guard that a
/// reader-run request never waits on a peer is live, so a fetch or ship
/// that reached a callback or a lock wait would panic the reader and
/// stall the run into a timeout.
#[test]
fn reader_inline_requests_never_wait_on_a_peer() {
    for clients in [2, 4] {
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
                page_copy: Some(page),
            },
            false,
        ),
        (Request::AllocatePage { txn }, false),
        (Request::ForcePage { page: PageId(1) }, false),
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
