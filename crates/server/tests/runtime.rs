//! Server-runtime behaviour tests driven through a scriptable fake
//! client peer: DCT lifecycle, replacement logging, flush notification
//! fan-out, crash/restart edges — without pulling in the full client.

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::peer::{CallbackOutcome, ClientPeer, ClientStateReport, RecoveredPageOutcome};
use fgl_net::stats::NetSim;
use fgl_net::ServerApi;
use fgl_server::runtime::{LockResponse, ServerCore};
use fgl_storage::disk::{DiskBackend, MemDisk};
use fgl_storage::page::Page;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock, Weak};

/// A peer that always complies with callbacks and records what it saw.
#[derive(Default)]
struct FakePeerState {
    callbacks: Vec<CallbackKind>,
    flushes: Vec<PageId>,
}

struct FakePeer {
    id: ClientId,
    state: Arc<Mutex<FakePeerState>>,
}

impl ClientPeer for FakePeer {
    fn client_id(&self) -> ClientId {
        self.id
    }
    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        self.state.lock().callbacks.push(kind);
        CallbackOutcome::Done {
            retained: vec![],
            page_copy: None,
        }
    }
    fn notify_page_flushed(&self, page: PageId) {
        self.state.lock().flushes.push(page);
    }
    fn report_state(&self) -> ClientStateReport {
        ClientStateReport::default()
    }
    fn callback_list_for(&self, _: PageId, _: ClientId, _: Lsn) -> Vec<(ObjectId, Psn)> {
        vec![]
    }
    fn ship_cached_page(&self, _: PageId) -> Option<std::sync::Arc<[u8]>> {
        None
    }
    fn recover_page(
        &self,
        _: PageId,
        base: Vec<u8>,
        _: Psn,
        _: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        RecoveredPageOutcome::Done(base)
    }
}

fn server() -> Arc<ServerCore> {
    let net = Arc::new(NetSim::new(std::time::Duration::ZERO));
    ServerCore::new(SystemConfig::default(), net, Arc::new(MemDisk::new()))
}

fn register(server: &Arc<ServerCore>, id: u32) -> Arc<Mutex<FakePeerState>> {
    let state = Arc::new(Mutex::new(FakePeerState::default()));
    server.register_client(Arc::new(FakePeer {
        id: ClientId(id),
        state: state.clone(),
    }));
    state
}

fn txn(c: u32, n: u32) -> TxnId {
    TxnId::compose(ClientId(c), n)
}

#[test]
fn allocate_grants_page_exclusively_and_seeds_dct() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let page = Page::from_bytes(bytes).unwrap();
    // A second client's object request triggers a de-escalation callback.
    let resp = s
        .lock(
            ClientId(2),
            txn(2, 1),
            LockTarget::Object(ObjectId::new(page.id(), fgl_common::SlotId(0)), ObjMode::S),
            None,
        )
        .unwrap();
    // FakePeer 1 complied instantly, so client 2 may already be granted
    // via the wait path.
    match resp {
        LockResponse::Granted { .. } | LockResponse::Decided(_) => {}
        LockResponse::Wait(w) => {
            assert!(w.wait(std::time::Duration::from_secs(1)).is_some());
        }
    }
}

#[test]
fn ship_page_merges_and_updates_dct_psn() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    let slot = copy.insert_object(b"hello-dct").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.as_bytes().into(), true)
        .unwrap();
    // The server's merged copy carries the update.
    let merged = s.page_copy(pid).unwrap();
    assert_eq!(merged.read_object(slot).unwrap(), b"hello-dct");
    assert!(merged.psn() > copy.psn(), "merge bumps the PSN");
    // Shipped frames travel shared; the parse into an owned Page is the
    // single copy of the path and is accounted per byte.
    let copied = s.metrics().snapshot().counters["page_ship_bytes_copied"];
    assert_eq!(copied, copy.as_bytes().len() as u64);
}

#[test]
fn force_page_notifies_replacers_once() {
    let s = server();
    let p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    copy.insert_object(b"dirty").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.as_bytes().into(), true)
        .unwrap();
    s.force_page(ClientId(1), pid).unwrap();
    assert_eq!(p1.lock().flushes, vec![pid]);
    // Forcing again (already clean): replaced_by was drained, no repeat.
    s.force_page(ClientId(1), pid).unwrap();
    assert_eq!(p1.lock().flushes, vec![pid]);
}

#[test]
fn replacement_records_written_before_page_force() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    copy.insert_object(b"payload").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.as_bytes().into(), true)
        .unwrap();
    let before = s.stats();
    s.force_page(ClientId(1), pid).unwrap();
    let after = s.stats();
    assert_eq!(after.pages_flushed, before.pages_flushed + 1);
    assert_eq!(after.replacement_records, before.replacement_records + 1);
}

#[test]
fn crash_drops_volatile_state_but_disk_survives() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    copy.insert_object(b"durable-bytes").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.as_bytes().into(), true)
        .unwrap();
    s.force_page(ClientId(1), pid).unwrap();
    s.crash();
    assert!(s.is_down());
    assert!(matches!(
        s.lock(
            ClientId(1),
            txn(1, 2),
            LockTarget::Page(pid, ObjMode::S),
            None
        ),
        Err(fgl_common::FglError::Disconnected(_))
    ));
    // Restart with no clients registered: trivially succeeds, flushed
    // data intact.
    let report = s.restart_recovery().unwrap();
    assert_eq!(report.recovery_units, 0);
    let back = s.page_copy(pid).unwrap();
    assert_eq!(
        back.read_object(fgl_common::SlotId(0)).unwrap(),
        b"durable-bytes"
    );
}

#[test]
fn client_crash_releases_shared_keeps_exclusive() {
    let s = server();
    let _p1 = register(&s, 1);
    let _p2 = register(&s, 2);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let page = Page::from_bytes(bytes).unwrap().id();
    // Client 2 gets an S lock on an object (forces de-escalation of 1's
    // page lock).
    let obj = ObjectId::new(page, fgl_common::SlotId(0));
    match s
        .lock(
            ClientId(2),
            txn(2, 1),
            LockTarget::Object(obj, ObjMode::S),
            None,
        )
        .unwrap()
    {
        LockResponse::Granted { .. } | LockResponse::Decided(_) => {}
        LockResponse::Wait(w) => {
            w.wait(std::time::Duration::from_secs(1)).unwrap();
        }
    }
    s.client_crashed(ClientId(2));
    // Client 1 can now take X on the object without waiting for client 2.
    match s
        .lock(
            ClientId(1),
            txn(1, 2),
            LockTarget::Object(obj, ObjMode::X),
            None,
        )
        .unwrap()
    {
        LockResponse::Granted { .. } | LockResponse::Decided(_) => {}
        LockResponse::Wait(w) => {
            assert!(w.wait(std::time::Duration::from_secs(1)).is_some());
        }
    }
}

#[test]
fn fetch_unknown_page_errors() {
    let s = server();
    let _p1 = register(&s, 1);
    assert!(matches!(
        s.fetch_page(ClientId(1), PageId(404)),
        Err(fgl_common::FglError::PageNotFound(_))
    ));
}

#[test]
fn commit_log_ship_accumulates_per_client() {
    let s = server();
    let _p1 = register(&s, 1);
    s.commit_ship_log(ClientId(1), vec![1, 2, 3], vec![])
        .unwrap();
    s.commit_ship_log(ClientId(1), vec![4, 5], vec![]).unwrap();
    assert_eq!(
        s.fetch_client_log(ClientId(1)).unwrap(),
        vec![1, 2, 3, 4, 5]
    );
    assert!(s.fetch_client_log(ClientId(2)).unwrap().is_empty());
    assert_eq!(s.stats().commit_log_ships, 2);
}

#[test]
fn checkpoint_snapshots_dct_into_log() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let _pid = Page::from_bytes(bytes).unwrap().id();
    let before = s.slog_bounds();
    s.checkpoint().unwrap();
    let after = s.slog_bounds();
    assert!(
        after.0 > before.0 || before.0.is_nil(),
        "checkpoint anchor advanced"
    );
    assert!(after.1 > before.1, "checkpoint record appended");
}

/// One disk write request as the server issued it.
#[derive(Debug)]
struct WriteRequest {
    pages: Vec<PageId>,
    /// Server-log forces by then.
    log_forces: u64,
    /// Replacement records the server had logged by then.
    records: u64,
}

/// The server's database disk, recording every write request and the
/// state of the server log when it arrived.
#[derive(Default)]
struct RecordingDisk {
    inner: MemDisk,
    server: OnceLock<Weak<ServerCore>>,
    writes: Mutex<Vec<WriteRequest>>,
}

impl RecordingDisk {
    fn record(&self, pages: &[Page]) {
        let s = self.server.get().and_then(Weak::upgrade).unwrap();
        self.writes.lock().push(WriteRequest {
            pages: pages.iter().map(Page::id).collect(),
            log_forces: s.metrics().snapshot().counters["log_forces"],
            records: s.stats().replacement_records,
        });
    }
}

impl DiskBackend for RecordingDisk {
    fn read_page(&self, id: PageId) -> fgl_common::Result<Option<Page>> {
        self.inner.read_page(id)
    }
    fn write_page(&self, page: &Page) -> fgl_common::Result<()> {
        self.record(std::slice::from_ref(page));
        self.inner.write_page(page)
    }
    fn write_pages(&self, pages: &[Page]) -> fgl_common::Result<()> {
        self.record(pages);
        self.inner.write_pages(pages)
    }
    fn sync(&self) -> fgl_common::Result<()> {
        self.inner.sync()
    }
    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

/// Client restart's harden ships its pages in one `ship_pages` and
/// forces them in one `force_pages`: the server logs one replacement
/// record per page, forces its log once, and only then writes every page
/// in one disk request (§3.1: each record is durable before its page is
/// written). Every replacer hears of every flush.
#[test]
fn force_pages_forces_the_log_once_before_any_page_is_written() {
    const PAGES: usize = 6;
    let disk = Arc::new(RecordingDisk::default());
    let net = Arc::new(NetSim::new(std::time::Duration::ZERO));
    let s = ServerCore::new(SystemConfig::default(), net, disk.clone());
    disk.server.set(Arc::downgrade(&s)).unwrap();
    let p1 = register(&s, 1);
    let mut frames = Vec::new();
    let mut ids = Vec::new();
    for n in 0..PAGES {
        let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
        let mut copy = Page::from_bytes(bytes).unwrap();
        copy.insert_object(&[n as u8; 24]).unwrap();
        ids.push(copy.id());
        frames.push(Arc::from(copy.as_bytes()));
    }
    s.ship_pages(ClientId(1), frames, true).unwrap();
    assert!(disk.writes.lock().is_empty(), "shipping writes nothing");

    let forces = || s.metrics().snapshot().counters["log_forces"];
    let (before, stats) = (forces(), s.stats());
    s.force_pages(ClientId(1), &ids).unwrap();
    assert_eq!(forces() - before, 1, "one server-log force");
    let after = s.stats();
    assert_eq!(
        after.replacement_records - stats.replacement_records,
        PAGES as u64
    );
    assert_eq!(after.pages_flushed - stats.pages_flushed, PAGES as u64);
    let writes = disk.writes.lock();
    let [write] = &writes[..] else {
        panic!("one disk request for every page: {:?}", &writes[..]);
    };
    // Every record was counted (which follows the force) and the one
    // force done before the first page went to disk.
    assert_eq!(write.pages, ids);
    assert_eq!(write.log_forces, before + 1, "{write:?}");
    assert_eq!(write.records, after.replacement_records);
    drop(writes);
    assert_eq!(p1.lock().flushes, ids);
    // Every page is clean now: forcing again writes nothing.
    s.force_pages(ClientId(1), &ids).unwrap();
    assert_eq!(disk.writes.lock().len(), 1);
    assert_eq!(forces() - before, 1);
}
