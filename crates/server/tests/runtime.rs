//! Server-runtime behaviour tests driven through a scriptable fake
//! client peer: DCT lifecycle, replacement logging, flush notification
//! fan-out, crash/restart edges — without pulling in the full client.

use fgl_common::rng::DetRng;
use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::peer::{CallbackOutcome, ClientPeer, ClientStateReport, RecoveredPageOutcome};
use fgl_net::stats::NetSim;
use fgl_net::ServerApi;
use fgl_obs::HistKind;
use fgl_server::runtime::{LockResponse, ServerCore};
use fgl_storage::disk::{DiskBackend, MemDisk};
use fgl_storage::page::Page;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// A peer that complies with callbacks, or in its deferring mode defers
/// them, and records what it saw.
#[derive(Default)]
struct FakePeerState {
    callbacks: Vec<CallbackKind>,
    flushes: Vec<PageId>,
    /// Deferring mode: answer every callback `Deferred`, naming this
    /// transaction as the blocker, and keep it in `deferred`.
    defer: Option<TxnId>,
    deferred: Vec<CallbackKind>,
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
        let mut st = self.state.lock();
        st.callbacks.push(kind);
        if let Some(blocker) = st.defer {
            st.deferred.push(kind);
            return CallbackOutcome::Deferred {
                blockers: vec![blocker],
            };
        }
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
    server.register_client(peer(id, &state));
    state
}

fn peer(id: u32, state: &Arc<Mutex<FakePeerState>>) -> Arc<dyn ClientPeer> {
    Arc::new(FakePeer {
        id: ClientId(id),
        state: state.clone(),
    })
}

fn txn(c: u32, n: u32) -> TxnId {
    TxnId::compose(ClientId(c), n)
}

#[test]
fn allocate_grants_page_exclusively_and_seeds_dct() {
    let s = server();
    let _p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let page = Page::from_wire(&bytes, s.config().page_size).unwrap();
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
    let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
    let slot = copy.insert_object(b"hello-dct").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.to_wire().into(), true)
        .unwrap();
    // The server's merged copy carries the update.
    let merged = s.page_copy(pid).unwrap();
    assert_eq!(merged.read_object(slot).unwrap(), b"hello-dct");
    assert!(merged.psn() > copy.psn(), "merge bumps the PSN");
    // Shipped frames travel shared; the parse into an owned Page is the
    // single copy of the path and is accounted per byte.
    let copied = s.metrics().snapshot().counters["page_ship_bytes_copied"];
    assert_eq!(copied, copy.wire_len() as u64);
}

#[test]
fn force_page_notifies_replacers_once() {
    let s = server();
    let p1 = register(&s, 1);
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
    copy.insert_object(b"dirty").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.to_wire().into(), true)
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
    let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
    copy.insert_object(b"payload").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.to_wire().into(), true)
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
    let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
    copy.insert_object(b"durable-bytes").unwrap();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.to_wire().into(), true)
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
    let page = Page::from_wire(&bytes, s.config().page_size).unwrap().id();
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
    let _pid = Page::from_wire(&bytes, s.config().page_size).unwrap().id();
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

/// Server-log forces so far: each is timed once into the registry's
/// log-force histogram.
fn log_forces(s: &ServerCore) -> u64 {
    s.metrics()
        .snapshot()
        .hist(HistKind::LogForce)
        .unwrap()
        .count
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
            log_forces: log_forces(&s),
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
        let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
        copy.insert_object(&[n as u8; 24]).unwrap();
        ids.push(copy.id());
        frames.push(Arc::from(copy.to_wire()));
    }
    s.ship_pages(ClientId(1), frames, true).unwrap();
    assert!(disk.writes.lock().is_empty(), "shipping writes nothing");

    let (before, stats) = (log_forces(&s), s.stats());
    s.force_pages(ClientId(1), &ids).unwrap();
    assert_eq!(log_forces(&s) - before, 1, "one server-log force");
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
    assert_eq!(log_forces(&s) - before, 1);
}

/// The GLM alone decides these locks; the page need not exist (a grant
/// that cannot read its page carries none).
fn object(slot: u16) -> ObjectId {
    ObjectId::new(PageId(1), fgl_common::SlotId(slot))
}

/// A crashed client's parked requests die with it in one pass: none is
/// granted on the way, so it keeps no lock it did not hold. C1's page-S
/// request queues ahead of its X on s1, and both outlive C2's release of
/// s1, so cancelling the page-S request alone would grant the X.
#[test]
fn a_crash_grants_its_client_none_of_its_parked_requests() {
    let s = server();
    let p1 = register(&s, 1);
    let p2 = register(&s, 2);
    for slot in 0..2 {
        let target = LockTarget::Object(object(slot), ObjMode::X);
        let resp = s.lock(ClientId(2), txn(2, 1), target, None).unwrap();
        assert!(matches!(resp, LockResponse::Decided(_)));
    }
    p2.lock().defer = Some(txn(2, 1));
    let page_s = LockTarget::Page(PageId(1), ObjMode::S);
    let x_s1 = LockTarget::Object(object(1), ObjMode::X);
    for (n, target) in [(1, page_s), (2, x_s1)] {
        let resp = s.lock(ClientId(1), txn(1, n), target, None).unwrap();
        assert!(matches!(resp, LockResponse::Wait(_)));
    }
    let release = CallbackKind::ReleaseObject(object(1));
    assert!(p2.lock().deferred.contains(&release));
    s.callback_complete(ClientId(2), release, vec![], None)
        .unwrap();
    let both = vec![txn(1, 1), txn(1, 2)];
    assert_eq!(s.lock_state(ClientId(1)), (both.clone(), both, vec![]));

    s.client_crashed(ClientId(1));
    assert_eq!(s.lock_state(ClientId(1)), (vec![], vec![], vec![]));
    let (locks, _, _) = s.client_recovery_begin(ClientId(1), peer(1, &p1)).unwrap();
    assert_eq!(locks, vec![], "the crashed client was granted a lock");
}

/// One seeded case of the lock-table soak: several clients lock, cancel,
/// defer and complete callbacks, crash and recover against fake peers.
/// After every step each client's parked requests are exactly its GLM
/// waiters; after each crash neither survives and the client's exclusive
/// locks are the ones it held.
fn lock_table_case(seed: u64, steps: usize) {
    const CLIENTS: u32 = 4;
    let s = server();
    let peers: Vec<_> = (1..=CLIENTS).map(|c| register(&s, c)).collect();
    let mut rng = DetRng::new(seed);
    let mut crashed = [false; CLIENTS as usize];
    let mut last = [0u32; CLIENTS as usize];
    let mut waits: Vec<TxnId> = Vec::new();
    for step in 0..steps {
        let i = rng.gen_range(CLIENTS as u64) as usize;
        let (id, state) = (ClientId(i as u32 + 1), &peers[i]);
        match (rng.gen_range(8), crashed[i]) {
            (_, true) => {
                s.client_recovery_begin(id, peer(id.0, state)).unwrap();
                s.client_recovery_end(id).unwrap();
                let ctx = format!("seed {seed:#x} step {step} {id:?}");
                assert_eq!(s.lock_state(id), (vec![], vec![], vec![]), "{ctx}");
                crashed[i] = false;
            }
            (0..=3, false) => {
                for (j, p) in peers.iter().enumerate() {
                    let blocker = TxnId::compose(ClientId(j as u32 + 1), last[j]);
                    p.lock().defer = rng.chance(0.5).then_some(blocker);
                }
                last[i] += 1;
                let t = TxnId::compose(id, last[i]);
                let page = PageId(rng.gen_range(3));
                let mode = if rng.chance(0.5) {
                    ObjMode::X
                } else {
                    ObjMode::S
                };
                let target = if rng.chance(0.2) {
                    LockTarget::Page(page, mode)
                } else {
                    let slot = fgl_common::SlotId(rng.gen_range(4) as u16);
                    LockTarget::Object(ObjectId::new(page, slot), mode)
                };
                if let LockResponse::Wait(_) = s.lock(id, t, target, None).unwrap() {
                    waits.push(t);
                }
            }
            (4, false) => {
                let mine: Vec<TxnId> = waits.iter().copied().filter(|t| t.client() == id).collect();
                if !mine.is_empty() {
                    s.cancel_wait(id, mine[rng.gen_range(mine.len() as u64) as usize]);
                }
            }
            (5 | 6, false) => {
                let kind = {
                    let mut st = state.lock();
                    let n = st.deferred.len();
                    (n > 0).then(|| st.deferred.remove(rng.gen_range(n as u64) as usize))
                };
                if let Some(kind) = kind {
                    s.callback_complete(id, kind, vec![], None).unwrap();
                }
            }
            _ => {
                let (_, _, held_x) = s.lock_state(id);
                state.lock().deferred.clear();
                s.client_crashed(id);
                crashed[i] = true;
                let ctx = format!("seed {seed:#x} step {step} {id:?}");
                assert_eq!(s.lock_state(id), (vec![], vec![], held_x), "{ctx}");
            }
        }
        for c in 1..=CLIENTS {
            let (parked, queued, _) = s.lock_state(ClientId(c));
            assert_eq!(parked, queued, "seed {seed:#x} step {step} C{c}");
        }
    }
}

#[test]
fn lock_table_stays_paired_through_crashes() {
    for case in 0..40u64 {
        lock_table_case(0x10C4_7AB1 ^ (case << 8), 200);
    }
}

#[test]
#[ignore = "soak: 2 000 cases of 400 steps, run with --release -- --ignored"]
fn lock_table_crash_soak() {
    for case in 0..2_000u64 {
        lock_table_case(0x50AC_0000_0000 ^ case, 400);
    }
}

/// A client registered afresh under the id of a crashed one is up: a
/// callback to it is delivered, not held back for a recovery it never
/// runs, so the request behind the callback is granted.
#[test]
fn a_fresh_client_under_a_crashed_id_receives_its_callbacks() {
    let s = server();
    let _p1 = register(&s, 1);
    let _p2 = register(&s, 2);
    let x = LockTarget::Object(object(0), ObjMode::X);
    let resp = s.lock(ClientId(1), txn(1, 1), x, None).unwrap();
    assert!(matches!(resp, LockResponse::Decided(_)));
    s.client_crashed(ClientId(1));
    let fresh = register(&s, 1);
    let shared = LockTarget::Object(object(0), ObjMode::S);
    let LockResponse::Wait(w) = s.lock(ClientId(2), txn(2, 1), shared, None).unwrap() else {
        panic!("client 1 still holds X on the object");
    };
    assert!(w.wait(Duration::from_secs(1)).is_some(), "never granted");
    let downgrade = CallbackKind::DowngradeObject(object(0));
    assert_eq!(fresh.lock().callbacks, vec![downgrade]);
}

/// A client that crashed before the server did stays crashed across the
/// restart: until its `client_recovery_end` it is sent no callback and no
/// flush notice, and its handshake reports the rebuilt DCT incomplete
/// (§3.5). Once its recovery ends it gets both.
#[test]
fn a_client_down_across_a_server_restart_is_sent_nothing_until_its_recovery_ends() {
    let s = server();
    let _p1 = register(&s, 1);
    let _p2 = register(&s, 2);
    s.client_crashed(ClientId(1));
    s.crash();
    s.restart_recovery().unwrap();
    let p1 = Arc::new(Mutex::new(FakePeerState::default()));
    let (_, _, dct_complete) = s.client_recovery_begin(ClientId(1), peer(1, &p1)).unwrap();
    assert!(!dct_complete);

    // Recovering, client 1 takes a page X, which client 2 then wants a
    // part of, and hardens the page.
    let bytes = s.allocate_page(ClientId(1), txn(1, 1)).unwrap();
    let pid = Page::from_wire(&bytes, s.config().page_size).unwrap().id();
    let slot = |n| ObjectId::new(pid, fgl_common::SlotId(n));
    let shared = |n| LockTarget::Object(slot(n), ObjMode::S);
    let LockResponse::Wait(w) = s.lock(ClientId(2), txn(2, 1), shared(0), None).unwrap() else {
        panic!("client 1 holds page X");
    };
    s.ship_page(ClientId(1), bytes.clone().into(), true)
        .unwrap();
    s.force_page(ClientId(1), pid).unwrap();
    assert!(w.wait(Duration::from_millis(20)).is_none());
    assert_eq!(p1.lock().callbacks, vec![]);
    assert_eq!(p1.lock().flushes, vec![]);

    // Its recovery's end drops its locks, so client 2 is granted; from
    // then on callbacks and flush notices reach it.
    s.client_recovery_end(ClientId(1)).unwrap();
    assert!(w.wait(Duration::from_secs(1)).is_some());
    let x = LockTarget::Object(slot(1), ObjMode::X);
    let resp = s.lock(ClientId(1), txn(1, 2), x, None).unwrap();
    assert!(matches!(resp, LockResponse::Decided(_)));
    let LockResponse::Wait(w) = s.lock(ClientId(2), txn(2, 2), shared(1), None).unwrap() else {
        panic!("client 1 holds X on slot 1");
    };
    assert!(w.wait(Duration::from_secs(1)).is_some());
    assert_eq!(
        p1.lock().callbacks,
        vec![CallbackKind::DowngradeObject(slot(1))]
    );
    s.ship_page(ClientId(1), bytes.into(), true).unwrap();
    s.force_page(ClientId(1), pid).unwrap();
    assert_eq!(p1.lock().flushes, vec![pid]);
}
