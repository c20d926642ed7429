//! Cross-crate crash/recovery integration: the §3.3–§3.5 matrix over
//! several workloads and seeds, verified against the committed-state
//! oracle.

use fgl::{
    ClientCore, ClientId, FglError, LoggingStrategyKind, Lsn, MsgKind, ObjectId, PageId, Psn,
    ServerApi, System, SystemConfig, TransportKind,
};
use fgl_client::PeerHandle;
use fgl_common::rng::DetRng;
use fgl_locks::glm::CallbackKind;
use fgl_net::{
    CallbackOutcome, ClientPeer, ClientStateReport, RecoverJob, RecoveredPageOutcome,
    RECOVER_BATCH_PAGES,
};
use fgl_sim::crash::{run_crash_scenario, CrashKind};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::{populate, populate_partitioned};
use fgl_sim::workload::{Op, WorkloadKind, WorkloadSpec};
use fgl_storage::disk::{DiskBackend, MemDisk};
use fgl_storage::page::Page;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn spec(kind: WorkloadKind) -> WorkloadSpec {
    let mut s = WorkloadSpec::new(kind);
    s.pages = 12;
    s.objects_per_page = 8;
    s.ops_per_txn = 4;
    s.write_fraction = 0.6;
    s
}

fn check(kind: CrashKind, wk: WorkloadKind, seed: u64) {
    let r = run_crash_scenario(SystemConfig::default(), 3, kind, spec(wk), 12, seed).unwrap();
    assert!(
        r.verify_after_recovery.is_clean(),
        "{} / {:?}: post-recovery mismatches {:?}",
        r.kind_name,
        wk,
        r.verify_after_recovery.mismatches
    );
    assert!(
        r.verify_final.is_clean(),
        "{} / {:?}: final mismatches {:?}",
        r.kind_name,
        wk,
        r.verify_final.mismatches
    );
    assert!(
        r.is_clean(),
        "{} / {:?} (seed {seed}): stale reads {:?}, fetch timeouts {}",
        r.kind_name,
        wk,
        r.stale_reads,
        r.recovery_fetch_timeouts()
    );
    assert!(
        r.phase2.commits > 0,
        "system must keep working after recovery"
    );
}

#[test]
fn client_crash_hotcold() {
    check(CrashKind::Client(1), WorkloadKind::HotCold, 11);
}

#[test]
fn client_crash_hicon() {
    check(CrashKind::Client(2), WorkloadKind::HiCon, 12);
}

#[test]
fn multi_client_crash_uniform() {
    check(
        CrashKind::MultiClient(vec![0, 2]),
        WorkloadKind::Uniform,
        13,
    );
}

#[test]
fn server_crash_hotcold() {
    check(CrashKind::Server, WorkloadKind::HotCold, 14);
}

#[test]
fn server_crash_hicon() {
    check(CrashKind::Server, WorkloadKind::HiCon, 15);
}

#[test]
fn complex_crash_one_client() {
    check(CrashKind::Complex(vec![1]), WorkloadKind::HotCold, 16);
}

#[test]
fn complex_crash_two_clients() {
    check(CrashKind::Complex(vec![0, 1]), WorkloadKind::Uniform, 17);
}

#[test]
fn repeated_crashes_of_the_same_client() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let s = spec(WorkloadKind::HotCold);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    for round in 0..3 {
        let mut opts = HarnessOptions::new(s.clone(), 8);
        opts.seed = 100 + round;
        run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        sys.client(1).crash();
        sys.client(1).recover().unwrap();
        let v = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(v.is_clean(), "round {round}: {:?}", v.mismatches);
    }
}

#[test]
fn double_server_crash() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let s = spec(WorkloadKind::Uniform);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    for round in 0..2 {
        let mut opts = HarnessOptions::new(s.clone(), 8);
        opts.seed = 200 + round;
        run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        sys.server.crash();
        sys.server.restart_recovery().unwrap();
        let v = oracle.verify_via_reads(sys.client(1)).unwrap();
        assert!(v.is_clean(), "round {round}: {:?}", v.mismatches);
    }
}

#[test]
fn crash_with_unforced_tail_loses_only_uncommitted_work() {
    // A committed value must survive; an unforced in-flight update must
    // vanish without a trace.
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let obj = a.insert(t, page, b"durable!").unwrap();
    a.commit(t).unwrap();

    let t = a.begin().unwrap();
    a.write(t, obj, b"volatile").unwrap();
    // No checkpoint, no force: the update record sits in the unforced
    // tail and dies with the crash.
    a.crash();
    let rep = a.recover().unwrap();
    assert_eq!(rep.losers, 0, "unforced loser leaves no trace to undo");
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, obj).unwrap(), b"durable!");
    b.commit(t).unwrap();
}

#[test]
fn recovery_report_shape() {
    let sys = System::build(SystemConfig::default(), 1).unwrap();
    let c = sys.client(0);
    let t = c.begin().unwrap();
    let page = c.create_page(t).unwrap();
    let obj = c.insert(t, page, b"workload").unwrap();
    c.commit(t).unwrap();
    for i in 0..20u8 {
        let t = c.begin().unwrap();
        c.write(t, obj, &[i; 8]).unwrap();
        c.commit(t).unwrap();
    }
    c.crash();
    let rep = c.recover().unwrap();
    assert!(rep.records_scanned > 0);
    assert!(rep.pages_recovered >= 1);
    assert!(rep.winners >= 1);
    // The recovered value is the last committed one.
    let t = c.begin().unwrap();
    assert_eq!(c.read(t, obj).unwrap(), [19u8; 8]);
    c.commit(t).unwrap();
}

#[test]
fn processing_continues_in_parallel_with_client_recovery() {
    // §3.3: "Transaction processing on the remaining clients can continue
    // in parallel with the recovery of the crashed client."
    let sys = System::build(SystemConfig::default(), 3).unwrap();
    let s = spec(WorkloadKind::HotCold);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();

    // Build up state, then crash client 2 with work in flight.
    let mut opts = HarnessOptions::new(s.clone(), 10);
    opts.seed = 301;
    run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
    sys.client(2).crash();

    // Clients 0 and 1 keep running while client 2 recovers concurrently.
    let recovered = std::thread::scope(|scope| {
        let rec = scope.spawn(|| sys.client(2).recover());
        for i in 0..2 {
            let c = sys.client(i).clone();
            let layout = &layout;
            let oracle = oracle.clone();
            scope.spawn(move || {
                for round in 0..10u8 {
                    let Ok(t) = c.begin() else { return };
                    // Work in the client's own region to avoid blocking on
                    // the crashed client's retained X locks.
                    let per = layout.objects.len() / 3;
                    let obj = layout.objects[i * per + (round as usize % per)];
                    let val = vec![round; 32];
                    if c.write(t, obj, &val).is_ok() {
                        let _ = c.commit_with(t, || {
                            oracle.commit_writes(&[(obj, Some(val.clone()))]);
                        });
                    } else {
                        let _ = c.abort(t);
                    }
                }
            });
        }
        rec.join().unwrap()
    });
    recovered.unwrap();
    let v = oracle.verify_via_reads(sys.client(1)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

// ---- server restart in one pass (§3.4) -------------------------------------

/// Forwards to a client's own peer and counts the §3.4 services it is
/// asked for: per-page primitives in `single`, batched forms by name.
struct CountingPeer {
    inner: PeerHandle,
    report_state: AtomicUsize,
    callback_lists_for: AtomicUsize,
    ship_cached_pages: AtomicUsize,
    recover_pages: AtomicUsize,
    pages_recovered: AtomicUsize,
    single: AtomicUsize,
}

impl CountingPeer {
    fn register(sys: &System, i: usize) -> Arc<CountingPeer> {
        let peer = Arc::new(CountingPeer {
            inner: PeerHandle::new(sys.client(i)),
            report_state: AtomicUsize::new(0),
            callback_lists_for: AtomicUsize::new(0),
            ship_cached_pages: AtomicUsize::new(0),
            recover_pages: AtomicUsize::new(0),
            pages_recovered: AtomicUsize::new(0),
            single: AtomicUsize::new(0),
        });
        sys.server.register_client(peer.clone());
        peer
    }
}

impl ClientPeer for CountingPeer {
    fn client_id(&self) -> ClientId {
        self.inner.client_id()
    }
    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        self.inner.deliver_callback(kind)
    }
    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        self.inner.deliver_callback_batch(kinds)
    }
    fn notify_page_flushed(&self, page: PageId) {
        self.inner.notify_page_flushed(page)
    }
    fn report_state(&self) -> ClientStateReport {
        self.report_state.fetch_add(1, Ordering::Relaxed);
        self.inner.report_state()
    }
    fn callback_list_for(&self, page: PageId, c: ClientId, from: Lsn) -> Vec<(ObjectId, Psn)> {
        self.single.fetch_add(1, Ordering::Relaxed);
        self.inner.callback_list_for(page, c, from)
    }
    fn callback_lists_for(&self, q: &[(PageId, ClientId, Lsn)]) -> Vec<Vec<(ObjectId, Psn)>> {
        self.callback_lists_for.fetch_add(1, Ordering::Relaxed);
        self.inner.callback_lists_for(q)
    }
    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>> {
        self.single.fetch_add(1, Ordering::Relaxed);
        self.inner.ship_cached_page(page)
    }
    fn ship_cached_pages(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        self.ship_cached_pages.fetch_add(1, Ordering::Relaxed);
        self.inner.ship_cached_pages(pages)
    }
    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        psn: Psn,
        list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        self.single.fetch_add(1, Ordering::Relaxed);
        self.inner.recover_page(page, base, psn, list)
    }
    fn recover_pages(&self, jobs: Vec<RecoverJob>) -> Vec<RecoveredPageOutcome> {
        self.recover_pages.fetch_add(1, Ordering::Relaxed);
        self.pages_recovered
            .fetch_add(jobs.len(), Ordering::Relaxed);
        self.inner.recover_pages(jobs)
    }
}

/// Restart is O(clients) in messages: one interrogation, one `CallBack_P`
/// query and ⌈pages ÷ `RECOVER_BATCH_PAGES`⌉ replay requests per client —
/// not a query per (page, client) unit per other client, and not a replay
/// request per unit. PRIVATE over partitioned loading keeps every count a
/// function of the seed alone (no client ever touches another's pages).
#[test]
fn server_restart_costs_a_fixed_number_of_messages_per_client() {
    const CLIENTS: usize = 5;
    // A server pool that never evicts: no flush ever trims a client's DPT.
    let cfg = SystemConfig {
        client_cache_pages: 4,
        server_cache_pages: 1024,
        ..SystemConfig::default()
    };
    let sys = System::build(cfg, CLIENTS).unwrap();
    let mut s = spec(WorkloadKind::Private);
    s.pages = 400;
    let loaders: Vec<_> = (0..CLIENTS).map(|i| sys.client(i)).collect();
    let layout = populate_partitioned(&loaders, s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(s, 40);
    opts.seed = 1901;
    run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();

    // What each client will be asked for: its dirty pages still cached are
    // pulled (step 4), those it replaced are replayed.
    let peers: Vec<_> = (0..CLIENTS)
        .map(|i| CountingPeer::register(&sys, i))
        .collect();
    let mut pulled = Vec::new();
    let mut replayed = Vec::new();
    for c in &sys.clients {
        let dpt = c.dpt_snapshot();
        let cached = dpt
            .iter()
            .filter(|(p, _)| c.cached_page(*p).is_some())
            .count();
        pulled.push(cached);
        replayed.push(dpt.len() - cached);
    }
    let pulls: usize = pulled.iter().map(|n| n.div_ceil(RECOVER_BATCH_PAGES)).sum();
    let units: usize = replayed.iter().sum();
    let batches: usize = replayed
        .iter()
        .map(|n| n.div_ceil(RECOVER_BATCH_PAGES))
        .sum();
    assert!(
        replayed.iter().any(|&n| n > RECOVER_BATCH_PAGES),
        "one client must need more than one batch: {replayed:?}"
    );

    sys.server.crash();
    let before = sys.net.snapshot();
    let report = sys.server.restart_recovery().unwrap();
    let net = sys.net.snapshot().delta_since(&before);

    // The same seed at the commit before the one-pass restart: 380 units
    // over 380 pages, and 3 450 `Recovery` messages (3 040 of them the
    // 2 × units × (clients − 1) of the per-unit `CallBack_P` round).
    assert_eq!(report.recovery_units, units);
    assert_eq!(report.recovery_units, 380);
    assert_eq!(report.pages_recovered, 380);
    assert_eq!(report.clients_involved, CLIENTS);
    for ((peer, pages), cached) in peers.iter().zip(&replayed).zip(&pulled) {
        assert_eq!(peer.report_state.load(Ordering::Relaxed), 1);
        assert_eq!(peer.callback_lists_for.load(Ordering::Relaxed), 1);
        assert_eq!(
            peer.ship_cached_pages.load(Ordering::Relaxed),
            cached.div_ceil(RECOVER_BATCH_PAGES)
        );
        assert_eq!(
            peer.recover_pages.load(Ordering::Relaxed),
            pages.div_ceil(RECOVER_BATCH_PAGES)
        );
        assert_eq!(peer.pages_recovered.load(Ordering::Relaxed), *pages);
        assert_eq!(peer.single.load(Ordering::Relaxed), 0);
    }
    // Request + reply for the interrogation and for the lists, one request
    // per pull batch and one per replay batch (pages travel as `PageShip`).
    let recovery = net.count(MsgKind::Recovery) as usize;
    assert_eq!(recovery, 4 * CLIENTS + pulls + batches);
    assert!(recovery <= 7 * CLIENTS, "{recovery}");
    assert_eq!(net.count(MsgKind::PageShip) as usize, pulls + 2 * batches);

    let v = oracle.verify_via_reads(sys.client(1)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

/// The server's database disk, counting reads per page.
struct CountingDisk {
    inner: MemDisk,
    reads: Mutex<HashMap<PageId, usize>>,
}

impl CountingDisk {
    fn new() -> Arc<CountingDisk> {
        Arc::new(CountingDisk {
            inner: MemDisk::new(),
            reads: Mutex::new(HashMap::new()),
        })
    }

    /// Reads per page since the last call.
    fn take_reads(&self) -> HashMap<PageId, usize> {
        std::mem::take(&mut self.reads.lock().unwrap())
    }
}

impl DiskBackend for CountingDisk {
    fn read_page(&self, id: PageId) -> fgl::Result<Option<Page>> {
        *self.reads.lock().unwrap().entry(id).or_default() += 1;
        self.inner.read_page(id)
    }
    fn write_page(&self, page: &Page) -> fgl::Result<()> {
        self.inner.write_page(page)
    }
    fn sync(&self) -> fgl::Result<()> {
        self.inner.sync()
    }
    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

/// Step 2 reads each distinct DPT page once and keeps the copy in the
/// pool: the step-4 merges of pulled pages and the replay bases are pool
/// hits, so no page is read twice and no other page is read.
#[test]
fn restart_reads_each_dpt_page_from_disk_once() {
    const CLIENTS: usize = 3;
    let cfg = SystemConfig {
        client_cache_pages: 6,
        server_cache_pages: 1024,
        ..SystemConfig::default()
    };
    let disk = CountingDisk::new();
    let sys = System::build_with_disk(cfg, CLIENTS, disk.clone()).unwrap();
    let mut s = spec(WorkloadKind::Private);
    s.pages = 12 * CLIENTS;
    let loaders: Vec<_> = (0..CLIENTS).map(|i| sys.client(i)).collect();
    let layout = populate_partitioned(&loaders, s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    // Every page is on disk before the run dirties some of them again.
    for c in &sys.clients {
        c.harden().unwrap();
    }
    let mut opts = HarnessOptions::new(s, 30);
    opts.seed = 1904;
    run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();

    let mut dpt_pages = HashMap::new();
    let (mut pulled, mut replayed) = (0, 0);
    for c in &sys.clients {
        for (page, _) in c.dpt_snapshot() {
            dpt_pages.insert(page, 1);
            match c.cached_page(page) {
                Some(_) => pulled += 1,
                None => replayed += 1,
            }
        }
    }
    assert!(
        pulled > 0 && replayed > 0,
        "{pulled} pulled, {replayed} replayed"
    );

    sys.server.crash();
    disk.take_reads();
    let report = sys.server.restart_recovery().unwrap();
    assert_eq!(disk.take_reads(), dpt_pages);
    assert_eq!(report.recovery_units, replayed);
    let v = oracle.verify_via_reads(sys.client(1)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

/// Step 4 asks each client for all of its cached DPT pages in one
/// message, answered in one message: per client one `Recovery` request
/// and one `PageShip` reply, whatever the page count, and never the
/// per-page call.
#[test]
fn restart_pulls_each_clients_cached_pages_in_one_message() {
    const CLIENTS: usize = 3;
    // Caches that hold every page: nothing is replaced, nothing replayed.
    let cfg = SystemConfig {
        client_cache_pages: 64,
        server_cache_pages: 1024,
        ..SystemConfig::default()
    };
    let sys = System::build(cfg, CLIENTS).unwrap();
    let mut s = spec(WorkloadKind::Private);
    s.pages = 8 * CLIENTS;
    let loaders: Vec<_> = (0..CLIENTS).map(|i| sys.client(i)).collect();
    let layout = populate_partitioned(&loaders, s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(s, 20);
    opts.seed = 1905;
    run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();

    let peers: Vec<_> = (0..CLIENTS)
        .map(|i| CountingPeer::register(&sys, i))
        .collect();
    for c in &sys.clients {
        let dpt = c.dpt_snapshot();
        assert!(dpt.len() > 1, "client {}: {dpt:?}", c.id());
        assert!(dpt.iter().all(|(p, _)| c.cached_page(*p).is_some()));
    }

    sys.server.crash();
    let before = sys.net.snapshot();
    let report = sys.server.restart_recovery().unwrap();
    let net = sys.net.snapshot().delta_since(&before);
    assert_eq!(report.recovery_units, 0);
    for peer in &peers {
        assert_eq!(peer.ship_cached_pages.load(Ordering::Relaxed), 1);
        assert_eq!(peer.single.load(Ordering::Relaxed), 0);
    }
    // Request + reply for the interrogation, one request for the pull.
    assert_eq!(net.count(MsgKind::Recovery) as usize, 3 * CLIENTS);
    assert_eq!(net.count(MsgKind::PageShip) as usize, CLIENTS);
    let v = oracle.verify_via_reads(sys.client(2)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

/// Client restart (§3.3) sends a fixed number of messages per
/// `RECOVER_BATCH_PAGES` pages it recovers: redo fetches a batch in one
/// request answered by one ship, and harden ships the batch in one
/// message and forces it in one request. Everything else it sends does
/// not depend on the number of pages.
#[test]
fn client_restart_sends_a_fixed_number_of_messages() {
    let mut sent = Vec::new();
    for pages in [3usize, 12, RECOVER_BATCH_PAGES + 8] {
        let cfg = SystemConfig {
            client_cache_pages: 2 * RECOVER_BATCH_PAGES,
            server_cache_pages: 1024,
            ..SystemConfig::default()
        };
        let sys = System::build(cfg, 1).unwrap();
        let c = sys.client(0);
        let layout = populate(c, pages, 4, 32).unwrap();
        // One committed update per page: each page is in the DPT, the DCT
        // and dirty in the cache when the client crashes.
        let mut written = Vec::new();
        for (i, &page) in layout.pages.iter().enumerate() {
            let o = *layout.objects.iter().find(|o| o.page == page).unwrap();
            let value = vec![i as u8 + 1; 32];
            let t = c.begin().unwrap();
            c.write(t, o, &value).unwrap();
            c.commit(t).unwrap();
            written.push((o, value));
        }

        c.crash();
        let before = sys.net.snapshot();
        let report = c.recover().unwrap();
        let net = sys.net.snapshot().delta_since(&before);
        let batches = pages.div_ceil(RECOVER_BATCH_PAGES) as u64;
        assert_eq!(report.pages_fetched, pages);
        assert_eq!(net.count(MsgKind::FetchPage), batches, "{pages} pages");
        assert_eq!(net.count(MsgKind::ForcePage), batches, "{pages} pages");
        assert_eq!(net.count(MsgKind::PageShip), 2 * batches, "{pages} pages");
        sent.push(net.total_messages() - 4 * batches);
        let counters = sys.metrics_snapshot().counters;
        assert_eq!(counters["server_recovery_fetch_timeouts"], 0);

        let t = c.begin().unwrap();
        for (o, value) in &written {
            assert_eq!(&c.read(t, *o).unwrap(), value);
        }
        c.commit(t).unwrap();
    }
    assert!(sent.iter().all(|&n| n == sent[0]), "{sent:?}");
}

/// One page, two roles: client A still caches its dirty copy (pulled in
/// step 4) while client B's copy was replaced (B replays it). A's copy
/// merges into the copy step 2 read, B replays onto that merge, and the
/// page is read from disk once.
#[test]
fn a_page_pulled_from_one_client_and_replayed_by_another_reads_back() {
    let cfg = SystemConfig {
        client_cache_pages: 2,
        server_cache_pages: 1024,
        ..SystemConfig::default()
    };
    let disk = CountingDisk::new();
    let sys = System::build_with_disk(cfg, 2, disk.clone()).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let oracle = Oracle::new();
    let write = |c: &Arc<ClientCore>, obj: ObjectId, val: &[u8]| {
        let t = c.begin().unwrap();
        c.write(t, obj, val).unwrap();
        c.commit_with(t, || oracle.commit_writes(&[(obj, Some(val.to_vec()))]))
            .unwrap();
    };

    // A creates the page with an object for each client, and hardens it.
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let mine = a.insert(t, page, b"a-first.").unwrap();
    let theirs = a.insert(t, page, b"b-first.").unwrap();
    a.commit_with(t, || {
        oracle.commit_writes(&[
            (mine, Some(b"a-first.".to_vec())),
            (theirs, Some(b"b-first.".to_vec())),
        ])
    })
    .unwrap();
    a.harden().unwrap();
    write(b, theirs, b"b-wrote.");
    write(a, mine, b"a-wrote.");
    // B's copy is replaced: in its DPT, no longer in its cache.
    for _ in 0..3 {
        let t = b.begin().unwrap();
        let other = b.create_page(t).unwrap();
        let obj = b.insert(t, other, b"b-other.").unwrap();
        b.commit_with(t, || {
            oracle.commit_writes(&[(obj, Some(b"b-other.".to_vec()))])
        })
        .unwrap();
    }
    let in_dpt = |c: &Arc<ClientCore>| c.dpt_snapshot().iter().any(|(p, _)| *p == page);
    assert!(a.cached_page(page).is_some() && in_dpt(a));
    assert!(b.cached_page(page).is_none() && in_dpt(b));

    sys.server.crash();
    disk.take_reads();
    let report = sys.server.restart_recovery().unwrap();
    assert!(report.recovery_units >= 1);
    assert_eq!(disk.take_reads().get(&page), Some(&1));
    for c in [a, b] {
        let v = oracle.verify_via_reads(c).unwrap();
        assert!(v.is_clean(), "{:?}", v.mismatches);
    }
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, mine).unwrap(), b"a-wrote.");
    assert_eq!(b.read(t, theirs).unwrap(), b"b-wrote.");
    b.commit(t).unwrap();
}

/// The batched §3.4 services give the per-page answers: on a HOTCOLD run
/// with caches small enough to replace dirty pages (so DPT RedoLSNs and
/// callback records spread over the log), one scan for many queries, or
/// for many pages, returns exactly what a scan per query or page does.
#[test]
fn batched_recovery_services_equal_the_per_page_ones() {
    let cfg = SystemConfig {
        client_cache_pages: 4,
        server_cache_pages: 12,
        client_checkpoint_every: 400,
        ..SystemConfig::default()
    };
    let sys = System::build(cfg, 3).unwrap();
    let mut s = spec(WorkloadKind::HotCold);
    s.pages = 24;
    s.hot_probability = 0.5;
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 32).unwrap();
    // The harness's seeded HOTCOLD streams without its threads: the
    // clients take turns, so nothing ever waits and every run leaves the
    // same three logs.
    let mut rngs: Vec<DetRng> = (0..3).map(|i| DetRng::new(1902 + i)).collect();
    for round in 0..80u8 {
        for (i, c) in sys.clients.iter().enumerate() {
            let t = c.begin().unwrap();
            for op in s.next_txn(i, 3, &mut rngs[i]).ops {
                match op {
                    Op::Read(o) => drop(c.read(t, o).unwrap()),
                    Op::Write(o) | Op::Resize(o) => c.write(t, o, &[round; 32]).unwrap(),
                }
            }
            c.commit(t).unwrap();
        }
    }

    let mut lists_seen = 0;
    let mut floors_seen = std::collections::BTreeSet::new();
    let mut undirtied_seen = false;
    let mut replays_changed = 0;
    for (i, client) in sys.clients.iter().enumerate() {
        let peer = PeerHandle::new(client);
        let dpt = client.dpt_snapshot();

        // Every (page, other client) pair, asked once with no RedoLSN and
        // once with one taken from this client's own table.
        let mut queries = Vec::new();
        for (n, &page) in layout.pages.iter().enumerate() {
            for other in sys.clients.iter().filter(|o| o.id() != client.id()) {
                queries.push((page, other.id(), Lsn::NIL));
                if let Some((_, lsn)) = dpt.get(n % dpt.len().max(1)) {
                    queries.push((page, other.id(), *lsn));
                }
            }
        }
        let batched = peer.callback_lists_for(&queries);
        assert_eq!(batched.len(), queries.len());
        for (&(page, c, from), list) in queries.iter().zip(&batched) {
            assert_eq!(list, &peer.callback_list_for(page, c, from), "{page} {c}");
            lists_seen += list.len();
        }

        // Every page of the database as one replay batch: pages with
        // different RedoLSNs, and pages this client never dirtied. A list
        // naming every object keeps replay off the foreign-callback path,
        // whose fetches would change the server under the comparison.
        let jobs: Vec<RecoverJob> = layout
            .pages
            .iter()
            .map(|&page| {
                let base = sys.server.page_copy(page).unwrap();
                let callback_list = layout
                    .objects
                    .iter()
                    .filter(|o| o.page == page)
                    .map(|o| (*o, Psn::ZERO))
                    .collect();
                RecoverJob {
                    page,
                    install_psn: base.psn(),
                    base: base.into_bytes().into(),
                    callback_list,
                }
            })
            .collect();
        let batched = peer.recover_pages(jobs.clone());
        assert_eq!(batched.len(), jobs.len());
        for (job, out) in jobs.into_iter().zip(batched) {
            match dpt.iter().find(|(p, _)| *p == job.page) {
                Some((_, lsn)) => drop(floors_seen.insert((i, *lsn))),
                None => undirtied_seen = true,
            }
            if out != RecoveredPageOutcome::Done(job.base.to_vec()) {
                replays_changed += 1;
            }
            let single = peer.recover_page(
                job.page,
                job.base.to_vec(),
                job.install_psn,
                job.callback_list,
            );
            // (Not `assert_eq!`: a failure would print two whole pages.)
            assert!(out == single, "client {i} page {}", job.page);
        }
    }
    assert!(lists_seen > 0, "the run must leave callback records");
    assert!(
        floors_seen.len() > 3,
        "RedoLSNs must differ: {floors_seen:?}"
    );
    assert!(undirtied_seen, "one page must have no DPT entry");
    assert!(replays_changed > 0, "replay must have applied records");
}

/// While the server is down a crashed client cannot begin its recovery,
/// so a replay that meets a callback record naming it must not wait for
/// its progress: the wait can only run out and fall back to the merged
/// copy the restart already has.
#[test]
fn restart_does_not_wait_on_a_crashed_clients_progress() {
    let cfg = SystemConfig {
        client_cache_pages: 2,
        ..SystemConfig::default()
    };
    let sys = System::build(cfg, 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let oracle = Oracle::new();
    let write = |c: &Arc<ClientCore>, obj: ObjectId, val: &[u8]| {
        let t = c.begin().unwrap();
        c.write(t, obj, val).unwrap();
        c.commit_with(t, || oracle.commit_writes(&[(obj, Some(val.to_vec()))]))
            .unwrap();
    };
    let create = |c: &Arc<ClientCore>, val: &[u8]| {
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let obj = c.insert(t, page, val).unwrap();
        c.commit_with(t, || oracle.commit_writes(&[(obj, Some(val.to_vec()))]))
            .unwrap();
        obj
    };

    // A then B update one object: B's exclusive lock calls A back, and B
    // logs a callback record naming A.
    let shared = create(a, b"a-first.");
    let own = create(a, b"a-alone.");
    write(a, shared, b"a-again.");
    write(b, shared, b"b-wrote.");
    // B's copy is replaced: still in its DPT, no longer in its cache.
    for _ in 0..3 {
        create(b, b"b-other.");
    }
    assert!(b.cached_page(shared.page).is_none());
    assert!(b.dpt_snapshot().iter().any(|(p, _)| *p == shared.page));

    a.crash();
    sys.server.crash();
    let report = sys.server.restart_recovery().unwrap();
    assert!(report.recovery_units >= 1);
    assert!(
        report.elapsed < Duration::from_millis(400),
        "restart waited on a client that cannot move: {:?}",
        report.elapsed
    );
    a.recover().unwrap();
    let v = oracle.verify_via_reads(b).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
    let t = a.begin().unwrap();
    assert_eq!(a.read(t, own).unwrap(), b"a-alone.");
    assert_eq!(a.read(t, shared).unwrap(), b"b-wrote.");
    a.commit(t).unwrap();
}

/// The batched frames end to end: over a Unix socket a client with more
/// replaced dirty pages than one batch holds answers the `CallBack_P`
/// query and both `RecoverPages` requests through the real codec.
#[test]
fn server_restart_over_a_socket_replays_in_batches() {
    let cfg = SystemConfig {
        client_cache_pages: 4,
        server_cache_pages: 1024,
        ..SystemConfig::default()
    }
    .with_transport(TransportKind::Uds);
    let sys = System::build(cfg, 2).unwrap();
    let s = {
        let mut s = spec(WorkloadKind::Private);
        s.pages = 2 * (RECOVER_BATCH_PAGES + 8);
        s
    };
    let loaders: Vec<_> = (0..2).map(|i| sys.client(i)).collect();
    let layout = populate_partitioned(&loaders, s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(s, 30);
    opts.seed = 1903;
    run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();

    sys.server.crash();
    let report = sys.server.restart_recovery().unwrap();
    assert_eq!(report.clients_involved, 2);
    assert_eq!(report.recovery_units, 2 * (RECOVER_BATCH_PAGES + 8 - 4));
    let v = oracle.verify_via_reads(sys.client(1)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

/// What one client restart left behind: the report's winners, losers,
/// pages recovered, pages fetched and records applied, then the end of
/// the private log and a hash of every database page as the server holds
/// it.
type RestartPin = (usize, usize, usize, usize, usize, u64, u64);

/// A seeded HOTCOLD run driven in turns (no thread ever waits, so every
/// run leaves the same logs), then client 1 crashes holding two losers —
/// one in its last checkpoint's transaction table, one begun after it,
/// both with pages other clients have since called back — alone or
/// together with the server (§3.5).
fn restart_pin(strategy: LoggingStrategyKind, complex: bool) -> RestartPin {
    let cfg = SystemConfig::default().with_logging_strategy(strategy);
    let sys = System::build(cfg, 3).unwrap();
    let s = spec(WorkloadKind::HotCold);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut rngs: Vec<DetRng> = (0..3).map(|i| DetRng::new(2400 + i)).collect();
    let mut rounds = |from: u8, to: u8, busy: &dyn Fn(ObjectId) -> bool| {
        for round in from..to {
            for (i, c) in sys.clients.iter().enumerate() {
                let t = c.begin().unwrap();
                let mut writes = Vec::new();
                for op in s.next_txn(i, 3, &mut rngs[i]).ops {
                    let o = op.object();
                    if busy(o) {
                        continue;
                    }
                    match op {
                        Op::Read(_) => drop(c.read(t, o).unwrap()),
                        Op::Write(_) | Op::Resize(_) => {
                            // Every third round is structural, and long
                            // enough to make a hybrid transaction log
                            // physically.
                            if round % 3 == 0 {
                                c.resize(t, o, 72).unwrap();
                                c.resize(t, o, 32).unwrap();
                            }
                            c.write(t, o, &[round; 32]).unwrap();
                            writes.push((o, Some(vec![round; 32])));
                        }
                    }
                }
                c.commit_with(t, || oracle.commit_writes(&writes)).unwrap();
            }
        }
    };
    rounds(0, 27, &|_| false);
    // Client 1's early pages reach the server's disk: they leave the DCT,
    // so Property 1 has pages to skip.
    sys.client(1).harden().unwrap();
    rounds(27, 30, &|_| false);

    // Two losers at client 1: one small (redo-only under `hybrid`) and in
    // the checkpoint, one that opens with a resize (physical) after it.
    let c = sys.client(1);
    let obj = |page: usize, slot: usize| layout.objects[page * s.objects_per_page + slot];
    let small = [obj(4, 0), obj(4, 5), obj(5, 2), obj(0, 3)];
    let large = [obj(6, 1), obj(6, 4)];
    let l1 = c.begin().unwrap();
    for (n, o) in small.iter().enumerate() {
        c.write(l1, *o, &[0xA0 + n as u8; 32]).unwrap();
    }
    c.checkpoint().unwrap();
    let l2 = c.begin().unwrap();
    c.resize(l2, large[0], 72).unwrap();
    c.write(l2, large[1], &[0xB1; 32]).unwrap();
    c.write(l1, small[0], &[0xAF; 32]).unwrap();
    // The others (and client 1's own later transactions) keep working
    // around the losers' locks: callbacks ship the losers' pages, the
    // commits force their records.
    rounds(30, 42, &|o| small.contains(&o) || o.page == large[0].page);

    c.crash();
    if complex {
        sys.server.crash();
        sys.server.restart_recovery().unwrap();
    }
    let rep = c.recover().unwrap();
    let log_end = c.log_usage().0; // nothing was reclaimed: in use = end
    let v = oracle.verify_via_reads(sys.client(0)).unwrap();
    assert!(v.is_clean(), "{strategy:?}: {:?}", v.mismatches);
    for c in &sys.clients {
        c.harden().unwrap();
    }
    // FNV-1a over every object (slot, PSN, value) of every page as the
    // server holds it. After a client crash the whole page image goes in
    // too; after a complex crash it cannot, because server restart merges
    // the two surviving clients' copies in whichever order they answer
    // and the page-level PSN lands one apart from run to run.
    let mut pages_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fnv = |bytes: &[u8]| {
        for b in bytes {
            pages_hash = (pages_hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &page in &layout.pages {
        let copy = sys.server.page_copy(page).unwrap();
        for (slot, psn, value) in copy.snapshot_objects() {
            fnv(&slot.0.to_le_bytes());
            fnv(&psn.0.to_le_bytes());
            fnv(&value);
        }
        if !complex {
            fnv(copy.as_bytes());
        }
    }
    (
        rep.winners,
        rep.losers,
        rep.pages_recovered,
        rep.pages_fetched,
        rep.records_applied,
        log_end,
        pages_hash,
    )
}

/// Client restart, pinned per strategy x {client crash, complex crash}:
/// the constants are what commit b5cfdb0 (three restart drivers) left,
/// except `log_end` of the redo-only and hybrid rows. Those shrank when
/// redo-only records became native log kinds instead of an envelope
/// (24 B less per redo-only update, 28 B per spill); every count and
/// page hash stayed.
#[test]
fn restart_leaves_the_recorded_counts_log_and_pages() {
    use LoggingStrategyKind::*;
    #[rustfmt::skip]
    let want: [(_, _, RestartPin); 6] = [
        (ClientAries, false, (12, 2, 8, 8, 13, 26824, 2188529311487930427)),
        (ClientAries, true, (12, 2, 8, 8, 0, 26824, 14833372426372957901)),
        (RedoOnly, false, (42, 2, 9, 9, 9, 18841, 2959043463736195518)),
        (RedoOnly, true, (42, 2, 12, 12, 0, 18889, 17150234313638927731)),
        // The one cell the single driver moves (b5cfdb0: 9 applied, hash
        // 4254536476712928168): a hybrid loser that logged physically is
        // now redone before its chain-walk undo, as under the paper's
        // restart and as §3.5 always did, instead of skipped. Two more
        // records apply and the PSNs on its pages move; the values do not
        // (`restart_pin` checks the oracle).
        (Hybrid, false, (42, 2, 9, 9, 11, 24225, 1550113182983745843)),
        (Hybrid, true, (42, 2, 12, 12, 0, 24273, 4205255825687857298)),
    ];
    let mut moved = Vec::new();
    for (strategy, complex, want) in want {
        let got = restart_pin(strategy, complex);
        if got != want {
            moved.push(format!(
                "{strategy:?}, complex crash {complex}:\n  got  {got:?}\n  want {want:?}"
            ));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// ROADMAP fatal path 3, pinned where it stands: a restart whose pages to
/// redo outnumber the cache frames refuses rather than replace a page
/// mid-recovery — under the paper's restart, the redo-only restart and
/// the §3.5 restart alike.
#[test]
fn recovery_refuses_when_the_working_set_exceeds_the_cache() {
    use LoggingStrategyKind::*;
    for (strategy, complex) in [(ClientAries, false), (RedoOnly, false), (ClientAries, true)] {
        let cfg = SystemConfig {
            client_cache_pages: 2,
            ..SystemConfig::default().with_logging_strategy(strategy)
        };
        let sys = System::build(cfg, 1).unwrap();
        let c = sys.client(0);
        for _ in 0..4 {
            let t = c.begin().unwrap();
            let page = c.create_page(t).unwrap();
            c.insert(t, page, b"redo me.").unwrap();
            c.commit(t).unwrap();
        }
        c.crash();
        if complex {
            sys.server.crash();
            sys.server.restart_recovery().unwrap();
        }
        match c.recover() {
            Err(FglError::Protocol(why)) => assert!(
                why.contains("cache too small"),
                "{strategy:?}, complex crash: {complex}: {why}"
            ),
            other => panic!("{strategy:?}, complex crash: {complex}: {other:?}"),
        }
    }
}

/// Crashes its client as the first callback arrives, then hands the
/// callback on: a wave the server issued before it learned of the crash,
/// whose reply it applies after.
struct CrashOnCallback {
    core: Arc<ClientCore>,
    inner: PeerHandle,
}

impl ClientPeer for CrashOnCallback {
    fn client_id(&self) -> ClientId {
        self.inner.client_id()
    }
    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        self.deliver_callback_batch(&[kind]).remove(0)
    }
    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        if !self.core.is_crashed() {
            self.core.crash();
        }
        self.inner.deliver_callback_batch(kinds)
    }
    fn notify_page_flushed(&self, page: PageId) {
        self.inner.notify_page_flushed(page)
    }
    fn report_state(&self) -> ClientStateReport {
        self.inner.report_state()
    }
    fn callback_list_for(&self, page: PageId, c: ClientId, from: Lsn) -> Vec<(ObjectId, Psn)> {
        self.inner.callback_list_for(page, c, from)
    }
    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>> {
        self.inner.ship_cached_page(page)
    }
    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        psn: Psn,
        list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        self.inner.recover_page(page, base, psn, list)
    }
}

/// A callback that reaches a client after it crashed must leave the
/// client's exclusive locks held: §3.3 redo replays a committed update
/// that never left the client's cache only under them. The crashed
/// client used to answer `Done`, so the reader was granted the stale
/// server copy and recovery skipped the update — the committed write was
/// lost (the `MISMATCH` after the crash drill of `two_process_uds`).
#[test]
fn a_callback_racing_a_client_crash_loses_no_committed_update() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (alice, bob) = (sys.client(0).clone(), sys.client(1).clone());
    let t = alice.begin().unwrap();
    let page = alice.create_page(t).unwrap();
    let obj = alice.insert(t, page, b"loaded").unwrap();
    alice.commit(t).unwrap();
    alice.harden().unwrap();
    // Committed, in alice's log and cache only, under her retained lock.
    let t = alice.begin().unwrap();
    alice.write(t, obj, b"update").unwrap();
    alice.commit(t).unwrap();
    sys.server.register_client(Arc::new(CrashOnCallback {
        core: alice.clone(),
        inner: PeerHandle::new(&alice),
    }));

    let reader = std::thread::spawn(move || {
        let t = bob.begin().unwrap();
        let seen = bob.read(t, obj).unwrap();
        bob.commit(t).unwrap();
        seen
    });
    while !alice.is_crashed() {
        std::thread::yield_now();
    }
    alice.recover().unwrap();
    assert_eq!(reader.join().unwrap(), b"update");
    let t = alice.begin().unwrap();
    assert_eq!(alice.read(t, obj).unwrap(), b"update");
    alice.commit(t).unwrap();
}

/// Fatal path 4: with a checkpoint every record, a transaction's commit
/// record trips the checkpoint itself. Its snapshot of active
/// transactions used to list that transaction, whose commit record then
/// lay before the checkpoint restart scans from — so §3.3 read it as a
/// loser and rolled the committed update back.
#[test]
fn a_commit_that_trips_a_checkpoint_survives_a_client_crash() {
    let cfg = SystemConfig {
        client_checkpoint_every: 1,
        ..SystemConfig::default()
    };
    let sys = System::build(cfg, 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let obj = a.insert(t, page, b"loaded").unwrap();
    a.commit(t).unwrap();
    a.harden().unwrap();
    // Committed, in a's log and cache only.
    let t = a.begin().unwrap();
    a.write(t, obj, b"update").unwrap();
    a.commit(t).unwrap();

    a.crash();
    let rep = a.recover().unwrap();
    assert_eq!(rep.losers, 0, "a committed transaction was rolled back");
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, obj).unwrap(), b"update");
    b.commit(t).unwrap();
}

/// A redo-only transaction logs no before-images; the one undo record it
/// leaves is the spill written as a dirty page it updated leaves the
/// client. Here the page leaves in a callback reply: `b`'s write on the
/// same page calls `a`'s page lock back mid-transaction, and the reply
/// carries the copy with `a`'s uncommitted update. After `a` crashes,
/// restart must undo that update from the spill.
#[test]
fn a_redo_only_loser_shipped_in_a_callback_reply_is_rolled_back() {
    let sys = System::build(
        SystemConfig::default().with_logging_strategy(LoggingStrategyKind::RedoOnly),
        2,
    )
    .unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let mine = a.insert(t, page, b"before").unwrap();
    let theirs = a.insert(t, page, b"others").unwrap();
    a.commit(t).unwrap();

    let loser = a.begin().unwrap();
    a.write(loser, mine, b"uncomm").unwrap();
    let t = b.begin().unwrap();
    b.write(t, theirs, b"theirs").unwrap();
    b.commit(t).unwrap();
    assert_eq!(
        sys.server
            .page_copy(page)
            .unwrap()
            .read_object(mine.slot)
            .unwrap(),
        b"uncomm",
        "the callback reply did not carry the uncommitted update"
    );

    a.crash();
    let rep = a.recover().unwrap();
    assert_eq!(rep.losers, 1);
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, mine).unwrap(), b"before");
    assert_eq!(b.read(t, theirs).unwrap(), b"theirs");
    b.commit(t).unwrap();
}

/// As above, but the page leaves as a replacement ship: `a`'s cache
/// holds two pages, so reading two pages `b` created evicts the one the
/// redo-only transaction dirtied.
#[test]
fn a_redo_only_loser_shipped_on_eviction_is_rolled_back() {
    let cfg = SystemConfig {
        client_cache_pages: 2,
        ..SystemConfig::default().with_logging_strategy(LoggingStrategyKind::RedoOnly)
    };
    let sys = System::build(cfg, 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let mine = a.insert(t, page, b"before").unwrap();
    a.commit(t).unwrap();
    let t = b.begin().unwrap();
    let elsewhere: Vec<ObjectId> = (0..2)
        .map(|_| {
            let p = b.create_page(t).unwrap();
            b.insert(t, p, b"filler").unwrap()
        })
        .collect();
    b.commit(t).unwrap();

    let loser = a.begin().unwrap();
    a.write(loser, mine, b"uncomm").unwrap();
    for &o in &elsewhere {
        assert_eq!(a.read(loser, o).unwrap(), b"filler");
    }
    assert!(
        a.cached_page(page).is_none(),
        "the dirty page was not evicted"
    );
    assert_eq!(
        sys.server
            .page_copy(page)
            .unwrap()
            .read_object(mine.slot)
            .unwrap(),
        b"uncomm",
        "the eviction did not ship the uncommitted update"
    );

    a.crash();
    let rep = a.recover().unwrap();
    assert_eq!(rep.losers, 1);
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, mine).unwrap(), b"before");
    b.commit(t).unwrap();
}
