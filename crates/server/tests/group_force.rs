//! Group commit of the server log: concurrent page flushes share one
//! device force, each page still reaches the disk only after a force that
//! covers its replacement record (§3.1), and a server crash during a force
//! promotes nothing the crash discarded.
//!
//! The tests count server-log forces from a process-wide event sink, so
//! they run one at a time.

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_net::peer::{CallbackOutcome, ClientPeer, ClientStateReport, RecoveredPageOutcome};
use fgl_net::stats::NetSim;
use fgl_net::ServerApi;
use fgl_obs::{CaptureSink, Event, LogOwner};
use fgl_server::runtime::ServerCore;
use fgl_storage::disk::{DiskBackend, MemDisk};
use fgl_storage::page::Page;
use fgl_wal::records::LogPayload;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

static SERIAL: Mutex<()> = Mutex::new(());

const PAGES: usize = 16;
const LATENCY: Duration = Duration::from_millis(2);

/// A client that complies with everything and reports nothing.
struct QuietPeer;

impl ClientPeer for QuietPeer {
    fn client_id(&self) -> ClientId {
        ClientId(1)
    }
    fn deliver_callback(&self, _: CallbackKind) -> CallbackOutcome {
        CallbackOutcome::Done {
            retained: vec![],
            page_copy: None,
        }
    }
    fn notify_page_flushed(&self, _: PageId) {}
    fn report_state(&self) -> ClientStateReport {
        ClientStateReport::default()
    }
    fn callback_list_for(&self, _: PageId, _: ClientId, _: Lsn) -> Vec<(ObjectId, Psn)> {
        vec![]
    }
    fn ship_cached_page(&self, _: PageId) -> Option<Arc<[u8]>> {
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

/// A server whose log device takes `latency` per force, holding `pages`
/// pages that client 1 allocated, changed and shipped back: every one is
/// dirty in the pool and none is on disk yet.
fn server_with_dirty_pages(
    disk: Arc<dyn DiskBackend>,
    latency: Duration,
    pages: usize,
) -> (Arc<ServerCore>, Vec<PageId>) {
    let cfg = SystemConfig {
        disk_latency: latency,
        ..SystemConfig::default()
    };
    let s = ServerCore::new(cfg, Arc::new(NetSim::new(Duration::ZERO)), disk);
    s.register_client(Arc::new(QuietPeer));
    let txn = TxnId::compose(ClientId(1), 1);
    let (mut ids, mut frames) = (Vec::new(), Vec::new());
    for n in 0..pages {
        let bytes = s.allocate_page(ClientId(1), txn).unwrap();
        let mut copy = Page::from_wire(&bytes, s.config().page_size).unwrap();
        copy.insert_object(&[n as u8; 24]).unwrap();
        ids.push(copy.id());
        frames.push(Arc::from(copy.to_wire()));
    }
    s.ship_pages(ClientId(1), frames, true).unwrap();
    (s, ids)
}

/// The LSNs of the server-log forces captured so far.
fn server_forces(sink: &CaptureSink) -> Vec<Lsn> {
    let events = sink.events().into_iter();
    events
        .filter_map(|s| match s.event {
            Event::LogForce {
                owner: LogOwner::Server,
                lsn,
            } => Some(lsn),
            _ => None,
        })
        .collect()
}

/// Force every page from its own green task, `PAGES` tasks on 2 workers;
/// returns how long they took together.
fn force_concurrently(s: &ServerCore, pages: &[PageId]) -> Duration {
    let start = Instant::now();
    let jobs: Vec<Job> = pages
        .iter()
        .map(|&page| Box::new(move || s.force_page(ClientId(1), page).unwrap()) as Job)
        .collect();
    fgl_sched::run_scoped(2, jobs);
    start.elapsed()
}

#[test]
fn concurrent_flushes_share_server_log_forces() {
    if !fgl_sched::supported() {
        return;
    }
    let _serial = SERIAL.lock();
    let (s, pages) = server_with_dirty_pages(Arc::new(MemDisk::new()), LATENCY, PAGES);
    let (sink, _guard) = CaptureSink::install();
    let elapsed = force_concurrently(&s, &pages);
    let forces = server_forces(&sink).len();
    assert!(
        forces < PAGES,
        "{PAGES} flushes forced the log {forces} times"
    );
    let serial = LATENCY * PAGES as u32;
    assert!(elapsed < serial / 2, "{PAGES} flushes took {elapsed:?}");
    assert_eq!(s.stats().pages_flushed, PAGES as u64);
}

/// The database disk: each write request, with the highest server-log
/// force the sink had captured when it arrived.
struct OrderedDisk {
    inner: MemDisk,
    sink: Arc<CaptureSink>,
    writes: Mutex<Vec<(Vec<PageId>, Option<Lsn>)>>,
}

impl OrderedDisk {
    fn record(&self, pages: &[Page]) {
        let forced = server_forces(&self.sink).into_iter().max();
        let ids = pages.iter().map(Page::id).collect();
        self.writes.lock().push((ids, forced));
    }
}

impl DiskBackend for OrderedDisk {
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

/// §3.1 under concurrency: no page reaches the disk before a server-log
/// force whose LSN covers the end of its replacement record.
#[test]
fn concurrent_flushes_write_no_page_before_its_record_is_forced() {
    if !fgl_sched::supported() {
        return;
    }
    let _serial = SERIAL.lock();
    let (sink, _guard) = CaptureSink::install();
    let disk = Arc::new(OrderedDisk {
        inner: MemDisk::new(),
        sink: sink.clone(),
        writes: Mutex::new(Vec::new()),
    });
    let (s, pages) = server_with_dirty_pages(disk.clone(), LATENCY, PAGES);
    force_concurrently(&s, &pages);
    let record_ends: HashMap<PageId, Lsn> = s
        .slog_records()
        .unwrap()
        .into_iter()
        .filter_map(|e| match e.payload {
            LogPayload::Replacement(r) => Some((r.page, e.next)),
            _ => None,
        })
        .collect();
    let writes = disk.writes.lock();
    let written: Vec<PageId> = writes.iter().flat_map(|(ids, _)| ids.clone()).collect();
    assert_eq!(written.len(), PAGES, "each page written once: {written:?}");
    for (ids, forced) in writes.iter() {
        for page in ids {
            let end = record_ends[page];
            assert!(
                forced.is_some_and(|f| f >= end),
                "{page:?} written with its record ending at {end:?}, forced to {forced:?}"
            );
        }
    }
}

/// A flush leads a server-log force; while the device works the server
/// crashes and restarts, and restart appends and forces its checkpoint.
/// The stale force fails instead of promoting the restart's record: the
/// restart pays a device force of its own, every force since the crash
/// ends at the checkpoint, and a second crash keeps exactly that.
#[test]
fn a_server_crash_during_a_flush_promotes_nothing_it_discarded() {
    if !fgl_sched::supported() {
        return;
    }
    let _serial = SERIAL.lock();
    let latency = Duration::from_millis(200);
    let (s, pages) = server_with_dirty_pages(Arc::new(MemDisk::new()), latency, 1);
    let before = s.slog_bounds().1;
    let (sink, _guard) = CaptureSink::install();
    let flushed = Mutex::new(None);
    let restart = Mutex::new(None);
    let flush: Job = Box::new(|| *flushed.lock() = Some(s.force_page(ClientId(1), pages[0])));
    let crash: Job = Box::new(|| {
        // Crash once the flush's record is in the log, and with it in
        // flight the force the flush leads.
        while s.slog_bounds().1 == before {
            fgl_sched::yield_now();
        }
        fgl_sched::pause(latency / 5);
        s.crash();
        assert_eq!(
            s.slog_bounds().1,
            before,
            "the crash kept an unforced record"
        );
        let forces_before_crash = server_forces(&sink).len();
        let start = Instant::now();
        s.restart_recovery().unwrap();
        *restart.lock() = Some((start.elapsed(), forces_before_crash));
    });
    fgl_sched::run_scoped(2, vec![flush, crash]);
    assert!(
        flushed.lock().take().unwrap().is_err(),
        "the flush's record is gone"
    );
    let (took, forces_before_crash) = restart.lock().take().unwrap();
    assert!(
        took >= latency,
        "restart's checkpoint rode a stale force ({took:?})"
    );
    let (checkpoint, end) = s.slog_bounds();
    assert!(checkpoint >= before && end > checkpoint);
    let since_crash = server_forces(&sink).split_off(forces_before_crash);
    assert_eq!(since_crash, [end], "forces since the crash");
    s.crash();
    assert_eq!(s.slog_bounds().1, end, "the durable end moved");
}
