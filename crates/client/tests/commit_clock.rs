//! What a commit pays for observability: the clock readings a led commit
//! takes, and the events it emits with them.
//!
//! A led commit (client-based logging, one committer, so it leads its own
//! group force) reads the registry clock four times: at commit start, as
//! it starts to wait for durability (which also starts the force it
//! leads), at the force's end and at commit end. The force's end reading
//! times both the force and the wait and stamps both their events.

use fgl_client::ClientCore;
use fgl_common::{ClientId, SystemConfig, TxnId};
use fgl_net::stats::NetSim;
use fgl_obs::{CaptureSink, Clock, Event, LogOwner, Metrics, Stamped};
use fgl_server::runtime::ServerCore;
use fgl_storage::disk::MemDisk;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The event sink sees the whole process, so the tests here take turns:
/// while one captures, no other commits.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// The process clock, counting its readings.
struct CountingClock(Arc<AtomicU64>);

impl Clock for CountingClock {
    fn now_us(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed);
        fgl_obs::now_us()
    }
}

/// A server and one client `id` whose registry clock counts its readings.
fn counted_client(id: u32) -> (Arc<ServerCore>, Arc<ClientCore>, Arc<AtomicU64>) {
    let reads = Arc::new(AtomicU64::new(0));
    let metrics = Arc::new(Metrics::with_clock(Box::new(CountingClock(reads.clone()))));
    let net = Arc::new(NetSim::new(std::time::Duration::ZERO));
    let server = ServerCore::new_instance(
        SystemConfig::default(),
        net.clone(),
        Arc::new(MemDisk::new()),
        0,
        1,
        metrics,
    );
    let client = ClientCore::new(ClientId(id), server.clone(), net);
    (server, client, reads)
}

/// Begin a transaction that updates `obj` and commit it, returning the
/// transaction and the registry clock readings the commit call took.
fn counted_commit(
    client: &ClientCore,
    obj: fgl_common::ObjectId,
    reads: &AtomicU64,
) -> (TxnId, u64) {
    let t = client.begin().unwrap();
    client.write(t, obj, b"v1").unwrap();
    let before = reads.load(Ordering::Relaxed);
    client.commit(t).unwrap();
    (t, reads.load(Ordering::Relaxed) - before)
}

#[test]
fn a_led_commit_reads_the_clock_four_times() {
    let _serial = serial();
    let (_server, client, reads) = counted_client(11);
    let t = client.begin().unwrap();
    let page = client.create_page(t).unwrap();
    let obj = client.insert(t, page, b"v0").unwrap();
    client.commit(t).unwrap();
    for _ in 0..20 {
        let forced = client.stats().commits_forced;
        let (_, commit_reads) = counted_commit(&client, obj, &reads);
        assert_eq!(client.stats().commits_forced, forced + 1, "the commit led");
        assert!(
            commit_reads <= 4,
            "a led commit read the clock {commit_reads} times"
        );
    }
}

/// Every event a led commit emits, in emission order: its log force,
/// then its group commit, both stamped with the force's end reading, on
/// the process timeline between the events emitted before and after it.
#[test]
fn a_led_commit_stamps_its_force_and_group_commit_alike() {
    let _serial = serial();
    let (_server, client, reads) = counted_client(12);
    let me = client.id();
    let t = client.begin().unwrap();
    let page = client.create_page(t).unwrap();
    let obj = client.insert(t, page, b"v0").unwrap();
    client.commit(t).unwrap();

    let (sink, _guard) = CaptureSink::install();
    let marker = |n: u64| Event::DeadlockVictim {
        txn: TxnId(0xC10C_0000 + n),
    };
    fgl_obs::emit(marker(1));
    let (txn, _) = counted_commit(&client, obj, &reads);
    fgl_obs::emit(marker(2));

    // The sink sees events in emission order; the seq order must agree.
    // Trace spans (on when `FGL_TRACE_OUT` is set) are not protocol events.
    let events: Vec<Stamped> = sink
        .events()
        .into_iter()
        .filter(|s| {
            !matches!(
                s.event,
                Event::SpanOpen { .. } | Event::SpanClose { .. } | Event::SchedWait { .. }
            )
        })
        .collect();
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
    let from = events.iter().position(|s| s.event == marker(1)).unwrap();
    let [before, force, group, after] = events[from..] else {
        panic!("expected marker, LogForce, GroupCommit, marker: {events:?}");
    };
    assert_eq!(before.event, marker(1));
    assert!(matches!(force.event, Event::LogForce { owner, .. } if owner == LogOwner::Client(me)));
    assert_eq!(
        group.event,
        Event::GroupCommit {
            client: me,
            txn,
            forced: true
        }
    );
    assert_eq!(after.event, marker(2));
    assert_eq!(force.at_us, group.at_us, "one reading stamps both");
    assert!(before.at_us <= force.at_us && group.at_us <= after.at_us);
}
