//! Cross-crate integration: multi-client sharing through the full
//! client/server/lock/WAL stack.

use fgl::{FglError, System, SystemConfig};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

fn spec(kind: WorkloadKind) -> WorkloadSpec {
    let mut s = WorkloadSpec::new(kind);
    s.pages = 16;
    s.objects_per_page = 8;
    s.ops_per_txn = 5;
    s.write_fraction = 0.5;
    s
}

#[test]
fn four_clients_uniform_workload_matches_oracle() {
    let sys = System::build(SystemConfig::default(), 4).unwrap();
    let s = spec(WorkloadKind::Uniform);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 48).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let report = run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(s, 25)).unwrap();
    assert!(report.commits > 0);
    for i in 0..4 {
        let v = oracle.verify_via_reads(sys.client(i)).unwrap();
        assert!(v.is_clean(), "client {i} sees {:?}", v.mismatches);
    }
}

#[test]
fn feed_readers_observe_writer_updates() {
    let sys = System::build(SystemConfig::default(), 3).unwrap();
    let s = spec(WorkloadKind::Feed);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 48).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let report = run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(s, 20)).unwrap();
    assert!(report.commits > 0);
    assert!(oracle.verify_via_reads(sys.client(2)).unwrap().is_clean());
}

#[test]
fn object_deletion_is_visible_across_clients() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let obj = a.insert(t, page, b"condemned").unwrap();
    a.commit(t).unwrap();

    let t = b.begin().unwrap();
    assert_eq!(b.read(t, obj).unwrap(), b"condemned");
    b.commit(t).unwrap();

    // A deletes (structural update: page X → callback to B).
    let t = a.begin().unwrap();
    a.remove(t, obj).unwrap();
    a.commit(t).unwrap();

    let t = b.begin().unwrap();
    match b.read(t, obj) {
        Err(FglError::ObjectNotFound(o)) => assert_eq!(o, obj),
        other => panic!("expected ObjectNotFound, got {other:?}"),
    }
    b.commit(t).unwrap();
}

#[test]
fn resize_across_clients_preserves_contents() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let obj = a.insert(t, page, b"12345678").unwrap();
    a.commit(t).unwrap();

    let t = b.begin().unwrap();
    b.resize(t, obj, 4).unwrap();
    b.commit(t).unwrap();

    let t = a.begin().unwrap();
    assert_eq!(a.read(t, obj).unwrap(), b"1234");
    a.commit(t).unwrap();
}

#[test]
fn deadlock_is_broken_and_both_clients_proceed() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let o1 = a.insert(t, page, b"one!").unwrap();
    let o2 = a.insert(t, page, b"two!").unwrap();
    a.commit(t).unwrap();

    // Build the classic cross wait: a holds o1, b holds o2, then each
    // requests the other. One must die, the other must finish.
    let barrier = std::sync::Barrier::new(2);
    let outcome = std::thread::scope(|s| {
        let ta = s.spawn(|| {
            let t = a.begin().unwrap();
            a.write(t, o1, b"a-1!").unwrap();
            barrier.wait();
            match a.write(t, o2, b"a-2!") {
                Ok(()) => a.commit(t).map(|_| true),
                Err(e) if e.is_transaction_abort() => Ok(false),
                Err(e) => Err(e),
            }
        });
        let tb = s.spawn(|| {
            let t = b.begin().unwrap();
            b.write(t, o2, b"b-2!").unwrap();
            barrier.wait();
            match b.write(t, o1, b"b-1!") {
                Ok(()) => b.commit(t).map(|_| true),
                Err(e) if e.is_transaction_abort() => Ok(false),
                Err(e) => Err(e),
            }
        });
        (ta.join().unwrap().unwrap(), tb.join().unwrap().unwrap())
    });
    assert!(
        outcome.0 || outcome.1,
        "at least one transaction must survive the deadlock"
    );
    // Both objects remain readable and consistent afterwards.
    let t = a.begin().unwrap();
    let v1 = a.read(t, o1).unwrap();
    let v2 = a.read(t, o2).unwrap();
    a.commit(t).unwrap();
    assert_eq!(v1.len(), 4);
    assert_eq!(v2.len(), 4);
}

#[test]
fn small_cache_forces_replacements_and_stays_correct() {
    let cfg = SystemConfig {
        client_cache_pages: 4,
        ..Default::default()
    };
    let sys = System::build(cfg, 2).unwrap();
    let s = spec(WorkloadKind::HotCold);
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 48).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let report = run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(s, 20)).unwrap();
    assert!(report.commits > 0);
    // Replacements actually happened.
    let shipped: u64 = sys.clients.iter().map(|c| c.stats().pages_shipped).sum();
    assert!(shipped > 0, "tiny cache must ship replaced pages");
    assert!(oracle.verify_via_reads(sys.client(0)).unwrap().is_clean());
}

#[test]
fn message_counters_reflect_traffic() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let obj = a.insert(t, page, b"x").unwrap();
    a.commit(t).unwrap();
    let before = sys.net.snapshot();
    let t = b.begin().unwrap();
    b.read(t, obj).unwrap();
    b.commit(t).unwrap();
    let d = sys.net.snapshot().delta_since(&before);
    assert!(d.count(fgl::MsgKind::LockReq) >= 1);
    assert!(
        d.count(fgl::MsgKind::Callback) >= 1,
        "S read must call back a's X lock"
    );
    // The page rides on the grant: one lock reply carrying it, no fetch.
    assert_eq!(d.count(fgl::MsgKind::LockReply), 1);
    let page_size = SystemConfig::default().page_size as u64;
    assert_eq!(d.bytes[fgl::MsgKind::LockReply as usize], 24 + page_size);
    assert_eq!(d.count(fgl::MsgKind::FetchPage), 0);
}

/// A global lock costs one round trip: the grant carries the page, for a
/// page the client does not cache and for a stale cached copy alike, and
/// the read sees the updates the callback released. Over UDS the real
/// frames are counted.
#[test]
fn a_global_grant_is_one_round_trip() {
    use fgl::{MsgKind, TransportKind};
    for transport in [TransportKind::Sim, TransportKind::Uds] {
        let sys = System::build(SystemConfig::default().with_transport(transport), 2).unwrap();
        let (a, b) = (sys.client(0), sys.client(1));
        let t = a.begin().unwrap();
        let page = a.create_page(t).unwrap();
        let o1 = a.insert(t, page, b"one-one-").unwrap();
        let o2 = a.insert(t, page, b"two-two-").unwrap();
        a.commit(t).unwrap();
        let fetches = || {
            let wire = sys
                .wire_snapshot()
                .map_or(0, |w| w.count(MsgKind::FetchPage));
            sys.net.snapshot().count(MsgKind::FetchPage) + wire
        };

        // Absent: b has never seen the page.
        assert!(b.cached_page(page).is_none());
        let t = b.begin().unwrap();
        assert_eq!(b.read(t, o1).unwrap(), b"one-one-");
        b.commit(t).unwrap();
        assert_eq!(fetches(), 0, "{transport:?}: absent page");

        // Stale: a changes o2 under its retained lock; b's cached copy
        // still holds the old o2.
        let t = a.begin().unwrap();
        a.write(t, o2, b"A-wrote-").unwrap();
        a.commit(t).unwrap();
        assert_eq!(
            b.cached_page(page).unwrap().read_object(o2.slot).unwrap(),
            b"two-two-"
        );
        let t = b.begin().unwrap();
        assert_eq!(b.read(t, o2).unwrap(), b"A-wrote-");
        b.commit(t).unwrap();
        assert_eq!(fetches(), 0, "{transport:?}: stale cached page");
        assert!(b.stats().global_lock_requests >= 2);
    }
}

#[test]
fn zipf_workload_matches_oracle() {
    let sys = System::build(SystemConfig::default(), 3).unwrap();
    let mut s = spec(WorkloadKind::Zipf);
    s.zipf_theta = 0.9;
    let layout = populate(sys.client(0), s.pages, s.objects_per_page, 48).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let report = run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(s, 20)).unwrap();
    assert!(report.commits > 0);
    let v = oracle.verify_via_reads(sys.client(2)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

// ---- the operation loop is the general path ------------------------------------
//
// `ClientCore::{read, write, …}` run as one loop that finishes locally when
// it can and otherwise leaves the state mutex for one general step. These
// pin the steps that leave it.

/// Spin (yielding) until `cond` holds; a bound turns a hang into a message.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn write_behind_a_deferred_callback_blocks_until_it_completes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let o = a.insert(t, page, b"zero").unwrap();
    a.commit(t).unwrap();

    // T1 at A uses the object exclusively.
    let t1 = a.begin().unwrap();
    a.write(t1, o, b"t1__").unwrap();

    let replies = || sys.net.snapshot().count(fgl::MsgKind::CallbackReply);
    let replies_before = replies();
    let b_committed = AtomicBool::new(false);
    let t3_wrote = AtomicBool::new(false);
    let (t3_started, t3_start) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        // B's read calls A's lock back mid-transaction: the callback must
        // defer (strict 2PL), so the read waits for T1.
        let reader = s.spawn(|| {
            let t2 = b.begin().unwrap();
            let seen = b.read(t2, o).unwrap();
            // Set before B's lock is released: whoever is granted the
            // object after B observes the flag.
            b.commit_with(t2, || b_committed.store(true, Ordering::SeqCst))
                .unwrap();
            seen
        });
        wait_until("A's deferral notice", || replies() > replies_before);

        // A second transaction at A now wants the same object. The
        // deferred callback covers it, so the write must wait — for the
        // callback to complete (T1's end) and then, the lock being gone,
        // in the server's queue behind B.
        let writer = s.spawn(|| {
            let t3 = a.begin().unwrap();
            t3_started.send(()).unwrap();
            a.write(t3, o, b"t3__").unwrap();
            t3_wrote.store(true, Ordering::SeqCst);
            assert!(
                b_committed.load(Ordering::SeqCst),
                "T3 wrote before the reader it was queued behind committed"
            );
            a.commit(t3).unwrap();
        });
        t3_start.recv().unwrap();
        // Give T3 every chance to run ahead; with T1 open it cannot.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !t3_wrote.load(Ordering::SeqCst),
            "write slipped past a deferred callback"
        );
        assert!(
            !b_committed.load(Ordering::SeqCst),
            "callback on an in-use lock did not defer"
        );
        // The blocker itself is exempt: T1 keeps using its object.
        a.write(t1, o, b"t1_2").unwrap();
        a.commit(t1).unwrap();

        assert_eq!(reader.join().unwrap(), b"t1_2");
        writer.join().unwrap();
    });
    let t = b.begin().unwrap();
    assert_eq!(b.read(t, o).unwrap(), b"t3__");
    b.commit(t).unwrap();
}

#[test]
fn stale_cached_page_is_refetched_before_the_update_applies() {
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let o1 = a.insert(t, page, b"one-one-").unwrap();
    let o2 = a.insert(t, page, b"two-two-").unwrap();
    a.commit(t).unwrap();

    // B takes o2 and changes it; A's cached copy of the page is now
    // stale for o2 but still fresh (and dirty) for o1.
    let t = b.begin().unwrap();
    b.write(t, o2, b"B-wrote-").unwrap();
    b.commit(t).unwrap();
    let t = a.begin().unwrap();
    a.write(t, o1, b"A-wrote-").unwrap();
    a.commit(t).unwrap();
    assert_eq!(
        a.cached_page(page).unwrap().read_object(o2.slot).unwrap(),
        b"two-two-",
        "precondition: A still caches the old o2"
    );

    // A's partial overwrite of o2 builds its after-image from the page:
    // applied to the stale copy it would resurrect "two-two-".
    let t = a.begin().unwrap();
    a.write_at(t, o2, 0, b"A").unwrap();
    assert_eq!(a.read(t, o2).unwrap(), b"A-wrote-");
    assert_eq!(
        a.read(t, o1).unwrap(),
        b"A-wrote-",
        "own update survives the merge"
    );
    a.commit(t).unwrap();

    let t = b.begin().unwrap();
    assert_eq!(b.read(t, o2).unwrap(), b"A-wrote-");
    assert_eq!(b.read(t, o1).unwrap(), b"A-wrote-");
    b.commit(t).unwrap();
}

#[test]
fn log_full_inside_a_write_reclaims_and_the_write_succeeds() {
    let cfg = SystemConfig {
        client_log_bytes: 64 << 10,
        client_checkpoint_every: u64::MAX / 2,
        ..Default::default()
    };
    let sys = System::build(cfg, 1).unwrap();
    let c = sys.client(0);
    let t = c.begin().unwrap();
    let page = c.create_page(t).unwrap();
    let objs: Vec<_> = (0..8)
        .map(|_| c.insert(t, page, &[0u8; 64]).unwrap())
        .collect();
    c.commit(t).unwrap();

    // Three transactions of ~22 KiB of log each against 56 KiB of usable
    // space: the first two leave more than the proactive-reclamation
    // threshold free, so the third runs out *inside* a write and must
    // reclaim (§3.6) while it stays active.
    let value = |round: usize, i: usize| [(round * 120 + i) as u8; 64];
    for round in 0..3 {
        let t = c.begin().unwrap();
        for i in 0..120 {
            c.write(t, objs[i % 8], &value(round, i)).unwrap();
        }
        c.commit(t).unwrap();
    }
    let s = c.stats();
    assert!(s.log_stall_events >= 1, "no write ever saw LogFull: {s:?}");
    assert!(s.forced_flush_requests >= 1, "{s:?}");
    let t = c.begin().unwrap();
    for (i, o) in objs.iter().enumerate() {
        // The last write to objs[i] in round 2 was iteration 112 + i.
        assert_eq!(c.read(t, *o).unwrap(), value(2, 112 + i));
    }
    c.commit(t).unwrap();
}

/// One seeded stream of 10 000 operations over two clients (one
/// transaction at a time, so the schedule is the seed's alone): cached
/// locks, global locks with callbacks, refetches, evictions from an
/// 8-page cache, partial overwrites, inserts and removes, aborts and
/// automatic checkpoints. The constants were recorded from this test at
/// the commit before the operation loop, the fixed hasher and the
/// reusable log buffer went in: same log bytes per kind, same DPT down to
/// the LSNs, same lock traffic, same page images. Re-pinned once since:
/// a checkpoint tripped by a commit record no longer lists the committing
/// transaction (fatal path 4), which leaves each such checkpoint 16 bytes
/// shorter (client 0: 3, client 1: 2 of them) and changes nothing else.
#[test]
fn seeded_stream_leaves_the_recorded_log_dpt_locks_and_pages() {
    use fgl_common::rng::DetRng;

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    let cfg = SystemConfig {
        client_cache_pages: 8,
        client_checkpoint_every: 500,
        ..Default::default()
    };
    let sys = System::build(cfg, 2).unwrap();
    let c0 = sys.client(0);
    let mut oids = Vec::new();
    for _ in 0..24 {
        let t = c0.begin().unwrap();
        let p = c0.create_page(t).unwrap();
        for _ in 0..16 {
            oids.push(c0.insert(t, p, &[0u8; 32]).unwrap());
        }
        c0.commit(t).unwrap();
    }
    let mut rng = DetRng::new(0x5eed);
    let mut ops = 0;
    while ops < 10_000 {
        let who = rng.gen_range(2) as usize;
        let c = sys.client(who);
        let t = c.begin().unwrap();
        for _ in 0..8 {
            // Three accesses in four stay in the client's own half.
            let half = oids.len() / 2;
            let i = if rng.gen_range(4) < 3 {
                who * half + rng.range_usize(0, half)
            } else {
                rng.range_usize(0, oids.len())
            };
            let oid = oids[i];
            match rng.gen_range(10) {
                0..=4 => {
                    c.read(t, oid).unwrap();
                }
                5..=8 => {
                    let mut v = [0u8; 32];
                    rng.fill_bytes(&mut v);
                    c.write(t, oid, &v).unwrap();
                }
                _ => {
                    let mut v = [0u8; 8];
                    rng.fill_bytes(&mut v);
                    c.write_at(t, oid, rng.range_usize(0, 24), &v).unwrap();
                }
            }
            ops += 1;
        }
        if rng.gen_range(40) == 0 {
            let on = oids[rng.range_usize(0, oids.len())].page;
            let o = c.insert(t, on, b"sixteen bytes!!!").unwrap();
            c.remove(t, o).unwrap();
        }
        if rng.gen_range(16) == 0 {
            c.abort(t).unwrap();
        } else {
            c.commit(t).unwrap();
        }
    }

    type Recorded = (u64, u64, u64, [(&'static str, u64); 7], u64, u64);
    let recorded: [Recorded; 2] = [
        (
            3616,
            1496,
            1413,
            [
                ("begin", 10404),
                ("update", 315446),
                ("clr", 15312),
                ("commit", 14275),
                ("abort", 1025),
                ("callback", 15934),
                ("client_ckpt", 3705),
            ],
            0x7d2b_416d_4260_4a86,
            0xe858_ebc8_055d_b04b,
        ),
        (
            3831,
            1497,
            1608,
            [
                ("begin", 11254),
                ("update", 312570),
                ("clr", 14116),
                ("commit", 15575),
                ("abort", 975),
                ("callback", 15500),
                ("client_ckpt", 3689),
            ],
            0x2b49_e730_9055_09b3,
            0x638e_1547_3f7a_3c23,
        ),
    ];
    for (i, (local_grants, global, shipped, wal, dpt_hash, pages_hash)) in
        recorded.into_iter().enumerate()
    {
        let c = sys.client(i);
        let s = c.stats();
        assert_eq!(s.local_grants, local_grants, "client {i} local grants");
        assert_eq!(s.global_lock_requests, global, "client {i} global requests");
        assert_eq!(s.pages_shipped, shipped, "client {i} pages shipped");
        assert_eq!(c.wal_bytes_by_kind(), wal, "client {i} log bytes by kind");
        let dpt = c.dpt_snapshot();
        assert_eq!(dpt.len(), 24, "client {i} DPT size");
        let mut h = FNV_BASIS;
        for (p, l) in &dpt {
            fnv(&mut h, &p.0.to_le_bytes());
            fnv(&mut h, &l.0.to_le_bytes());
        }
        assert_eq!(h, dpt_hash, "client {i} DPT (pages and RedoLSNs)");
        let mut h = FNV_BASIS;
        let mut cached = 0;
        for o in oids.iter().step_by(16) {
            if let Some(p) = c.cached_page(o.page) {
                cached += 1;
                fnv(&mut h, p.as_bytes());
            }
        }
        assert_eq!(cached, 8, "client {i} cached pages");
        assert_eq!(h, pages_hash, "client {i} cached page images");
    }
    let mut h = FNV_BASIS;
    let t = c0.begin().unwrap();
    for o in &oids {
        fnv(&mut h, &c0.read(t, *o).unwrap());
    }
    c0.commit(t).unwrap();
    assert_eq!(h, 0xecab_d512_0b61_6930, "every object, read back");
}
