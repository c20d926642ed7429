//! Workspace-level observability tests: the capture sink observes the
//! exact event sequence of a lock-conflict exchange, and a deadlock
//! victim leaves a flight-recorder dump containing its lock request and
//! abort in order.
//!
//! Events, sinks and the flight recorder are process-global, so these
//! tests serialize on one mutex and filter captured events down to the
//! pages and clients of their own `System`.

use fgl::{CaptureSink, Event, System, SystemConfig, TxnId};
use std::sync::{Barrier, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn capture_sink_sees_conflict_callback_grant_sequence() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (alice, bob) = (sys.client(0), sys.client(1));
    let t = alice.begin().unwrap();
    let page = alice.create_page(t).unwrap();
    let obj = alice.insert(t, page, b"data").unwrap();
    alice.commit(t).unwrap();

    // Alice retains cached locks on the page, so bob's write conflicts
    // at the GLM and a callback must run before the grant.
    let (sink, guard) = CaptureSink::install();
    let t = bob.begin().unwrap();
    bob.write(t, obj, b"bob!").unwrap();
    bob.commit(t).unwrap();
    drop(guard);

    let (alice_id, bob_id) = (alice.id(), bob.id());
    let kinds: Vec<&'static str> = sink
        .events()
        .into_iter()
        .filter(|s| match s.event {
            Event::LockRequest {
                client, page: p, ..
            }
            | Event::LockQueue {
                client, page: p, ..
            }
            | Event::LockGrant {
                client, page: p, ..
            } => client == bob_id && p == page,
            Event::CallbackIssued { to, page: p, .. } => to == alice_id && p == page,
            Event::CallbackCompleted { from, page: p } => from == alice_id && p == page,
            _ => false,
        })
        .map(|s| s.event.kind())
        .collect();
    assert_eq!(
        kinds,
        vec![
            "lock-request",
            "lock-queue",
            "callback-issued",
            "callback-completed",
            "lock-grant",
        ],
        "one conflicted lock exchange must produce exactly this sequence"
    );
}

#[test]
fn deadlock_victim_leaves_ordered_flight_recorder_dump() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sys = System::build(SystemConfig::default(), 2).unwrap();
    let (a, b) = (sys.client(0), sys.client(1));
    let t = a.begin().unwrap();
    let page = a.create_page(t).unwrap();
    let o1 = a.insert(t, page, b"one!").unwrap();
    let o2 = a.insert(t, page, b"two!").unwrap();
    a.commit(t).unwrap();

    // Classic cross wait: a holds o1, b holds o2, each requests the
    // other. The waits-for graph kills one.
    let barrier = Barrier::new(2);
    let (ra, rb) = std::thread::scope(|s| {
        let ta = s.spawn(|| -> (TxnId, bool) {
            let t = a.begin().unwrap();
            a.write(t, o1, b"a-1!").unwrap();
            barrier.wait();
            match a.write(t, o2, b"a-2!") {
                Ok(()) => (t, a.commit(t).is_ok()),
                Err(_) => (t, false),
            }
        });
        let tb = s.spawn(|| -> (TxnId, bool) {
            let t = b.begin().unwrap();
            b.write(t, o2, b"b-2!").unwrap();
            barrier.wait();
            match b.write(t, o1, b"b-1!") {
                Ok(()) => (t, b.commit(t).is_ok()),
                Err(_) => (t, false),
            }
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert!(ra.1 || rb.1, "at least one transaction must survive");
    assert!(
        !(ra.1 && rb.1),
        "the cross wait must have produced a victim"
    );
    let victim: TxnId = if ra.1 { rb.0 } else { ra.0 };

    let (reason, events) = fgl_obs::last_dump().expect("deadlock abort must dump the recorder");
    assert_eq!(reason, "deadlock-victim");
    assert!(!events.is_empty(), "dump must not be empty");
    let req_seq = events
        .iter()
        .find(|s| matches!(s.event, Event::LockRequest { txn, .. } if txn == victim))
        .map(|s| s.seq)
        .expect("victim's lock request must be in the dump");
    let abort_seq = events
        .iter()
        .find(|s| matches!(s.event, Event::TxnAbort { txn, .. } if txn == victim))
        .map(|s| s.seq)
        .expect("victim's abort must be in the dump");
    assert!(
        req_seq < abort_seq,
        "lock request (seq {req_seq}) must precede the abort (seq {abort_seq})"
    );
    // The dump is totally ordered by the global sequence stamp.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

#[test]
fn capture_sink_installed_after_events_sees_every_later_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let victim = |n: u64| Event::DeadlockVictim {
        txn: TxnId(0xB0B_0000 + n),
    };
    // With no sink installed, `emit` skips the sink list entirely.
    for n in 0..100 {
        fgl_obs::emit(victim(n));
    }
    let (sink, guard) = CaptureSink::install();
    for n in 100..150 {
        fgl_obs::emit(victim(n));
    }
    std::thread::spawn(move || {
        for n in 150..200 {
            fgl_obs::emit(victim(n));
        }
    })
    .join()
    .unwrap();
    drop(guard);
    fgl_obs::emit(victim(200));
    let seen: Vec<u64> = sink
        .events()
        .into_iter()
        .filter_map(|s| match s.event {
            Event::DeadlockVictim { txn } if txn.0 >> 16 == 0xB0B => Some(txn.0 - 0xB0B_0000),
            _ => None,
        })
        .collect();
    assert_eq!(seen, (100..200).collect::<Vec<u64>>());
}
