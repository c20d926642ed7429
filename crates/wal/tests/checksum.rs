//! The frame checksum keeps its job: whatever damages one record's frame —
//! a flipped bit, a cut, a zeroed tail — `read_at` rejects that record and
//! a scan ends exactly in front of it (restart stops at the first torn
//! record).

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SlotId, TxnId};
use fgl_wal::manager::LogManager;
use fgl_wal::records::{DptEntry, LogPayload, UpdateRecord};
use fgl_wal::store::{LogStore, MemLogStore};

const CAPACITY: u64 = 64 * 1024;

fn txn() -> TxnId {
    TxnId::compose(ClientId(1), 7)
}

fn victims() -> Vec<LogPayload> {
    vec![
        LogPayload::Update(UpdateRecord {
            txn: txn(),
            prev_lsn: Lsn(17),
            object: ObjectId::new(PageId(5), SlotId(3)),
            psn_before: Psn(9),
            before: Some(vec![0xAA; 64]),
            after: Some(vec![0x55; 64]),
            structural: false,
        }),
        LogPayload::Commit {
            txn: txn(),
            prev_lsn: Lsn(17),
        },
        LogPayload::ClientCheckpoint {
            active_txns: vec![(txn(), Lsn(17))],
            dpt: vec![
                DptEntry {
                    page: PageId(5),
                    redo_lsn: Lsn(1),
                },
                DptEntry {
                    page: PageId(6),
                    redo_lsn: Lsn(17),
                },
            ],
        },
    ]
}

/// Raw bytes of `[begin][victim][begin]` and the victim's frame range.
fn log_around(victim: &LogPayload) -> (Vec<u8>, std::ops::Range<usize>) {
    let mut m = LogManager::new(Box::new(MemLogStore::new()), CAPACITY);
    m.append(&LogPayload::Begin { txn: txn() }).unwrap();
    let at = m.append(victim).unwrap();
    let next = m.append(&LogPayload::Begin { txn: txn() }).unwrap();
    let raw = m.read_raw(Lsn::NIL, m.end_lsn()).unwrap();
    (raw, (at.0 - 1) as usize..(next.0 - 1) as usize)
}

fn reopen(raw: &[u8]) -> LogManager {
    let mut store = MemLogStore::new();
    store.append(raw).unwrap();
    store.sync().unwrap();
    LogManager::recover(Box::new(store), CAPACITY).unwrap()
}

/// The damaged log yields the one record in front of the victim, and the
/// victim itself does not read.
fn assert_stops_at(raw: &[u8], victim_at: usize, what: &str) {
    let m = reopen(raw);
    let got = m.collect_from(Lsn::NIL);
    assert_eq!(got.len(), 1, "{what}: scan went past the damage: {got:?}");
    assert_eq!(got[0].next, Lsn(victim_at as u64 + 1), "{what}");
    assert!(m.read_at(Lsn(victim_at as u64 + 1)).is_err(), "{what}");
}

#[test]
fn undamaged_log_reads_whole() {
    for v in victims() {
        let (raw, at) = log_around(&v);
        let m = reopen(&raw);
        let got = m.collect_from(Lsn::NIL);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].payload, v);
        assert_eq!(m.read_at(Lsn(at.start as u64 + 1)).unwrap().payload, v);
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    for v in victims() {
        let (raw, at) = log_around(&v);
        for byte in at.clone() {
            for bit in 0..8 {
                let mut damaged = raw.clone();
                damaged[byte] ^= 1 << bit;
                let what = format!("{} byte {} bit {bit}", v.kind_name(), byte - at.start);
                assert_stops_at(&damaged, at.start, &what);
            }
        }
    }
}

#[test]
fn every_truncation_point_is_rejected() {
    for v in victims() {
        let (raw, at) = log_around(&v);
        for keep in at.clone() {
            let what = format!("{} cut after {} bytes", v.kind_name(), keep - at.start);
            assert_stops_at(&raw[..keep], at.start, &what);
        }
    }
}

#[test]
fn zero_filled_tail_is_rejected() {
    for v in victims() {
        let (mut raw, at) = log_around(&v);
        // The device zeroed everything from some point of the victim on
        // (and, separately, the victim's whole frame and what follows).
        for from in [at.start, at.start + 4, at.start + 8, at.end - 1] {
            raw[from..].fill(0);
            let what = format!("{} zeroed from byte {}", v.kind_name(), from - at.start);
            assert_stops_at(&raw, at.start, &what);
        }
    }
}
