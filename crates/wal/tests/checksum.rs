//! The frame checksum keeps its job: whatever damages one record's frame —
//! a flipped bit, a cut, a zeroed tail — `read_at` rejects that record and
//! a scan ends exactly in front of it (restart stops at the first torn
//! record).

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SlotId, TxnId};
use fgl_wal::manager::LogManager;
use fgl_wal::records::{DptEntry, LogPayload, UpdateRecord};
use fgl_wal::store::{FileLogStore, LogStore, MemLogStore, SimLogStore};
use std::path::PathBuf;

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
    reopen_on(Box::new(MemLogStore::new()), raw)
}

/// A manager over `store` once it durably holds `raw`.
fn reopen_on(mut store: Box<dyn LogStore>, raw: &[u8]) -> LogManager {
    store.append(raw).unwrap();
    store.sync().unwrap();
    LogManager::recover(store, CAPACITY).unwrap()
}

/// The damaged log yields the one record in front of the victim, and the
/// victim itself does not read.
fn assert_stops_at(raw: &[u8], victim_at: usize, what: &str) {
    assert_stops_at_on(&reopen(raw), victim_at, what);
}

fn assert_stops_at_on(m: &LogManager, victim_at: usize, what: &str) {
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

/// An empty log file of its own, removed (with its master record) on drop.
struct TempLog(PathBuf);

impl TempLog {
    fn new(name: &str) -> TempLog {
        let dir = std::env::temp_dir().join(format!("fgl-wal-checksum-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = TempLog(dir.join(name));
        log.remove();
        log
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let mut master = self.0.clone().into_os_string();
        master.push(".master");
        let _ = std::fs::remove_file(master);
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        self.remove();
    }
}

/// Scans read each frame through `LogStore::read_into` into one reused
/// buffer: on every store — in memory, behind the latency wrapper, and in
/// a file (which reads through the trait's default `read_into`) — a torn
/// record and a checksum mismatch still end the scan in front of the
/// victim, and the undamaged log still reads whole.
#[test]
fn damage_ends_a_scan_on_every_store() {
    for v in victims() {
        let (raw, at) = log_around(&v);
        let mut flipped = raw.clone();
        flipped[at.end - 1] ^= 0x10;
        let torn = &raw[..at.end - 3];
        for (damage, bytes) in [
            ("torn", torn),
            ("checksum", &flipped[..]),
            ("none", &raw[..]),
        ] {
            let file = TempLog::new(&format!("{}-{damage}.wal", v.kind_name()));
            let stores: [(&str, Box<dyn LogStore>); 3] = [
                ("mem", Box::new(MemLogStore::new())),
                (
                    "sim",
                    Box::new(SimLogStore::new(
                        Box::new(MemLogStore::new()),
                        std::time::Duration::ZERO,
                    )),
                ),
                ("file", Box::new(FileLogStore::open(&file.0).unwrap())),
            ];
            for (store_name, store) in stores {
                let m = reopen_on(store, bytes);
                let what = format!("{} on {store_name}, damage {damage}", v.kind_name());
                if damage == "none" {
                    let got = m.collect_from(Lsn::NIL);
                    assert_eq!(got.len(), 3, "{what}");
                    assert_eq!(got[1].payload, v, "{what}");
                } else {
                    assert_stops_at_on(&m, at.start, &what);
                }
            }
        }
    }
}
