//! Randomized tests for the WAL: arbitrary record sequences round-trip
//! through append/scan, crashes preserve exactly the forced prefix, and
//! random read positions recover the right records. Sequences come from
//! the in-tree deterministic PRNG so each case replays from its seed.

use fgl_common::rng::DetRng;
use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SlotId, TxnId};
use fgl_wal::manager::LogManager;
use fgl_wal::records::{CallbackRecord, ClrRecord, LogPayload, UpdateRecord};
use fgl_wal::store::MemLogStore;

fn random_bytes(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<u8> {
    let mut buf = vec![0u8; rng.range_usize(lo, hi)];
    rng.fill_bytes(&mut buf);
    buf
}

fn random_payload(rng: &mut DetRng) -> LogPayload {
    let txn = TxnId::compose(
        ClientId(1 + rng.gen_range(3) as u32),
        1 + rng.gen_range(49) as u32,
    );
    let obj = ObjectId::new(PageId(rng.gen_range(16)), SlotId(rng.gen_range(8) as u16));
    match rng.gen_range(5) {
        0 => LogPayload::Begin { txn },
        1 => LogPayload::Update(UpdateRecord {
            txn,
            prev_lsn: Lsn::NIL,
            object: obj,
            psn_before: Psn(rng.next_u64()),
            before: if rng.chance(0.5) {
                Some(random_bytes(rng, 0, 64))
            } else {
                None
            },
            after: if rng.chance(0.5) {
                Some(random_bytes(rng, 0, 64))
            } else {
                None
            },
            structural: rng.chance(0.5),
        }),
        2 => LogPayload::Clr(ClrRecord {
            txn,
            prev_lsn: Lsn(1),
            undo_next: Lsn::NIL,
            object: obj,
            psn_before: Psn(rng.next_u64()),
            after: if rng.chance(0.5) {
                Some(random_bytes(rng, 0, 32))
            } else {
                None
            },
        }),
        3 => LogPayload::Commit {
            txn,
            prev_lsn: Lsn(rng.next_u64()),
        },
        _ => LogPayload::Callback(CallbackRecord {
            object: obj,
            from_client: ClientId(1 + rng.gen_range(3) as u32),
            psn: Psn(rng.next_u64()),
        }),
    }
}

fn random_payloads(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<LogPayload> {
    let len = rng.range_usize(lo, hi);
    (0..len).map(|_| random_payload(rng)).collect()
}

/// Everything appended scans back identically, in order, with consistent
/// next-pointers.
#[test]
fn append_scan_roundtrip() {
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x0A1_0001 ^ case);
        let payloads = random_payloads(&mut rng, 1, 80);
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 16 << 20);
        let mut lsns = Vec::new();
        for p in &payloads {
            lsns.push(wal.append(p).unwrap());
        }
        let got = wal.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), payloads.len());
        for (i, entry) in got.iter().enumerate() {
            assert_eq!(entry.lsn, lsns[i]);
            assert_eq!(&entry.payload, &payloads[i]);
        }
        for w in got.windows(2) {
            assert_eq!(w[0].next, w[1].lsn);
        }
    }
}

/// After a crash, exactly the records appended before the last force
/// survive — never more, never fewer.
#[test]
fn crash_keeps_exactly_forced_prefix() {
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x0A1_0002 ^ (case << 8));
        let payloads = random_payloads(&mut rng, 2, 60);
        let cut = rng.range_usize(0, payloads.len());
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 16 << 20);
        for (i, p) in payloads.iter().enumerate() {
            wal.append(p).unwrap();
            if i == cut {
                wal.force().unwrap();
            }
        }
        wal.crash();
        let got = wal.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), cut + 1, "case {case}");
        for (i, entry) in got.iter().enumerate() {
            assert_eq!(&entry.payload, &payloads[i]);
        }
    }
}

/// Random-access reads agree with the sequential scan.
#[test]
fn random_access_consistent() {
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x0A1_0003 ^ (case << 16));
        let payloads = random_payloads(&mut rng, 1, 40);
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 16 << 20);
        let lsns: Vec<Lsn> = payloads.iter().map(|p| wal.append(p).unwrap()).collect();
        for _ in 0..rng.range_usize(1, 10) {
            let i = rng.range_usize(0, lsns.len());
            let entry = wal.read_at(lsns[i]).unwrap();
            assert_eq!(&entry.payload, &payloads[i]);
        }
    }
}

/// Low-water advancement never loses reachable records above it.
#[test]
fn low_water_preserves_suffix() {
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x0A1_0004 ^ (case << 24));
        let payloads = random_payloads(&mut rng, 2, 40);
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 16 << 20);
        let lsns: Vec<Lsn> = payloads.iter().map(|p| wal.append(p).unwrap()).collect();
        let i = rng.range_usize(0, lsns.len());
        wal.advance_low_water(lsns[i]).unwrap();
        let got = wal.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), payloads.len() - i);
        for (k, entry) in got.iter().enumerate() {
            assert_eq!(&entry.payload, &payloads[i + k]);
        }
    }
}

#[test]
fn torn_tail_record_is_ignored_on_reopen() {
    // A crash can tear the final record; the checksum stops the scan
    // exactly at the last intact record.
    use fgl_wal::store::{LogStore, MemLogStore};
    let mut wal = LogManager::new(Box::new(MemLogStore::new()), 1 << 20);
    let a = LogPayload::Begin {
        txn: TxnId::compose(ClientId(1), 1),
    };
    let b = LogPayload::Commit {
        txn: TxnId::compose(ClientId(1), 1),
        prev_lsn: Lsn(1),
    };
    wal.append(&a).unwrap();
    wal.append(&b).unwrap();
    wal.force().unwrap();
    // Rebuild a store containing the full bytes of record A but only a
    // torn prefix of record B.
    let bytes = wal.read_raw(Lsn::NIL, wal.end_lsn()).unwrap();
    let a_len = {
        let first = wal.collect_from(Lsn::NIL).unwrap()[0].clone();
        (first.next.0 - first.lsn.0) as usize
    };
    let mut torn = MemLogStore::new();
    torn.append(&bytes[..a_len + 5]).unwrap(); // 5 bytes of B's frame
    torn.sync().unwrap();
    let reopened = LogManager::recover(Box::new(torn), 1 << 20).unwrap();
    let got = reopened.collect_from(Lsn::NIL).unwrap();
    assert_eq!(got.len(), 1, "scan must stop at the torn record");
    assert_eq!(got[0].payload, a);
}

#[test]
fn flipped_byte_in_payload_stops_scan_at_corruption() {
    use fgl_wal::store::{LogStore, MemLogStore};
    let mut wal = LogManager::new(Box::new(MemLogStore::new()), 1 << 20);
    for i in 1..=3u32 {
        wal.append(&LogPayload::Begin {
            txn: TxnId::compose(ClientId(1), i),
        })
        .unwrap();
    }
    wal.force().unwrap();
    let entries = wal.collect_from(Lsn::NIL).unwrap();
    let bytes = wal.read_raw(Lsn::NIL, wal.end_lsn()).unwrap();
    // Corrupt a byte inside record #2's payload.
    let mut corrupted = bytes.clone();
    let off2 = (entries[1].lsn.0 - 1) as usize + 10;
    corrupted[off2] ^= 0xFF;
    let mut store = MemLogStore::new();
    store.append(&corrupted).unwrap();
    store.sync().unwrap();
    let reopened = LogManager::recover(Box::new(store), 1 << 20).unwrap();
    let got = reopened.collect_from(Lsn::NIL).unwrap();
    assert_eq!(got.len(), 1, "scan stops before the corrupted record");
    assert_eq!(got[0].payload, entries[0].payload);
}
