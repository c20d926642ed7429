//! Micro-benchmarks for the hot paths behind the experiments: page codec
//! and mutation, the §2 merge procedure, lock-manager throughput, WAL
//! append, and the end-to-end single-client transaction path.
//!
//! Plain timing harness (`harness = false`): the build environment has no
//! crates.io access, so this measures with `std::time::Instant` directly —
//! a warmup pass followed by a timed pass, reporting ns/op.

use fgl::{System, SystemConfig};
use fgl_common::{ClientId, ObjectId, PageId, Psn, SlotId, TxnId};
use fgl_locks::glm::GlmCore;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_storage::merge::merge_pages;
use fgl_storage::page::Page;
use fgl_wal::manager::LogManager;
use fgl_wal::records::{LogPayload, UpdateRecord};
use fgl_wal::store::MemLogStore;
use std::hint::black_box;
use std::time::Instant;

/// Run `f` for `iters` iterations (after `iters/10` warmup) and report.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let per_op = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<40} {per_op:>12.1} ns/op   ({iters} iters)");
}

fn bench_page_ops() {
    bench("page/insert_16x64B", 20_000, || {
        let mut p = Page::format(4096, PageId(1), Psn::ZERO);
        for _ in 0..16 {
            p.insert_object(&[7u8; 64]).unwrap();
        }
        black_box(&p);
    });

    let mut filled = Page::format(4096, PageId(1), Psn::ZERO);
    let slots: Vec<SlotId> = (0..16)
        .map(|_| filled.insert_object(&[1u8; 64]).unwrap())
        .collect();
    let mut i = 0usize;
    bench("page/overwrite_64B", 200_000, || {
        let s = slots[i % slots.len()];
        i += 1;
        filled.write_object(s, &[i as u8; 64]).unwrap();
    });
    let mut i = 0usize;
    bench("page/read_64B", 200_000, || {
        let s = slots[i % slots.len()];
        i += 1;
        black_box(filled.read_object(s).unwrap());
    });
    bench("page/codec_roundtrip_4K", 50_000, || {
        let bytes = filled.as_bytes().to_vec();
        black_box(Page::from_bytes(bytes).unwrap());
    });
}

fn bench_merge() {
    let mut base = Page::format(4096, PageId(9), Psn::ZERO);
    let slots: Vec<SlotId> = (0..16)
        .map(|_| base.insert_object(&[0u8; 64]).unwrap())
        .collect();
    let mut a = base.clone();
    let mut b2 = base.clone();
    for (i, s) in slots.iter().enumerate() {
        if i % 2 == 0 {
            a.write_object(*s, &[1u8; 64]).unwrap();
        } else {
            b2.write_object(*s, &[2u8; 64]).unwrap();
        }
    }
    bench("merge/disjoint_16x64B", 50_000, || {
        black_box(merge_pages(&a, &b2).unwrap());
    });
}

fn bench_glm() {
    bench("glm/uncontended_object_lock_x64", 10_000, || {
        let mut glm = GlmCore::new();
        for i in 0..64u16 {
            let o = ObjectId::new(PageId((i / 16) as u64), SlotId(i % 16));
            glm.lock(
                ClientId(1),
                TxnId::compose(ClientId(1), 1),
                LockTarget::Object(o, ObjMode::X),
            );
        }
        black_box(&glm);
    });
    bench("glm/shared_lock_three_clients", 50_000, || {
        let mut glm = GlmCore::new();
        let o = ObjectId::new(PageId(1), SlotId(0));
        for cid in 1..=3u32 {
            glm.lock(
                ClientId(cid),
                TxnId::compose(ClientId(cid), 1),
                LockTarget::Object(o, ObjMode::S),
            );
        }
        black_box(&glm);
    });
}

fn bench_wal() {
    let record = LogPayload::Update(UpdateRecord {
        txn: TxnId::compose(ClientId(1), 1),
        prev_lsn: fgl::Lsn::NIL,
        object: ObjectId::new(PageId(1), SlotId(0)),
        psn_before: Psn(3),
        before: Some(vec![0u8; 64]),
        after: Some(vec![1u8; 64]),
        structural: false,
    });
    bench("wal/append_128x64B_update", 2_000, || {
        let mut wal = LogManager::new(Box::new(MemLogStore::new()), 64 << 20);
        for _ in 0..128 {
            wal.append(&record).unwrap();
        }
        black_box(&wal);
    });
    bench("wal/encode_decode_update", 200_000, || {
        let bytes = record.encode();
        black_box(LogPayload::decode(&bytes).unwrap());
    });
}

fn bench_end_to_end() {
    let sys = System::build(SystemConfig::default(), 1).unwrap();
    let cl = sys.client(0).clone();
    let t = cl.begin().unwrap();
    let page = cl.create_page(t).unwrap();
    let obj = cl.insert(t, page, &[0u8; 64]).unwrap();
    cl.commit(t).unwrap();
    let mut i = 0u8;
    bench("txn/single_client_write_commit", 3_000, || {
        i = i.wrapping_add(1);
        let t = cl.begin().unwrap();
        cl.write(t, obj, &[i; 64]).unwrap();
        cl.commit(t).unwrap();
    });
    bench("txn/single_client_read_commit", 3_000, || {
        let t = cl.begin().unwrap();
        black_box(cl.read(t, obj).unwrap());
        cl.commit(t).unwrap();
    });
}

fn main() {
    println!("fgl micro-benchmarks (ns/op, lower is better)");
    println!("---------------------------------------------");
    bench_page_ops();
    bench_merge();
    bench_glm();
    bench_wal();
    bench_end_to_end();
}
