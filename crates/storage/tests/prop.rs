//! Randomized tests for the page format and the merge procedure, driven
//! by the in-tree deterministic PRNG so each case replays from its seed.

use fgl_common::rng::DetRng;
use fgl_common::{PageId, Psn, Result, SlotId};
use fgl_storage::merge::{merge_into, merge_pages};
use fgl_storage::page::Page;

/// A random page operation.
#[derive(Clone, Debug)]
enum PageOp {
    Insert(Vec<u8>),
    Overwrite(usize, Vec<u8>),
    Free(usize),
    Resize(usize, usize),
    Compact,
}

fn random_bytes(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<u8> {
    let mut buf = vec![0u8; rng.range_usize(lo, hi)];
    rng.fill_bytes(&mut buf);
    buf
}

fn random_op(rng: &mut DetRng) -> PageOp {
    match rng.gen_range(5) {
        0 => PageOp::Insert(random_bytes(rng, 1, 80)),
        1 => PageOp::Overwrite(rng.next_u64() as usize, random_bytes(rng, 1, 80)),
        2 => PageOp::Free(rng.next_u64() as usize),
        3 => PageOp::Resize(rng.next_u64() as usize, rng.range_usize(1, 80)),
        _ => PageOp::Compact,
    }
}

fn random_ops(rng: &mut DetRng, max_len: usize) -> Vec<PageOp> {
    let len = rng.range_usize(1, max_len);
    (0..len).map(|_| random_op(rng)).collect()
}

/// Reference model: slot -> bytes.
fn apply_model(model: &mut Vec<Option<Vec<u8>>>, page: &mut Page, op: &PageOp) {
    match op {
        PageOp::Insert(data) => {
            if page.insert_object(data).is_ok() {
                let slot = model.iter().position(|s| s.is_none());
                match slot {
                    Some(i) => model[i] = Some(data.clone()),
                    None => model.push(Some(data.clone())),
                }
            }
        }
        PageOp::Overwrite(i, data) => {
            let live: Vec<usize> = model
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                return;
            }
            let idx = live[i % live.len()];
            let mut d = data.clone();
            d.resize(model[idx].as_ref().unwrap().len(), 0);
            if page.write_object(SlotId(idx as u16), &d).is_ok() {
                model[idx] = Some(d);
            }
        }
        PageOp::Free(i) => {
            let live: Vec<usize> = model
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                return;
            }
            let idx = live[i % live.len()];
            if page.free_object(SlotId(idx as u16)).is_ok() {
                model[idx] = None;
            }
        }
        PageOp::Resize(i, n) => {
            let live: Vec<usize> = model
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                return;
            }
            let idx = live[i % live.len()];
            if page.resize_object(SlotId(idx as u16), *n).is_ok() {
                let mut d = model[idx].take().unwrap();
                d.resize(*n, 0);
                model[idx] = Some(d);
            }
        }
        PageOp::Compact => page.compact(),
    }
}

/// The page tracks a simple slot->bytes model under arbitrary operation
/// sequences, and survives a codec roundtrip.
#[test]
fn page_matches_model() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0x9A6E_0001 ^ case);
        let ops = random_ops(&mut rng, 60);
        let mut page = Page::format(2048, PageId(7), Psn::ZERO);
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for op in &ops {
            apply_model(&mut model, &mut page, op);
        }
        // Codec roundtrip preserves everything.
        let page = Page::from_bytes(page.into_bytes()).unwrap();
        for (i, expected) in model.iter().enumerate() {
            let got = page.read_object(SlotId(i as u16)).ok().map(|b| b.to_vec());
            assert_eq!(&got, expected, "case {case}, slot {i}");
        }
        assert_eq!(
            page.live_count(),
            model.iter().filter(|s| s.is_some()).count()
        );
    }
}

/// PSN strictly increases with every successful mutation.
#[test]
fn psn_monotone() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0x9A6E_0002 ^ (case << 8));
        let ops = random_ops(&mut rng, 40);
        let mut page = Page::format(2048, PageId(7), Psn::ZERO);
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        let mut last = page.psn();
        for op in &ops {
            apply_model(&mut model, &mut page, op);
            assert!(page.psn() >= last, "case {case}");
            last = page.psn();
        }
    }
}

/// Merging two divergent copies is content-symmetric and the merged PSN
/// strictly exceeds both inputs.
#[test]
fn merge_symmetric() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0x3E46E ^ (case << 16));
        let seed_objs: Vec<Vec<u8>> = (0..rng.range_usize(2, 8))
            .map(|_| random_bytes(&mut rng, 4, 32))
            .collect();
        let a_ops: Vec<(usize, Vec<u8>)> = (0..rng.range_usize(0, 8))
            .map(|_| (rng.next_u64() as usize, random_bytes(&mut rng, 4, 32)))
            .collect();
        let b_ops: Vec<(usize, Vec<u8>)> = (0..rng.range_usize(0, 8))
            .map(|_| (rng.next_u64() as usize, random_bytes(&mut rng, 4, 32)))
            .collect();

        let mut base = Page::format(2048, PageId(3), Psn::ZERO);
        let slots: Vec<SlotId> = seed_objs
            .iter()
            .map(|d| base.insert_object(d).unwrap())
            .collect();
        // Two clients overwrite disjoint slot sets (even/odd), as the
        // locking protocol guarantees.
        let mut a = base.clone();
        for (i, d) in &a_ops {
            let s = slots[(i % slots.len()) & !1usize]; // even slots
            let mut dd = d.clone();
            dd.resize(a.read_object(s).unwrap().len(), 0);
            a.write_object(s, &dd).unwrap();
        }
        let mut b = base.clone();
        for (i, d) in &b_ops {
            let idx = (i % slots.len()) | 1usize; // odd slots
            if idx >= slots.len() {
                continue;
            }
            let s = slots[idx];
            let mut dd = d.clone();
            dd.resize(b.read_object(s).unwrap().len(), 0);
            b.write_object(s, &dd).unwrap();
        }
        let m1 = merge_pages(&a, &b).unwrap();
        let m2 = merge_pages(&b, &a).unwrap();
        for s in &slots {
            assert_eq!(m1.read_object(*s).unwrap(), m2.read_object(*s).unwrap());
        }
        assert!(m1.psn() > a.psn() && m1.psn() > b.psn());
        assert_eq!(m1.psn(), m2.psn());
    }
}

/// Merging a copy with a stale ancestor preserves the newest content.
#[test]
fn merge_with_stale_ancestor_keeps_newest() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0x3E46F ^ (case << 24));
        let objs: Vec<Vec<u8>> = (0..rng.range_usize(1, 6))
            .map(|_| random_bytes(&mut rng, 4, 32))
            .collect();
        let updates: Vec<(usize, Vec<u8>)> = (0..rng.range_usize(1, 6))
            .map(|_| (rng.next_u64() as usize, random_bytes(&mut rng, 4, 32)))
            .collect();

        let mut base = Page::format(2048, PageId(3), Psn::ZERO);
        let slots: Vec<SlotId> = objs
            .iter()
            .map(|d| base.insert_object(d).unwrap())
            .collect();
        let ancestor = base.clone();
        for (i, d) in &updates {
            let s = slots[i % slots.len()];
            let mut dd = d.clone();
            dd.resize(base.read_object(s).unwrap().len(), 0);
            base.write_object(s, &dd).unwrap();
        }
        let m = merge_pages(&base, &ancestor).unwrap();
        for s in &slots {
            assert_eq!(m.read_object(*s).unwrap(), base.read_object(*s).unwrap());
        }
    }
}

/// The reference merge: snapshot both copies slot by slot and rebuild the
/// winner of every slot, in slot order, on a freshly formatted page. The
/// in-place [`merge_into`] must agree with it on every slot's state and on
/// the page PSN, and must fail exactly where it does.
fn rebuild_merge(resident: &Page, incoming: &Page) -> Result<Page> {
    let ours = resident.snapshot_all_slots();
    let theirs = incoming.snapshot_all_slots();
    let mut out = Page::format(resident.size(), resident.id(), Psn::ZERO);
    for i in 0..ours.len().max(theirs.len()) {
        let (_, psn, live, bytes) = match (ours.get(i), theirs.get(i)) {
            (Some(a), Some(b)) => {
                if b.1 > a.1 {
                    b
                } else {
                    a
                }
            }
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => unreachable!("i < max"),
        };
        out.install_object(SlotId(i as u16), live.then_some(bytes.as_slice()), *psn)?;
    }
    out.set_psn(Psn::merge(resident.psn(), incoming.psn()));
    Ok(out)
}

/// A random page laid out by the page's own operations, so inserts,
/// resizes and frees leave holes and out-of-slot-order objects.
fn random_base(rng: &mut DetRng) -> Page {
    let size = [256, 512, 1024, 4096][rng.gen_range(4) as usize];
    let max_obj = size / 8;
    let mut base = Page::format(size, PageId(5), Psn(rng.gen_range(4)));
    for _ in 0..rng.range_usize(0, 24) {
        let slot = SlotId(rng.gen_range(base.slot_count().max(1) as u64) as u16);
        let _ = match rng.gen_range(8) {
            0..=3 => base.insert_object(&random_bytes(rng, 0, max_obj)).map(drop),
            4 => {
                let len = base.read_object(slot).map(<[u8]>::len).unwrap_or(0);
                base.write_object(slot, &random_bytes(rng, len, len + 1))
            }
            5 => base.resize_object(slot, rng.range_usize(0, max_obj)),
            6 => base.free_object(slot).map(drop),
            _ => {
                base.compact();
                Ok(())
            }
        };
    }
    base
}

/// Install one random slot state on `p` at `psn` — a same-size overwrite,
/// a resize, a free, or an insert into a dead or new slot — and raise the
/// page PSN to it. A state that does not fit is skipped.
fn random_edit(p: &mut Page, rng: &mut DetRng, psn: Psn) -> Option<(SlotId, Option<Vec<u8>>)> {
    let slot = SlotId(rng.gen_range(p.slot_count() as u64 + 3) as u16);
    let max_obj = p.size() / 8;
    let state = rng.chance(0.8).then(|| match p.read_object(slot) {
        Ok(cur) if rng.chance(0.5) => random_bytes(rng, cur.len(), cur.len() + 1),
        _ => random_bytes(rng, 0, max_obj),
    });
    p.install_object(slot, state.as_deref(), psn).ok()?;
    p.set_psn(p.psn().max(psn));
    Some((slot, state))
}

/// Two copies of a random base edited independently. Each edit mints a
/// fresh PSN, even on the first copy and odd on the second, so no slot
/// ties by accident; one edit in six is applied to both copies at one
/// PSN, the identical-content tie the protocol allows.
fn random_pair(rng: &mut DetRng) -> (Page, Page) {
    let base = random_base(rng);
    let (mut a, mut b) = (base.clone(), base.clone());
    let mut tick = base.psn().as_u64() + 1;
    for _ in 0..rng.range_usize(0, 12) {
        tick += 1;
        match rng.gen_range(6) {
            0..=1 => drop(random_edit(&mut a, rng, Psn(2 * tick))),
            2..=4 => drop(random_edit(&mut b, rng, Psn(2 * tick + 1))),
            _ => {
                let psn = Psn(2 * tick);
                if let Some((slot, state)) = random_edit(&mut a, rng, psn) {
                    if b.install_object(slot, state.as_deref(), psn).is_ok() {
                        b.set_psn(b.psn().max(psn));
                    }
                }
            }
        }
    }
    (a, b)
}

/// Merge a random pair both ways, in place and by the reference. Returns
/// how many of the two merges fit.
fn check_merge_case(case: u64) -> usize {
    let mut rng = DetRng::new(0x3E_4A11 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (a, b) = random_pair(&mut rng);
    let mut fitted = 0;
    for (resident, incoming) in [(&a, &b), (&b, &a)] {
        let mut got = resident.clone();
        let result = merge_into(&mut got, incoming);
        match (rebuild_merge(resident, incoming), result) {
            (Ok(want), Ok(psn)) => {
                assert_eq!(
                    got.snapshot_all_slots(),
                    want.snapshot_all_slots(),
                    "case {case}"
                );
                assert_eq!((psn, got.psn()), (want.psn(), want.psn()), "case {case}");
                assert_eq!(got.total_free(), want.total_free(), "case {case}");
                Page::from_bytes(got.as_bytes().to_vec()).expect("merged page is valid");
                fitted += 1;
            }
            (Err(_), Err(_)) => {
                assert_eq!(got.as_bytes(), resident.as_bytes(), "case {case}");
            }
            (want, got) => panic!(
                "case {case}: reference fits {}, in place returned {got:?}",
                want.is_ok()
            ),
        }
    }
    fitted
}

/// The in-place merge equals the rebuild on random pairs from a common
/// base, in both directions, and fails where the rebuild fails.
#[test]
fn merge_into_matches_the_rebuild() {
    let merges = 2 * 3000;
    let fitted: usize = (0..3000u64).map(check_merge_case).sum();
    // Both outcomes must occur, or one branch goes unchecked.
    assert!(
        fitted > merges / 2 && fitted < merges,
        "{fitted} of {merges} fit"
    );
}

/// The same comparison over 200 000 cases: `cargo test --release -q -p
/// fgl-storage -- --ignored`.
#[test]
#[ignore]
fn merge_into_matches_the_rebuild_soak() {
    for case in 0..200_000u64 {
        check_merge_case(case);
    }
}

/// A merge that does not fit returns `Err` and leaves the resident copy
/// byte-identical, in either direction. Each copy grew a different object;
/// either growth fits on its own, both do not.
#[test]
fn a_merge_that_does_not_fit_leaves_the_resident_untouched() {
    let mut base = Page::format(512, PageId(2), Psn::ZERO);
    let slots: Vec<SlotId> = (1..=3u8)
        .map(|i| base.insert_object(&[i; 100]).unwrap())
        .collect();
    let (mut a, mut b) = (base.clone(), base.clone());
    a.resize_object(slots[0], 180).unwrap();
    b.resize_object(slots[1], 180).unwrap();
    for (resident, incoming) in [(&a, &b), (&b, &a)] {
        assert!(rebuild_merge(resident, incoming).is_err());
        let mut got = resident.clone();
        assert!(merge_into(&mut got, incoming).is_err());
        assert_eq!(got.as_bytes(), resident.as_bytes());
    }
}

/// Frees run before growths: an incoming copy that freed one object and
/// grew another merges into a resident copy whose free gap alone could
/// not hold the growth.
#[test]
fn frees_make_room_for_growths_in_the_same_merge() {
    let mut base = Page::format(512, PageId(2), Psn::ZERO);
    let slots: Vec<SlotId> = (1..=3u8)
        .map(|i| base.insert_object(&[i; 100]).unwrap())
        .collect();
    let mut grown = base.clone();
    grown.free_object(slots[2]).unwrap();
    grown.resize_object(slots[1], 200).unwrap();
    assert!(base.contiguous_free() < 200);
    let mut merged = base.clone();
    merge_into(&mut merged, &grown).unwrap();
    let want = rebuild_merge(&base, &grown).unwrap();
    assert_eq!(merged.snapshot_all_slots(), want.snapshot_all_slots());
    assert_eq!(merged.read_object(slots[1]).unwrap().len(), 200);
    assert!(!merged.slot_is_live(slots[2]));
}

/// On a page laid out in slot order, same-size overwrites merge to the
/// rebuild's very bytes: the layout is kept, not just the content.
#[test]
fn same_size_merges_of_slot_ordered_pages_equal_the_rebuild_bytes() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(0x5A3E_0000 ^ case);
        let mut base = Page::format(4096, PageId(4), Psn::ZERO);
        let slots: Vec<SlotId> = (0..rng.range_usize(1, 20))
            .map(|_| base.insert_object(&random_bytes(&mut rng, 0, 64)).unwrap())
            .collect();
        // The two copies' PSNs start far apart so no slot ties.
        let (mut a, mut b) = (base.clone(), base.clone());
        a.set_psn(Psn(base.psn().as_u64() + 1000));
        b.set_psn(Psn(base.psn().as_u64() + 2000));
        for _ in 0..rng.range_usize(0, 10) {
            let side = if rng.chance(0.5) { &mut a } else { &mut b };
            let s = slots[rng.range_usize(0, slots.len())];
            let len = side.read_object(s).unwrap().len();
            side.write_object(s, &random_bytes(&mut rng, len, len + 1))
                .unwrap();
        }
        for (resident, incoming) in [(&a, &b), (&b, &a)] {
            let mut got = resident.clone();
            merge_into(&mut got, incoming).unwrap();
            let want = rebuild_merge(resident, incoming).unwrap();
            assert_eq!(got.as_bytes(), want.as_bytes(), "case {case}");
        }
    }
}

/// `Page::from_bytes` never panics on arbitrary garbage — it either
/// rejects the buffer or yields a page whose reads are all safe.
#[test]
fn from_bytes_never_panics_on_garbage() {
    for case in 0..512u64 {
        let mut rng = DetRng::new(0x6A4BA6E ^ case);
        let bytes = random_bytes(&mut rng, 0, 600);
        if let Ok(page) = Page::from_bytes(bytes) {
            for i in 0..page.slot_count() {
                let _ = page.read_object(SlotId(i));
            }
            let _ = page.snapshot_all_slots();
            let _ = page.total_free();
        }
    }
}

/// Corrupting any single byte of a valid page either keeps it readable
/// or fails decode — never a panic or out-of-bounds read.
#[test]
fn single_byte_corruption_is_contained() {
    for case in 0..512u64 {
        let mut rng = DetRng::new(0xF11B ^ (case << 32));
        let mut p = Page::format(512, PageId(1), Psn::ZERO);
        p.insert_object(b"victim-one").unwrap();
        p.insert_object(b"victim-two").unwrap();
        let mut bytes = p.into_bytes();
        let i = rng.range_usize(0, bytes.len());
        let xor = 1 + rng.gen_range(255) as u8;
        bytes[i] ^= xor;
        if let Ok(page) = Page::from_bytes(bytes) {
            for s in 0..page.slot_count() {
                let _ = page.read_object(SlotId(s));
            }
        }
    }
}
