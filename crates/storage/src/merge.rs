//! Merging two copies of the same page (§2, §3.1).
//!
//! The paper reconciles concurrent client updates to one page by merging
//! the updated *copies* rather than log records or token-serialized
//! versions. Our realization relies on the per-slot PSN bookkeeping of
//! [`crate::page`]: every object (slot) carries the page PSN it was last
//! modified at, and the callback protocol guarantees that PSNs written for
//! the *same object* by different clients are monotone (§2). Hence for
//! each slot the copy with the larger slot PSN holds the newer state.
//!
//! [`merge_into`] merges in place: the resident copy (a server pool frame,
//! a client cache frame, a recovery work page) takes the incoming copy's
//! newer slots where they lie. A same-size object is overwritten in its
//! extent, a freed one becomes a dead entry, and only an object that
//! changed size or is new to the resident slot table is re-placed
//! (compacting the page if its free gap is short). Objects the resident
//! copy wins stay untouched, so the common merge — a few same-size
//! overwrites — copies just those bytes and allocates nothing.
//!
//! The merged page PSN is `max(PSN_ours, PSN_theirs) + 1` (§2), strictly
//! greater than both inputs even on ties.

use crate::page::{Page, Slot, PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE};
use fgl_common::{FglError, Psn, Result, SlotId};

/// Merge `incoming` into `resident` in place and return the merged page
/// PSN.
///
/// Both copies must be copies of the same page. For every slot the higher
/// slot PSN wins regardless of direction; a slot only one copy has comes
/// from that copy. On a slot PSN tie the resident state is kept — the
/// protocol guarantees tied versions are identical updates observed via
/// different paths. A merge that returns `Err` (different pages, or a
/// merged page that would not fit) leaves `resident` byte-identical.
pub fn merge_into(resident: &mut Page, incoming: &Page) -> Result<Psn> {
    if resident.id() != incoming.id() {
        return Err(FglError::Protocol(format!(
            "merge of different pages: {} vs {}",
            resident.id(),
            incoming.id()
        )));
    }
    if resident.size() != incoming.size() {
        return Err(FglError::Protocol(format!(
            "merge of differently sized copies of {}: {} vs {}",
            resident.id(),
            resident.size(),
            incoming.size()
        )));
    }
    let ours = resident.slot_count();
    let theirs = incoming.slot_count();
    let slots = ours.max(theirs);

    // Size the merged page before touching it: its slot table plus every
    // winning live object must fit.
    let mut live_bytes = 0usize;
    for i in 0..slots {
        let slot = SlotId(i);
        let won = match (resident.read_slot(slot), incoming.read_slot(slot)) {
            (Some(a), Some(b)) => {
                // Protocol invariant (§2): PSNs written for the same
                // object are monotone across clients, so two copies
                // carrying the same slot PSN must carry the same state.
                debug_assert!(
                    a.psn != b.psn || a.psn == Psn::ZERO || same_state(resident, a, incoming, b),
                    "PSN monotonicity violated on {} slot {:?}: psn {:?} with diverging content; \
                     resident {}; incoming {}",
                    resident.id(),
                    slot,
                    a.psn,
                    describe(resident, a),
                    describe(incoming, b)
                );
                if b.psn > a.psn {
                    b
                } else {
                    a
                }
            }
            (Some(s), None) | (None, Some(s)) => s,
            (None, None) => unreachable!("i < slots"),
        };
        if won.live() {
            live_bytes += won.len as usize;
        }
    }
    let (needed, room) = (
        slots as usize * SLOT_ENTRY_SIZE + live_bytes,
        resident.size() - PAGE_HEADER_SIZE,
    );
    if needed > room {
        return Err(FglError::PageFull {
            page: resident.id(),
            needed,
            free: room,
        });
    }
    let merged_psn = Psn::merge(resident.psn(), incoming.psn());

    // Frees, shrinks and same-size overwrites first: none needs room. An
    // object that changed size is freed here and re-placed below, its
    // entry keeping the resident PSN so that pass still sees it lose.
    for i in 0..ours.min(theirs) {
        let slot = SlotId(i);
        let a = resident.read_slot(slot).expect("i < ours");
        let b = incoming.read_slot(slot).expect("i < theirs");
        if b.psn <= a.psn {
            continue;
        }
        if !b.live() {
            resident.write_slot(slot, Slot::dead(b.psn));
        } else if a.live() && a.len == b.len {
            resident.extent_mut(a).copy_from_slice(incoming.extent(b));
            resident.write_slot(slot, Slot { psn: b.psn, ..a });
        } else {
            resident.write_slot(slot, Slot::dead(a.psn));
        }
    }
    // Then the growths: the slots new to the resident table, then every
    // winning object still to place. The sizing above makes each
    // reservation succeed.
    if theirs > ours {
        resident.reserve((theirs - ours) as usize * SLOT_ENTRY_SIZE)?;
        resident.set_slot_count(theirs);
        for i in ours..theirs {
            let b = incoming.read_slot(SlotId(i)).expect("i < theirs");
            resident.write_slot(SlotId(i), Slot::dead(b.psn));
        }
    }
    for i in 0..theirs {
        let slot = SlotId(i);
        let b = incoming.read_slot(slot).expect("i < theirs");
        let a = resident.read_slot(slot).expect("the table covers theirs");
        if b.live() && (i >= ours || (!a.live() && b.psn > a.psn)) {
            resident.reserve(b.len as usize)?;
            resident.put_object(slot, incoming.extent(b), b.psn);
        }
    }
    resident.set_psn(merged_psn);
    Ok(merged_psn)
}

/// Do two slot entries hold the same state (both dead, or both live with
/// equal bytes)?
fn same_state(pa: &Page, a: Slot, pb: &Page, b: Slot) -> bool {
    a.live() == b.live() && (!a.live() || pa.extent(a) == pb.extent(b))
}

/// One copy's side of a diverging PSN tie: its page PSN, and the slot's
/// length and first 16 bytes.
fn describe(page: &Page, s: Slot) -> String {
    if !s.live() {
        return format!("page {:?}, dead", page.psn());
    }
    let bytes = page.extent(s);
    let hex: String = bytes[..bytes.len().min(16)]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("page {:?}, {} B [{hex}]", page.psn(), s.len)
}

/// Merge `incoming` into a copy of `resident`: [`merge_into`] on a clone,
/// for callers that keep both inputs.
pub fn merge_pages(resident: &Page, incoming: &Page) -> Result<Page> {
    let mut merged = resident.clone();
    merge_into(&mut merged, incoming)?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::PageId;

    fn base_page() -> Page {
        let mut p = Page::format(1024, PageId(9), Psn::ZERO);
        p.insert_object(b"AAAA").unwrap(); // slot 0, psn 1
        p.insert_object(b"BBBB").unwrap(); // slot 1, psn 2
        p
    }

    #[test]
    fn merge_disjoint_object_updates_takes_both() {
        let base = base_page();
        // Client 1 updates slot 0; client 2 updates slot 1. Both started
        // from the same base copy (psn 2).
        let mut c1 = base.clone();
        c1.write_object(SlotId(0), b"aaaa").unwrap(); // psn 3, slot0 psn 3
        let mut c2 = base.clone();
        c2.write_object(SlotId(1), b"bbbb").unwrap(); // psn 3, slot1 psn 3

        let m = merge_pages(&c1, &c2).unwrap();
        assert_eq!(m.read_object(SlotId(0)).unwrap(), b"aaaa");
        assert_eq!(m.read_object(SlotId(1)).unwrap(), b"bbbb");
        // Both copies had PSN 3 -> merged PSN 4 (strictly increasing).
        assert_eq!(m.psn(), Psn(4));
    }

    /// The debug tie check names what diverged, and which copy was the
    /// resident one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "resident page PSN(3), 4 B [61616161]; incoming page PSN(3), 4 B [7a7a7a7a]"
    )]
    fn a_diverging_psn_tie_names_both_copies() {
        let mut c1 = base_page();
        c1.write_object(SlotId(0), b"aaaa").unwrap();
        let mut c2 = base_page();
        c2.write_object(SlotId(0), b"zzzz").unwrap();
        let _ = merge_into(&mut c1, &c2);
    }

    #[test]
    fn merge_is_content_symmetric() {
        let base = base_page();
        let mut c1 = base.clone();
        c1.write_object(SlotId(0), b"aaaa").unwrap();
        let mut c2 = base.clone();
        c2.write_object(SlotId(1), b"bbbb").unwrap();

        let m12 = merge_pages(&c1, &c2).unwrap();
        let m21 = merge_pages(&c2, &c1).unwrap();
        assert_eq!(
            m12.read_object(SlotId(0)).unwrap(),
            m21.read_object(SlotId(0)).unwrap()
        );
        assert_eq!(
            m12.read_object(SlotId(1)).unwrap(),
            m21.read_object(SlotId(1)).unwrap()
        );
        assert_eq!(m12.psn(), m21.psn());
    }

    #[test]
    fn newer_version_of_same_object_wins() {
        let base = base_page();
        // Stale copy: the base itself (slot0 psn 1). Fresh copy: two more
        // updates to slot 0.
        let mut fresh = base.clone();
        fresh.write_object(SlotId(0), b"x1x1").unwrap();
        fresh.write_object(SlotId(0), b"x2x2").unwrap();

        let m = merge_pages(&base, &fresh).unwrap();
        assert_eq!(m.read_object(SlotId(0)).unwrap(), b"x2x2");
        let m2 = merge_pages(&fresh, &base).unwrap();
        assert_eq!(m2.read_object(SlotId(0)).unwrap(), b"x2x2");
    }

    #[test]
    fn deletion_propagates_by_psn() {
        let base = base_page();
        let mut deleter = base.clone();
        deleter.free_object(SlotId(0)).unwrap(); // dead at psn 3
        let m = merge_pages(&base, &deleter).unwrap();
        assert!(!m.slot_is_live(SlotId(0)));
        assert!(m.slot_is_live(SlotId(1)));
    }

    #[test]
    fn insertion_in_one_copy_survives() {
        let base = base_page();
        let mut inserter = base.clone();
        let s = inserter.insert_object(b"new!").unwrap();
        let m = merge_pages(&base, &inserter).unwrap();
        assert_eq!(m.read_object(s).unwrap(), b"new!");
        assert_eq!(m.live_count(), 3);
    }

    #[test]
    fn merge_same_copy_still_bumps_psn() {
        let base = base_page();
        let m = merge_pages(&base, &base.clone()).unwrap();
        assert_eq!(m.psn(), Psn(base.psn().as_u64() + 1));
        assert_eq!(m.read_object(SlotId(0)).unwrap(), b"AAAA");
    }

    #[test]
    fn shipped_wire_frame_parses_and_merges() {
        let page = base_page();
        let frame: std::sync::Arc<[u8]> = page.to_wire().into();
        assert!(frame.len() < page.size());
        let parsed = Page::from_wire(&frame, page.size()).unwrap();
        assert_eq!(parsed.id(), page.id());
        assert_eq!(parsed.psn(), page.psn());
        assert_eq!(parsed.read_object(SlotId(0)).unwrap(), b"AAAA");
        let m = merge_pages(&page, &parsed).unwrap();
        assert_eq!(m.snapshot_all_slots(), page.snapshot_all_slots());
    }

    #[test]
    fn merging_different_pages_is_rejected() {
        let a = Page::format(1024, PageId(1), Psn::ZERO);
        let b = Page::format(1024, PageId(2), Psn::ZERO);
        assert!(merge_pages(&a, &b).is_err());
        let c = Page::format(2048, PageId(1), Psn::ZERO);
        assert!(merge_pages(&a, &c).is_err());
    }

    #[test]
    fn chained_merges_remain_monotone() {
        // Simulates the callback ping-pong: merge PSNs must strictly
        // increase across an arbitrary chain.
        let mut cur = base_page();
        let mut last = cur.psn();
        for i in 0..20u8 {
            let mut other = cur.clone();
            other.write_object(SlotId((i % 2) as u16), &[i; 4]).unwrap();
            let m = merge_pages(&cur, &other).unwrap();
            assert!(m.psn() > last);
            last = m.psn();
            cur = m;
        }
    }
}
