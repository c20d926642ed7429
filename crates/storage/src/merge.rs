//! Merging two copies of the same page (§2, §3.1).
//!
//! The paper reconciles concurrent client updates to one page by merging
//! the updated *copies* rather than log records or token-serialized
//! versions. Our realization relies on the per-slot PSN bookkeeping of
//! [`crate::page`]: every object (slot) carries the page PSN it was last
//! modified at, and the callback protocol guarantees that PSNs written for
//! the *same object* by different clients are monotone (§2). Hence for
//! each slot the copy with the larger slot PSN holds the newer state, and
//! the merged page takes each object from its winning copy.
//!
//! The merged page PSN is `max(PSN_ours, PSN_theirs) + 1` (§2), strictly
//! greater than both inputs even on ties.

use crate::page::Page;
use fgl_common::{FglError, Psn, Result, SlotId};

/// Statistics describing what a merge did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// PSN installed on the merged page.
    pub merged_psn: Psn,
    /// Slots whose state was taken from the incoming copy.
    pub taken_from_incoming: usize,
    /// Slots whose state was kept from the resident copy.
    pub kept_from_resident: usize,
}

/// Merge `incoming` into `resident`, returning the merged page.
///
/// Both copies must be copies of the same page. The merge is symmetric in
/// content (the higher slot PSN wins regardless of direction); on a slot
/// PSN tie the resident state is kept — the protocol guarantees tied
/// versions are identical updates observed via different paths.
pub fn merge_pages(resident: &Page, incoming: &Page) -> Result<(Page, MergeOutcome)> {
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

    let ours = resident.snapshot_all_slots();
    let theirs = incoming.snapshot_all_slots();
    let max_slots = ours.len().max(theirs.len());

    let merged_psn = Psn::merge(resident.psn(), incoming.psn());
    let mut out = Page::format(resident.size(), resident.id(), Psn::ZERO);
    let mut outcome = MergeOutcome {
        merged_psn,
        taken_from_incoming: 0,
        kept_from_resident: 0,
    };

    for i in 0..max_slots {
        let slot = SlotId(i as u16);
        let a = ours.get(i);
        let b = theirs.get(i);
        // (psn, live, bytes) winner selection; resident wins ties.
        let (winner_psn, live, bytes, from_incoming) = match (a, b) {
            (Some((_, pa, la, da)), Some((_, pb, lb, db))) => {
                // Protocol invariant (§2): PSNs written for the same
                // object are monotone across clients, so two copies
                // carrying the same slot PSN must carry the same state.
                debug_assert!(
                    pa != pb || (la == lb && da == db) || pa == &Psn::ZERO,
                    "PSN monotonicity violated on {} slot {:?}: psn {:?} with diverging content",
                    resident.id(),
                    slot,
                    pa
                );
                if pb > pa {
                    (*pb, *lb, db, true)
                } else {
                    (*pa, *la, da, false)
                }
            }
            (Some((_, pa, la, da)), None) => (*pa, *la, da, false),
            (None, Some((_, pb, lb, db))) => (*pb, *lb, db, true),
            (None, None) => unreachable!("i < max_slots"),
        };
        if from_incoming {
            outcome.taken_from_incoming += 1;
        } else {
            outcome.kept_from_resident += 1;
        }
        let data = if live { Some(bytes.as_slice()) } else { None };
        out.install_object(slot, data, winner_psn)?;
    }

    out.set_psn(merged_psn);
    Ok((out, outcome))
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

        let (m, out) = merge_pages(&c1, &c2).unwrap();
        assert_eq!(m.read_object(SlotId(0)).unwrap(), b"aaaa");
        assert_eq!(m.read_object(SlotId(1)).unwrap(), b"bbbb");
        // Both copies had PSN 3 -> merged PSN 4 (strictly increasing).
        assert_eq!(m.psn(), Psn(4));
        assert_eq!(out.merged_psn, Psn(4));
        assert_eq!(out.taken_from_incoming, 1);
        assert_eq!(out.kept_from_resident, 1);
    }

    #[test]
    fn merge_is_content_symmetric() {
        let base = base_page();
        let mut c1 = base.clone();
        c1.write_object(SlotId(0), b"aaaa").unwrap();
        let mut c2 = base.clone();
        c2.write_object(SlotId(1), b"bbbb").unwrap();

        let (m12, _) = merge_pages(&c1, &c2).unwrap();
        let (m21, _) = merge_pages(&c2, &c1).unwrap();
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

        let (m, _) = merge_pages(&base, &fresh).unwrap();
        assert_eq!(m.read_object(SlotId(0)).unwrap(), b"x2x2");
        let (m2, _) = merge_pages(&fresh, &base).unwrap();
        assert_eq!(m2.read_object(SlotId(0)).unwrap(), b"x2x2");
    }

    #[test]
    fn deletion_propagates_by_psn() {
        let base = base_page();
        let mut deleter = base.clone();
        deleter.free_object(SlotId(0)).unwrap(); // dead at psn 3
        let (m, _) = merge_pages(&base, &deleter).unwrap();
        assert!(!m.slot_is_live(SlotId(0)));
        assert!(m.slot_is_live(SlotId(1)));
    }

    #[test]
    fn insertion_in_one_copy_survives() {
        let base = base_page();
        let mut inserter = base.clone();
        let s = inserter.insert_object(b"new!").unwrap();
        let (m, _) = merge_pages(&base, &inserter).unwrap();
        assert_eq!(m.read_object(s).unwrap(), b"new!");
        assert_eq!(m.live_count(), 3);
    }

    #[test]
    fn merge_same_copy_still_bumps_psn() {
        let base = base_page();
        let (m, _) = merge_pages(&base, &base.clone()).unwrap();
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
        let (m, _) = merge_pages(&page, &parsed).unwrap();
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
            let (m, _) = merge_pages(&cur, &other).unwrap();
            assert!(m.psn() > last);
            last = m.psn();
            cur = m;
        }
    }
}
