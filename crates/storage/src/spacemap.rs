//! Space allocation map with PSN seeding.
//!
//! §2: *"The server initializes the PSN value of a page when this page is
//! allocated by following the approach presented in \[18\] (i.e. the PSN
//! stored on the space allocation map containing information about the
//! page in question is assigned to the PSN field of the page)."*
//!
//! The point of the trick: if a page is deallocated and its id later
//! reused, log records written against the *old* incarnation must not be
//! confused with the new one. Recording the page's final PSN in the space
//! map and seeding the new incarnation with `final + 1` keeps the PSN
//! stream of a page id monotone across incarnations.

use fgl_common::{FglError, PageId, Psn, Result};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    allocated: bool,
    /// PSN to seed the next incarnation with (when free) or the PSN the
    /// page was seeded with (when allocated).
    psn_seed: Psn,
}

/// The server's space allocation map. One entry per page id ever touched.
#[derive(Clone, Debug)]
pub struct SpaceMap {
    entries: BTreeMap<PageId, Entry>,
    /// Freed ids awaiting reuse, lowest-first. Kept alongside `entries`
    /// so [`allocate`](SpaceMap::allocate) is O(log n) — a linear scan
    /// for a free entry made bulk page allocation O(n²), which dominated
    /// database population in the big scaling sweeps (E16).
    free: BTreeSet<PageId>,
    next_unused: u64,
    step: u64,
}

impl Default for SpaceMap {
    fn default() -> Self {
        Self::with_stride(0, 1)
    }
}

impl SpaceMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// A map owning the page-id residue class `start mod step`: fresh
    /// allocations walk `start, start+step, start+2*step, …`. Instance
    /// *k* of an *N*-way partitioned page service takes the stride
    /// `(k, N)` so sibling instances never hand out colliding ids.
    pub fn with_stride(start: u64, step: u64) -> Self {
        assert!(step >= 1 && start < step, "stride start must be < step");
        SpaceMap {
            entries: BTreeMap::new(),
            free: BTreeSet::new(),
            next_unused: start,
            step,
        }
    }

    /// Allocate a fresh page id (or reuse the lowest freed one) and return
    /// `(id, seed_psn)`. The caller formats the page with the returned PSN.
    pub fn allocate(&mut self) -> (PageId, Psn) {
        // Prefer reusing a freed page id (that is where PSN seeding matters).
        if let Some(id) = self.free.pop_first() {
            let e = self
                .entries
                .get_mut(&id)
                .expect("free-set id must have an entry");
            debug_assert!(!e.allocated);
            e.allocated = true;
            return (id, e.psn_seed);
        }
        let id = PageId(self.next_unused);
        self.next_unused += self.step;
        self.entries.insert(
            id,
            Entry {
                allocated: true,
                psn_seed: Psn::ZERO,
            },
        );
        (id, Psn::ZERO)
    }

    /// Deallocate a page, recording its final PSN so the next incarnation
    /// is seeded past it.
    pub fn deallocate(&mut self, id: PageId, final_psn: Psn) -> Result<()> {
        match self.entries.get_mut(&id) {
            Some(e) if e.allocated => {
                e.allocated = false;
                e.psn_seed = final_psn.next();
                self.free.insert(id);
                Ok(())
            }
            Some(_) => Err(FglError::Protocol(format!("{id} already free"))),
            None => Err(FglError::PageNotFound(id)),
        }
    }

    /// Is the page currently allocated?
    pub fn is_allocated(&self, id: PageId) -> bool {
        self.entries.get(&id).map(|e| e.allocated).unwrap_or(false)
    }

    /// The PSN seed recorded for a page id, if known.
    pub fn seed_psn(&self, id: PageId) -> Option<Psn> {
        self.entries.get(&id).map(|e| e.psn_seed)
    }

    /// Number of currently allocated pages.
    pub fn allocated_count(&self) -> usize {
        self.entries.values().filter(|e| e.allocated).count()
    }

    /// All currently allocated page ids, ascending.
    pub fn allocated_pages(&self) -> Vec<PageId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.allocated)
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocations_are_sequential_with_zero_seed() {
        let mut m = SpaceMap::new();
        let (a, pa) = m.allocate();
        let (b, pb) = m.allocate();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(pa, Psn::ZERO);
        assert_eq!(pb, Psn::ZERO);
        assert!(m.is_allocated(a) && m.is_allocated(b));
        assert_eq!(m.allocated_count(), 2);
    }

    #[test]
    fn reallocation_seeds_past_final_psn() {
        let mut m = SpaceMap::new();
        let (a, _) = m.allocate();
        m.deallocate(a, Psn(17)).unwrap();
        assert!(!m.is_allocated(a));
        let (a2, seed) = m.allocate();
        assert_eq!(a2, a, "freed id is reused first");
        assert_eq!(seed, Psn(18), "seed continues past the final PSN");
    }

    #[test]
    fn double_free_and_unknown_free_are_errors() {
        let mut m = SpaceMap::new();
        let (a, _) = m.allocate();
        m.deallocate(a, Psn(1)).unwrap();
        assert!(m.deallocate(a, Psn(2)).is_err());
        assert!(m.deallocate(PageId(99), Psn(0)).is_err());
    }

    #[test]
    fn strided_allocation_walks_residue_class() {
        let mut m = SpaceMap::with_stride(2, 4);
        let (a, _) = m.allocate();
        let (b, _) = m.allocate();
        assert_eq!(a, PageId(2));
        assert_eq!(b, PageId(6));
        m.deallocate(a, Psn(9)).unwrap();
        let (a2, seed) = m.allocate();
        assert_eq!(a2, a, "freed id reused before striding on");
        assert_eq!(seed, Psn(10));
        let (c, _) = m.allocate();
        assert_eq!(c, PageId(10));
    }

    #[test]
    fn allocated_pages_lists_only_live() {
        let mut m = SpaceMap::new();
        let (a, _) = m.allocate();
        let (b, _) = m.allocate();
        let (c, _) = m.allocate();
        m.deallocate(b, Psn(4)).unwrap();
        assert_eq!(m.allocated_pages(), vec![a, c]);
    }
}
