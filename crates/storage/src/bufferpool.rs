//! A policy-free LRU page cache used for both the client page cache and
//! the server buffer pool.
//!
//! The pool never performs I/O itself: when inserting over capacity it
//! *returns* the evicted page and its dirty flag, and the owner (client or
//! server runtime) implements the paper's write-ahead / ship-to-server /
//! replacement-log-record obligations before letting the page go. This
//! keeps the §2 buffer policies (steal, no-force, in-place writes) in the
//! runtimes where they belong.

use crate::page::Page;
use fgl_common::{IdMap, PageId};

/// A page pushed out of the pool by an insertion.
#[derive(Debug)]
pub struct EvictedPage {
    pub page: Page,
    pub dirty: bool,
}

struct Frame {
    page: Page,
    dirty: bool,
    last_used: u64,
}

/// Fixed-capacity LRU pool. Not internally synchronized; owners wrap it in
/// their own locks.
pub struct BufferPool {
    frames: IdMap<PageId, Frame>,
    capacity: usize,
    tick: u64,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` pages. The frame table
    /// starts empty and grows on demand — a pool that is never used costs
    /// nothing (important when thousands of simulated clients each own
    /// one); call [`warm`](Self::warm) to pre-size it.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        BufferPool {
            frames: IdMap::default(),
            capacity,
            tick: 0,
        }
    }

    /// Pre-size the frame table for the full capacity (plus the transient
    /// over-capacity entry `insert` creates before evicting), so the hot
    /// path never rehashes.
    pub fn warm(&mut self) {
        let want = self.capacity + 1;
        self.frames.reserve(want.saturating_sub(self.frames.len()));
    }

    /// The frame for `id`, its recency refreshed: one table look-up.
    fn touch(&mut self, id: PageId) -> Option<&mut Frame> {
        self.tick += 1;
        let f = self.frames.get_mut(&id)?;
        f.last_used = self.tick;
        Some(f)
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn contains(&self, id: PageId) -> bool {
        self.frames.contains_key(&id)
    }

    /// Read access; refreshes recency.
    pub fn get(&mut self, id: PageId) -> Option<&Page> {
        self.touch(id).map(|f| &f.page)
    }

    /// Read access without refreshing recency (for scans/snapshots).
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.frames.get(&id).map(|f| &f.page)
    }

    /// Mutable access; marks the page dirty and refreshes recency.
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut Page> {
        self.touch(id).map(|f| {
            f.dirty = true;
            &mut f.page
        })
    }

    /// Mutable access *without* setting the dirty flag (recovery installs
    /// PSNs on fetched pages without logically dirtying them).
    pub fn get_mut_clean(&mut self, id: PageId) -> Option<&mut Page> {
        self.touch(id).map(|f| &mut f.page)
    }

    /// Is the cached copy dirty?
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.frames.get(&id).map(|f| f.dirty).unwrap_or(false)
    }

    /// Set or clear the dirty flag explicitly (e.g. after shipping a copy
    /// to the server the client copy becomes clean).
    pub fn set_dirty(&mut self, id: PageId, dirty: bool) {
        if let Some(f) = self.frames.get_mut(&id) {
            f.dirty = dirty;
        }
    }

    /// Insert (or replace) a page. Returns the LRU victim if the pool
    /// exceeded capacity. Replacing an existing entry keeps the dirty flag
    /// ORed (an incoming stale clean copy must not wash out dirtiness —
    /// callers replace content deliberately via `get_mut`).
    pub fn insert(&mut self, page: Page, dirty: bool) -> Option<EvictedPage> {
        self.tick += 1;
        let id = page.id();
        let prev_dirty = self.frames.get(&id).map(|f| f.dirty).unwrap_or(false);
        self.frames.insert(
            id,
            Frame {
                page,
                dirty: dirty || prev_dirty,
                last_used: self.tick,
            },
        );
        if self.frames.len() > self.capacity {
            self.evict_lru(Some(id))
        } else {
            None
        }
    }

    /// Remove and return the least-recently-used page, excluding `keep`.
    fn evict_lru(&mut self, keep: Option<PageId>) -> Option<EvictedPage> {
        let victim = self
            .frames
            .iter()
            .filter(|(id, _)| Some(**id) != keep)
            .min_by_key(|(_, f)| f.last_used)
            .map(|(id, _)| *id)?;
        self.remove(victim)
    }

    /// Pick the LRU page satisfying `pred` without removing it.
    pub fn lru_matching(&self, pred: impl Fn(PageId, bool) -> bool) -> Option<PageId> {
        self.frames
            .iter()
            .filter(|(id, f)| pred(**id, f.dirty))
            .min_by_key(|(_, f)| f.last_used)
            .map(|(id, _)| *id)
    }

    /// Remove a page from the pool, returning it.
    pub fn remove(&mut self, id: PageId) -> Option<EvictedPage> {
        self.frames.remove(&id).map(|f| EvictedPage {
            page: f.page,
            dirty: f.dirty,
        })
    }

    /// Drop every frame (models a crash: volatile cache contents are lost).
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Ids of all cached pages.
    pub fn cached_ids(&self) -> Vec<PageId> {
        self.frames.keys().copied().collect()
    }

    /// Ids of all dirty cached pages.
    pub fn dirty_ids(&self) -> Vec<PageId> {
        self.frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::Psn;

    fn pg(id: u64) -> Page {
        Page::format(256, PageId(id), Psn::ZERO)
    }

    #[test]
    fn insert_get_within_capacity() {
        let mut bp = BufferPool::new(2);
        assert!(bp.insert(pg(1), false).is_none());
        assert!(bp.insert(pg(2), false).is_none());
        assert!(bp.get(PageId(1)).is_some());
        assert!(bp.get(PageId(3)).is_none());
        assert_eq!(bp.len(), 2);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let mut bp = BufferPool::new(2);
        bp.insert(pg(1), false);
        bp.insert(pg(2), false);
        bp.get(PageId(1)); // 2 becomes LRU
        let ev = bp.insert(pg(3), false).expect("eviction");
        assert_eq!(ev.page.id(), PageId(2));
        assert!(bp.contains(PageId(1)) && bp.contains(PageId(3)));
    }

    #[test]
    fn never_evicts_the_just_inserted_page() {
        let mut bp = BufferPool::new(1);
        bp.insert(pg(1), false);
        let ev = bp.insert(pg(2), true).expect("eviction");
        assert_eq!(ev.page.id(), PageId(1));
        assert!(bp.contains(PageId(2)));
    }

    #[test]
    fn dirty_flag_tracking() {
        let mut bp = BufferPool::new(4);
        bp.insert(pg(1), false);
        assert!(!bp.is_dirty(PageId(1)));
        bp.get_mut(PageId(1)).unwrap();
        assert!(bp.is_dirty(PageId(1)));
        bp.set_dirty(PageId(1), false);
        assert!(!bp.is_dirty(PageId(1)));
        // get_mut_clean does not dirty.
        bp.get_mut_clean(PageId(1)).unwrap();
        assert!(!bp.is_dirty(PageId(1)));
    }

    #[test]
    fn reinsert_keeps_dirtiness_sticky() {
        let mut bp = BufferPool::new(4);
        bp.insert(pg(1), true);
        bp.insert(pg(1), false);
        assert!(bp.is_dirty(PageId(1)), "clean reinsert must not wash dirt");
        assert_eq!(bp.len(), 1);
    }

    #[test]
    fn evicted_dirty_page_reported_dirty() {
        let mut bp = BufferPool::new(1);
        bp.insert(pg(1), true);
        let ev = bp.insert(pg(2), false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn clear_models_crash() {
        let mut bp = BufferPool::new(4);
        bp.insert(pg(1), true);
        bp.insert(pg(2), false);
        bp.clear();
        assert!(bp.is_empty());
        assert!(bp.get(PageId(1)).is_none());
    }

    #[test]
    fn dirty_ids_and_lru_matching() {
        let mut bp = BufferPool::new(4);
        bp.insert(pg(1), true);
        bp.insert(pg(2), false);
        bp.insert(pg(3), true);
        let mut d = bp.dirty_ids();
        d.sort();
        assert_eq!(d, vec![PageId(1), PageId(3)]);
        // Oldest dirty page is 1.
        assert_eq!(bp.lru_matching(|_, dirty| dirty), Some(PageId(1)));
        bp.get(PageId(1));
        assert_eq!(bp.lru_matching(|_, dirty| dirty), Some(PageId(3)));
    }
}
