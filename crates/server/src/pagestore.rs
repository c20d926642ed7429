//! The server's page storage: buffer pool over the database disk, the
//! space allocation map, and the §2 merge-on-receive procedure.
//!
//! I/O ordering (write-ahead of replacement log records, §3.1) is owned by
//! the runtime: every method that can evict dirty pages *returns* them,
//! and the runtime logs a replacement record before each one reaches the
//! disk.

use fgl_common::{PageId, Psn, Result};
use fgl_storage::bufferpool::BufferPool;
use fgl_storage::disk::DiskBackend;
use fgl_storage::merge::{merge_pages, MergeOutcome};
use fgl_storage::page::Page;
use fgl_storage::spacemap::SpaceMap;
use std::sync::Arc;

/// Dirty pages pushed out of the pool; the runtime must write them to
/// disk (after their replacement log records).
pub type EvictedDirty = Vec<Page>;

/// Buffer pool + disk + space map.
pub struct PageStore {
    pool: BufferPool,
    disk: Arc<dyn DiskBackend>,
    spacemap: SpaceMap,
    page_size: usize,
    merges: u64,
}

impl PageStore {
    pub fn new(disk: Arc<dyn DiskBackend>, pool_pages: usize, page_size: usize) -> Self {
        Self::with_partition(disk, pool_pages, page_size, 0, 1)
    }

    /// A store owning one page partition of a multi-instance page
    /// service: fresh allocations walk the residue class `start mod step`
    /// — instance `k` of `N` passes `(k, N)` — so sibling instances never
    /// hand out colliding page ids. `(0, 1)` is the whole id space (the
    /// single server).
    pub fn with_partition(
        disk: Arc<dyn DiskBackend>,
        pool_pages: usize,
        page_size: usize,
        start: u64,
        step: u64,
    ) -> Self {
        PageStore {
            pool: BufferPool::new(pool_pages),
            disk,
            spacemap: SpaceMap::with_stride(start, step),
            page_size,
            merges: 0,
        }
    }

    /// Allocate a fresh page (PSN seeded from the space map, §2/\[18\]).
    pub fn allocate(&mut self) -> Result<(Page, EvictedDirty)> {
        let (id, seed) = self.spacemap.allocate();
        let page = Page::format(self.page_size, id, seed);
        let evicted = self.insert_dirty(page.clone());
        Ok((page, evicted))
    }

    /// Deallocate a page, remembering its final PSN in the space map.
    pub fn deallocate(&mut self, id: PageId) -> Result<()> {
        let psn = self.current_psn(id)?.unwrap_or(Psn::ZERO);
        self.pool.remove(id);
        self.spacemap.deallocate(id, psn)
    }

    fn insert_dirty(&mut self, page: Page) -> EvictedDirty {
        match self.pool.insert(page, true) {
            Some(ev) if ev.dirty => vec![ev.page],
            _ => Vec::new(),
        }
    }

    fn insert_clean(&mut self, page: Page) -> EvictedDirty {
        match self.pool.insert(page, false) {
            Some(ev) if ev.dirty => vec![ev.page],
            _ => Vec::new(),
        }
    }

    /// The pool-resident copy, if any (counts as an LRU touch). A miss
    /// means the caller should read the disk *without holding the store
    /// lock* and hand the result to [`install_read`](Self::install_read).
    pub fn pool_copy(&mut self, id: PageId) -> Option<Page> {
        self.pool.get(id).cloned()
    }

    /// Is the page pool-resident? (LRU touch on hit.)
    pub fn pool_has(&mut self, id: PageId) -> bool {
        self.pool.get(id).is_some()
    }

    /// Handle to the backing disk, for I/O performed while no store lock
    /// is held (the simulated disk latency must not run under a server
    /// mutex).
    pub fn disk_handle(&self) -> Arc<dyn DiskBackend> {
        self.disk.clone()
    }

    /// Install what the caller's disk read of page `id`, made outside the
    /// lock, found. If a (necessarily at-least-as-new) pool copy appeared
    /// meanwhile, that copy wins and the read is discarded. A copy read is
    /// installed clean. A page absent on disk is formatted (PSN seeded
    /// from the space map) and installed dirty: a server crash can wipe a
    /// pool holding a never-flushed allocation (§3.4 restart).
    pub fn install_read(&mut self, id: PageId, from_disk: Option<Page>) -> (Page, EvictedDirty) {
        if let Some(p) = self.pool.get(id) {
            return (p.clone(), Vec::new());
        }
        match from_disk {
            Some(page) => {
                let evicted = self.insert_clean(page.clone());
                (page, evicted)
            }
            None => {
                let seed = self.spacemap.seed_psn(id).unwrap_or(Psn::ZERO);
                let page = Page::format(self.page_size, id, seed);
                let evicted = self.insert_dirty(page.clone());
                (page, evicted)
            }
        }
    }

    /// §2 merge-on-receive: merge a copy arriving from a client with the
    /// resident version — the pool's, else `disk_copy`, the on-disk
    /// version the caller read without holding the store lock. Returns
    /// the PSN carried by the incoming copy (DCT refresh) and the merge
    /// outcome.
    pub fn receive_with(
        &mut self,
        incoming: Page,
        disk_copy: Option<Page>,
    ) -> Result<(Psn, MergeOutcome, EvictedDirty)> {
        let id = incoming.id();
        let incoming_psn = incoming.psn();
        let mut evicted = Vec::new();
        let resident = match self.pool.get(id) {
            Some(p) => Some(p.clone()),
            None => disk_copy,
        };
        let (merged, outcome) = match resident {
            Some(res) => merge_pages(&res, &incoming)?,
            None => {
                // First sighting of this page (allocated by the client via
                // the server, so normally resident; tolerate disk-less
                // arrival by treating the incoming copy as authoritative).
                let out = MergeOutcome {
                    merged_psn: incoming.psn(),
                    taken_from_incoming: incoming.slot_count() as usize,
                    kept_from_resident: 0,
                };
                (incoming, out)
            }
        };
        self.merges += 1;
        evicted.extend(self.insert_dirty(merged));
        Ok((incoming_psn, outcome, evicted))
    }

    /// Current PSN of the resident copy (pool, else disk), if any.
    pub fn current_psn(&mut self, id: PageId) -> Result<Option<Psn>> {
        if let Some(p) = self.pool.get(id) {
            return Ok(Some(p.psn()));
        }
        Ok(self.disk.read_page(id)?.map(|p| p.psn()))
    }

    /// The cached copy of a page if dirty, for flushing.
    pub fn dirty_copy(&mut self, id: PageId) -> Option<Page> {
        if self.pool.is_dirty(id) {
            self.pool.get(id).cloned()
        } else {
            None
        }
    }

    pub fn is_dirty(&self, id: PageId) -> bool {
        self.pool.is_dirty(id)
    }

    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.pool.dirty_ids()
    }

    /// Write a page image in place on disk and mark the pool copy clean if
    /// it still matches. The caller has already logged the replacement
    /// record (§3.1).
    pub fn write_to_disk(&mut self, page: &Page) -> Result<()> {
        self.disk.write_page(page)?;
        self.mark_clean_if_match(page);
        Ok(())
    }

    /// The caller wrote `page` to disk (outside the store lock); mark the
    /// pool copy clean if it still matches that image.
    pub fn mark_clean_if_match(&mut self, page: &Page) {
        if let Some(resident) = self.pool.peek(page.id()) {
            if resident.psn() == page.psn() {
                self.pool.set_dirty(page.id(), false);
            }
        }
    }

    /// Crash: volatile pool contents vanish; disk and space map survive.
    pub fn crash(&mut self) {
        self.pool.clear();
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    pub fn merges(&self) -> u64 {
        self.merges
    }

    pub fn allocated_pages(&self) -> Vec<PageId> {
        self.spacemap.allocated_pages()
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::{FglError, SlotId};
    use fgl_storage::disk::MemDisk;

    fn store(pool: usize) -> PageStore {
        PageStore::new(Arc::new(MemDisk::new()), pool, 512)
    }

    /// A pool-first read through to disk, as the runtime's
    /// `read_page_copy` does it.
    fn get_copy(s: &mut PageStore, id: PageId) -> Result<(Page, EvictedDirty)> {
        if let Some(p) = s.pool_copy(id) {
            return Ok((p, Vec::new()));
        }
        let disk = s.disk_handle().read_page(id)?;
        Ok(s.install_read(id, Some(disk.ok_or(FglError::PageNotFound(id))?)))
    }

    /// Merge-on-receive after the disk read, as the runtime's
    /// `absorb_parsed` does it.
    fn receive(s: &mut PageStore, incoming: Page) -> Result<(Psn, MergeOutcome, EvictedDirty)> {
        let disk = s.disk_handle().read_page(incoming.id())?;
        s.receive_with(incoming, disk)
    }

    #[test]
    fn allocate_and_get() {
        let mut s = store(4);
        let (p, ev) = s.allocate().unwrap();
        assert!(ev.is_empty());
        let (copy, _) = get_copy(&mut s, p.id()).unwrap();
        assert_eq!(copy.id(), p.id());
        assert_eq!(s.pool_len(), 1);
    }

    #[test]
    fn get_missing_page_fails() {
        let mut s = store(4);
        assert!(matches!(
            get_copy(&mut s, PageId(42)),
            Err(FglError::PageNotFound(_))
        ));
    }

    #[test]
    fn install_read_formats_only_what_disk_lacks() {
        let mut s = store(4);
        let (p, _) = s.allocate().unwrap();
        let pid = p.id();
        let on_disk = s.dirty_copy(pid).unwrap();
        s.write_to_disk(&on_disk).unwrap();
        let (never_flushed, _) = s.allocate().unwrap();
        s.crash();

        // On disk: installed clean, as read.
        let (copy, _) = s.install_read(pid, Some(on_disk.clone()));
        assert_eq!(copy.psn(), on_disk.psn());
        assert!(!s.is_dirty(pid));
        // A pool copy wins over a later format.
        let (again, _) = s.install_read(pid, None);
        assert_eq!(again.psn(), on_disk.psn());
        // Absent on disk: formatted at the space map's seed, and dirty.
        let id = never_flushed.id();
        let (formatted, _) = s.install_read(id, None);
        assert_eq!(formatted.psn(), never_flushed.psn());
        assert_eq!(formatted.slot_count(), 0);
        assert!(s.is_dirty(id));
    }

    #[test]
    fn receive_merges_concurrent_updates() {
        let mut s = store(4);
        let (base, _) = s.allocate().unwrap();
        let pid = base.id();
        // Seed an object via a client-style copy.
        let mut c1 = base.clone();
        let slot = c1.insert_object(b"seed").unwrap();
        receive(&mut s, c1.clone()).unwrap();
        // Two clients update the same object in callback order.
        let (ship1, _) = get_copy(&mut s, pid).unwrap();
        let mut v1 = ship1.clone();
        v1.write_object(slot, b"aaaa").unwrap();
        receive(&mut s, v1).unwrap();
        let (ship2, _) = get_copy(&mut s, pid).unwrap();
        let mut v2 = ship2.clone();
        v2.write_object(slot, b"bbbb").unwrap();
        let (psn, outcome, _) = receive(&mut s, v2.clone()).unwrap();
        assert_eq!(psn, v2.psn());
        assert!(outcome.merged_psn > v2.psn());
        let (merged, _) = get_copy(&mut s, pid).unwrap();
        assert_eq!(merged.read_object(slot).unwrap(), b"bbbb");
    }

    #[test]
    fn eviction_returns_dirty_pages_for_flush() {
        let mut s = store(2);
        let (a, _) = s.allocate().unwrap();
        let (_b, ev) = s.allocate().unwrap();
        assert!(ev.is_empty());
        let (_c, ev) = s.allocate().unwrap();
        assert_eq!(ev.len(), 1, "third page evicts the LRU dirty page");
        assert_eq!(ev[0].id(), a.id());
        // Runtime writes it; page later readable from disk.
        s.write_to_disk(&ev[0]).unwrap();
        let (back, _) = get_copy(&mut s, a.id()).unwrap();
        assert_eq!(back.id(), a.id());
    }

    #[test]
    fn write_to_disk_cleans_matching_pool_copy() {
        let mut s = store(4);
        let (p, _) = s.allocate().unwrap();
        assert!(s.is_dirty(p.id()));
        let copy = s.dirty_copy(p.id()).unwrap();
        s.write_to_disk(&copy).unwrap();
        assert!(!s.is_dirty(p.id()));
    }

    #[test]
    fn write_to_disk_keeps_dirty_when_pool_moved_on() {
        let mut s = store(4);
        let (p, _) = s.allocate().unwrap();
        let old_copy = s.dirty_copy(p.id()).unwrap();
        // Pool copy advances (another client update merged).
        let mut newer = old_copy.clone();
        newer.insert_object(b"x").unwrap();
        receive(&mut s, newer).unwrap();
        s.write_to_disk(&old_copy).unwrap();
        assert!(s.is_dirty(p.id()), "newer pool copy must stay dirty");
    }

    #[test]
    fn crash_clears_pool_but_disk_survives() {
        let mut s = store(4);
        let (p, _) = s.allocate().unwrap();
        let copy = s.dirty_copy(p.id()).unwrap();
        s.write_to_disk(&copy).unwrap();
        s.crash();
        assert_eq!(s.pool_len(), 0);
        let back = s.disk_handle().read_page(p.id()).unwrap();
        assert!(back.is_some());
    }

    #[test]
    fn deallocate_seeds_next_incarnation() {
        let mut s = store(4);
        let (p, _) = s.allocate().unwrap();
        let pid = p.id();
        // Bump the PSN a bit.
        let mut c = p.clone();
        c.insert_object(b"zz").unwrap();
        let final_psn = c.psn();
        receive(&mut s, c).unwrap();
        s.deallocate(pid).unwrap();
        let (p2, _) = s.allocate().unwrap();
        assert_eq!(p2.id(), pid, "freed id reused");
        assert!(p2.psn() > final_psn, "PSN continues past prior incarnation");
    }

    #[test]
    fn receive_unknown_page_is_tolerated() {
        let mut s = store(4);
        let mut foreign = Page::format(512, PageId(33), Psn(5));
        foreign.insert_object(b"data").unwrap();
        let (psn, _, _) = receive(&mut s, foreign.clone()).unwrap();
        assert_eq!(psn, foreign.psn());
        let (copy, _) = get_copy(&mut s, PageId(33)).unwrap();
        assert_eq!(copy.read_object(SlotId(0)).unwrap(), b"data");
    }
}
