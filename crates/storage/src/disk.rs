//! Disk backends for the server's stable database storage.
//!
//! The server writes replaced pages *in place* (§2). A [`DiskBackend`]
//! abstracts over a real file ([`FileDisk`]), a heap-backed store for
//! tests ([`MemDisk`]) and a latency-injecting, I/O-counting wrapper
//! ([`SimDisk`]) used by the experiment harness so that disk costs show up
//! deterministically in measurements.

use crate::page::Page;
use fgl_common::{FglError, PageId, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Stable page storage. Implementations must be usable behind `Arc` from
/// multiple threads.
pub trait DiskBackend: Send + Sync {
    /// Read a page; `Ok(None)` when the page has never been written.
    fn read_page(&self, id: PageId) -> Result<Option<Page>>;
    /// Write a page in place.
    fn write_page(&self, page: &Page) -> Result<()>;
    /// Write several pages in place, as one device request where the
    /// backend can overlap them. Stops at the first failure.
    fn write_pages(&self, pages: &[Page]) -> Result<()> {
        pages.iter().try_for_each(|p| self.write_page(p))
    }
    /// Durably sync all previous writes.
    fn sync(&self) -> Result<()>;
    /// Number of pages ever written (highest id + 1 for file backends is
    /// not required; this is informational).
    fn page_count(&self) -> usize;
}

/// Counters maintained by [`SimDisk`].
#[derive(Debug, Default)]
pub struct DiskStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
}

impl DiskStats {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        )
    }
}

/// Heap-backed page store.
#[derive(Default)]
pub struct MemDisk {
    pages: Mutex<HashMap<PageId, Vec<u8>>>,
}

impl MemDisk {
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskBackend for MemDisk {
    fn read_page(&self, id: PageId) -> Result<Option<Page>> {
        match self.pages.lock().get(&id) {
            Some(bytes) => Ok(Some(Page::from_bytes(bytes.clone())?)),
            None => Ok(None),
        }
    }

    fn write_page(&self, page: &Page) -> Result<()> {
        self.pages
            .lock()
            .insert(page.id(), page.as_bytes().to_vec());
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.pages.lock().len()
    }
}

/// File-backed page store: page `i` lives at byte offset `i * page_size`.
pub struct FileDisk {
    file: Mutex<File>,
    page_size: usize,
    /// Pages known to have been written (sparse files read as zeroes, which
    /// would otherwise decode as corruption rather than absence).
    written: Mutex<HashMap<PageId, ()>>,
}

impl FileDisk {
    /// Open (creating if necessary) the database file at `path`.
    pub fn open(path: &Path, page_size: usize) -> Result<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let disk = FileDisk {
            file: Mutex::new(file),
            page_size,
            written: Mutex::new(HashMap::new()),
        };
        disk.scan_existing()?;
        Ok(disk)
    }

    /// Populate the written-set from an existing file (restart after a
    /// simulated server crash reopens the same file).
    fn scan_existing(&self) -> Result<()> {
        let mut file = self.file.lock();
        let len = file.metadata()?.len();
        let n = (len as usize) / self.page_size;
        let mut buf = vec![0u8; self.page_size];
        let mut written = self.written.lock();
        for i in 0..n {
            file.seek(SeekFrom::Start((i * self.page_size) as u64))?;
            file.read_exact(&mut buf)?;
            if let Ok(p) = Page::from_bytes(buf.clone()) {
                written.insert(p.id(), ());
            }
        }
        Ok(())
    }
}

impl DiskBackend for FileDisk {
    fn read_page(&self, id: PageId) -> Result<Option<Page>> {
        if !self.written.lock().contains_key(&id) {
            return Ok(None);
        }
        let mut file = self.file.lock();
        let off = id.0 * self.page_size as u64;
        file.seek(SeekFrom::Start(off))?;
        let mut buf = vec![0u8; self.page_size];
        file.read_exact(&mut buf)?;
        let page = Page::from_bytes(buf)?;
        if page.id() != id {
            return Err(FglError::Corrupt(format!(
                "page at offset of {id} has id {}",
                page.id()
            )));
        }
        Ok(Some(page))
    }

    fn write_page(&self, page: &Page) -> Result<()> {
        if page.size() != self.page_size {
            return Err(FglError::Protocol(format!(
                "page size {} does not match disk page size {}",
                page.size(),
                self.page_size
            )));
        }
        let mut file = self.file.lock();
        let off = page.id().0 * self.page_size as u64;
        file.seek(SeekFrom::Start(off))?;
        file.write_all(page.as_bytes())?;
        self.written.lock().insert(page.id(), ());
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn page_count(&self) -> usize {
        self.written.lock().len()
    }
}

/// Wrapper adding per-operation latency and counting I/Os.
pub struct SimDisk {
    inner: Arc<dyn DiskBackend>,
    latency: Duration,
    pub stats: DiskStats,
}

impl SimDisk {
    pub fn new(inner: Arc<dyn DiskBackend>, latency: Duration) -> Self {
        SimDisk {
            inner,
            latency,
            stats: DiskStats::default(),
        }
    }

    fn pause(&self) {
        if !self.latency.is_zero() {
            fgl_sched::pause(self.latency);
        }
    }
}

impl DiskBackend for SimDisk {
    fn read_page(&self, id: PageId) -> Result<Option<Page>> {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.pause();
        self.inner.read_page(id)
    }

    fn write_page(&self, page: &Page) -> Result<()> {
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.pause();
        self.inner.write_page(page)
    }

    /// `n` writes issued together finish in one latency, as `n` writes
    /// from `n` concurrent callers already do (no lock is held across the
    /// pause), without a thread or task per page.
    fn write_pages(&self, pages: &[Page]) -> Result<()> {
        if pages.is_empty() {
            return Ok(());
        }
        self.stats
            .writes
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        self.pause();
        self.inner.write_pages(pages)
    }

    fn sync(&self) -> Result<()> {
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        self.pause();
        self.inner.sync()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::Psn;

    fn sample(id: u64) -> Page {
        let mut p = Page::format(512, PageId(id), Psn::ZERO);
        p.insert_object(format!("page-{id}").as_bytes()).unwrap();
        p
    }

    #[test]
    fn memdisk_roundtrip_and_absence() {
        let d = MemDisk::new();
        assert!(d.read_page(PageId(1)).unwrap().is_none());
        let p = sample(1);
        d.write_page(&p).unwrap();
        let back = d.read_page(PageId(1)).unwrap().unwrap();
        assert_eq!(back.as_bytes(), p.as_bytes());
        assert_eq!(d.page_count(), 1);
    }

    #[test]
    fn filedisk_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("fgl-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db-roundtrip.pages");
        let _ = std::fs::remove_file(&path);
        {
            let d = FileDisk::open(&path, 512).unwrap();
            d.write_page(&sample(0)).unwrap();
            d.write_page(&sample(3)).unwrap();
            d.sync().unwrap();
            assert!(d.read_page(PageId(1)).unwrap().is_none());
            let p3 = d.read_page(PageId(3)).unwrap().unwrap();
            assert_eq!(p3.read_object(fgl_common::SlotId(0)).unwrap(), b"page-3");
        }
        // Reopen: previously written pages are found again (crash restart).
        {
            let d = FileDisk::open(&path, 512).unwrap();
            assert!(d.read_page(PageId(0)).unwrap().is_some());
            assert!(d.read_page(PageId(3)).unwrap().is_some());
            assert!(d.read_page(PageId(2)).unwrap().is_none());
            assert_eq!(d.page_count(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn filedisk_rejects_wrong_page_size() {
        let dir = std::env::temp_dir().join(format!("fgl-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db-size.pages");
        let _ = std::fs::remove_file(&path);
        let d = FileDisk::open(&path, 512).unwrap();
        let wrong = Page::format(1024, PageId(0), Psn::ZERO);
        assert!(d.write_page(&wrong).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simdisk_counts_operations() {
        let inner = Arc::new(MemDisk::new());
        let d = SimDisk::new(inner, Duration::ZERO);
        d.write_page(&sample(1)).unwrap();
        d.read_page(PageId(1)).unwrap();
        d.read_page(PageId(2)).unwrap();
        d.sync().unwrap();
        assert_eq!(d.stats.snapshot(), (2, 1, 1));
    }

    /// A batch of eight writes counts eight and waits one latency, where
    /// eight single writes wait eight.
    #[test]
    fn simdisk_write_pages_counts_each_and_pauses_once() {
        let latency = Duration::from_millis(40);
        let d = SimDisk::new(Arc::new(MemDisk::new()), latency);
        let pages: Vec<Page> = (0..8).map(sample).collect();
        let t = std::time::Instant::now();
        d.write_pages(&pages).unwrap();
        let took = t.elapsed();
        assert_eq!(d.stats.snapshot(), (0, 8, 0));
        assert!(took >= latency, "{took:?}");
        assert!(
            took < latency * 4,
            "eight writes paused more than once: {took:?}"
        );
        for p in &pages {
            let back = d.read_page(p.id()).unwrap().unwrap();
            assert_eq!(back.as_bytes(), p.as_bytes());
        }
        d.write_pages(&[]).unwrap();
        assert_eq!(d.stats.snapshot().1, 8);
    }
}
