//! Byte stores backing a log.
//!
//! A [`LogStore`] separates **pending** (appended, readable, but volatile)
//! from **durable** (survives a crash) bytes. `sync` promotes pending to
//! durable. [`MemLogStore`] implements the distinction exactly and exposes
//! [`MemLogStore::crash`]; crash simulations use it to drop precisely the
//! un-forced tail, which is what makes the WAL-protocol tests meaningful.
//! [`FileLogStore`] is the real-file implementation (an OS crash cannot be
//! simulated from user space, so its `crash` merely drops the
//! application-level buffer).
//!
//! The store also keeps a tiny **master record** (last complete checkpoint
//! LSN + low-water mark), the classical side anchor restart recovery reads
//! first.
//!
//! Offsets are logical and never move: byte `n` of the log is at offset
//! `n` for the life of the store. The low-water mark in the master record
//! is also what makes the in-memory log circular (§3.6): nothing below it
//! is ever read again, so [`MemLogStore`] gives those bytes back when the
//! anchor that carries the mark is written.

use crate::codec::{checksum, Reader, Writer};
use fgl_common::{FglError, Lsn, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Persistent master record: where restart recovery begins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MasterAnchor {
    /// LSN of the last *complete* checkpoint record (NIL if none).
    pub last_checkpoint: Lsn,
    /// Low-water mark: no record below this LSN is needed (circular-space
    /// reclamation, §3.6).
    pub low_water: Lsn,
}

impl MasterAnchor {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.lsn(self.last_checkpoint);
        w.lsn(self.low_water);
        let body = w.into_bytes();
        let mut framed = Vec::with_capacity(body.len() + 4);
        framed.extend_from_slice(&checksum(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        framed
    }

    fn decode(bytes: &[u8]) -> Result<MasterAnchor> {
        if bytes.len() < 4 {
            return Err(FglError::Corrupt("master record too short".into()));
        }
        let stored = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        let body = &bytes[4..];
        if checksum(body) != stored {
            return Err(FglError::Corrupt("master record checksum mismatch".into()));
        }
        let mut r = Reader::new(body);
        Ok(MasterAnchor {
            last_checkpoint: r.lsn()?,
            low_water: r.lsn()?,
        })
    }
}

/// Append-only byte storage with pending/durable separation.
pub trait LogStore: Send {
    /// Append bytes at the logical end (pending until `sync`).
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Total logical length (durable + pending).
    fn len(&self) -> u64;
    /// Is the store empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Length of the durable prefix.
    fn durable_len(&self) -> u64;
    /// Read `len` bytes at `offset` from durable or pending regions.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Fill `buf` from `offset`: [`read`](Self::read) into a buffer the
    /// caller owns, so a scan reuses one buffer for every record. The
    /// default copies out of `read`; a store that holds its bytes in
    /// memory copies them straight in.
    fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(&self.read(offset, buf.len())?);
        Ok(())
    }
    /// Promote all pending bytes to durable.
    fn sync(&mut self) -> Result<()>;
    /// Promote pending bytes up to logical length `upto` to durable,
    /// without paying device latency (the caller already has, outside its
    /// locks — the group-commit two-phase force). Bytes appended after the
    /// caller captured `upto` stay pending: they belong to the next force.
    fn sync_range(&mut self, upto: u64) -> Result<()> {
        let _ = upto;
        self.sync()
    }
    /// Durably store the master anchor (implies its own sync).
    fn write_master(&mut self, anchor: MasterAnchor) -> Result<()>;
    /// Read the master anchor (default if never written).
    fn read_master(&self) -> Result<MasterAnchor>;
    /// Simulate a crash: drop whatever the implementation can drop
    /// (exactly the pending tail for [`MemLogStore`]).
    fn crash(&mut self);
}

/// Heap-backed log store with exact crash semantics.
///
/// One buffer holds the live bytes `[base, len)` plus a durable
/// watermark: bytes below `durable_len` have "reached the device", bytes
/// above are the pending tail. Promoting pending to durable just advances
/// the watermark — no copy, no reallocation. (An earlier two-`Vec` layout
/// moved every synced byte between exact-sized vectors; with tens of
/// thousands of client logs forcing small commit records, those per-force
/// reallocations fragmented the allocator badly enough to dominate the
/// E16 sweep.)
///
/// [`write_master`](LogStore::write_master) frees the durable bytes below
/// the anchor's low-water mark, once they are at least [`FREE_FLOOR`] and
/// at least as many as the bytes that stay: the survivors move to the
/// front of the same allocation, so each byte moves at most once, the
/// buffer holds at most `2 × (len − low-water offset) + FREE_FLOOR` bytes
/// after every anchor whose mark is durable, and appends reuse pages
/// already touched. Reads below `base` are `Corrupt`, like reads past the
/// end.
#[derive(Default)]
pub struct MemLogStore {
    buf: Vec<u8>,
    /// Logical offset of `buf[0]`: everything below it was freed.
    base: u64,
    durable_len: u64,
    master: MasterAnchor,
}

/// The least dead prefix [`MemLogStore`] frees at once: below it, moving
/// the live bytes costs more than the memory is worth.
pub const FREE_FLOOR: u64 = 1 << 20;

impl MemLogStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the store holds: the live log from the first byte not yet
    /// freed to the end, pending tail included.
    pub fn resident_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// The stored bytes `[offset, offset + len)`.
    fn range(&self, offset: u64, len: usize) -> Result<&[u8]> {
        let end = offset + len as u64;
        if offset < self.base || end > self.len() {
            return Err(FglError::Corrupt(format!(
                "log read [{offset}, {end}) outside the stored [{}, {})",
                self.base,
                self.len()
            )));
        }
        let off = (offset - self.base) as usize;
        Ok(&self.buf[off..off + len])
    }
}

impl LogStore for MemLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    fn durable_len(&self) -> u64 {
        self.durable_len
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        Ok(self.range(offset, len)?.to_vec())
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(self.range(offset, buf.len())?);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.durable_len = self.len();
        Ok(())
    }

    fn sync_range(&mut self, upto: u64) -> Result<()> {
        self.durable_len = self.durable_len.max(upto.min(self.len()));
        Ok(())
    }

    fn write_master(&mut self, anchor: MasterAnchor) -> Result<()> {
        self.master = anchor;
        // LSN = offset + 1; a nil mark frees nothing, nor does a pending byte.
        let keep_from = anchor.low_water.0.saturating_sub(1).min(self.durable_len);
        let dead = keep_from.saturating_sub(self.base);
        if dead >= FREE_FLOOR && dead >= self.buf.len() as u64 - dead {
            self.buf.drain(..dead as usize);
            self.base = keep_from;
        }
        Ok(())
    }

    fn read_master(&self) -> Result<MasterAnchor> {
        Ok(self.master)
    }

    fn crash(&mut self) {
        self.buf.truncate((self.durable_len - self.base) as usize);
    }
}

/// File-backed log store. The log lives in `<path>`; the master anchor in
/// `<path>.master`, rewritten atomically via a temp file. The file keeps
/// every byte ever appended: the low-water mark bounds what restart reads,
/// not the file's size (punching holes below it is not implemented).
pub struct FileLogStore {
    file: File,
    path: PathBuf,
    durable: u64,
    total: u64,
}

impl FileLogStore {
    pub fn open(path: &Path) -> Result<FileLogStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let total = file.metadata()?.len();
        Ok(FileLogStore {
            file,
            path: path.to_path_buf(),
            durable: total,
            total,
        })
    }

    fn master_path(&self) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(".master");
        PathBuf::from(p)
    }
}

impl LogStore for FileLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(self.total))?;
        self.file.write_all(bytes)?;
        self.total += bytes.len() as u64;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.total
    }

    fn durable_len(&self) -> u64 {
        self.durable
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        if offset + len as u64 > self.total {
            return Err(FglError::Corrupt(format!(
                "log read [{offset}, {}) past end {}",
                offset + len as u64,
                self.total
            )));
        }
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.durable = self.total;
        Ok(())
    }

    fn write_master(&mut self, anchor: MasterAnchor) -> Result<()> {
        let tmp = self.master_path().with_extension("master.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&anchor.encode())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.master_path())?;
        Ok(())
    }

    fn read_master(&self) -> Result<MasterAnchor> {
        match std::fs::read(self.master_path()) {
            Ok(bytes) => MasterAnchor::decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(MasterAnchor::default()),
            Err(e) => Err(e.into()),
        }
    }

    fn crash(&mut self) {
        // Cannot drop OS-cached writes from user space; treat everything
        // written as durable (conservative for real files — exact crash
        // testing uses MemLogStore).
        self.durable = self.total;
    }
}

/// Latency-injecting wrapper: every `sync` (log force) sleeps for the
/// configured duration, modelling the rotational-disk force the paper's
/// commit path pays. Reads and appends stay free (buffered).
pub struct SimLogStore {
    inner: Box<dyn LogStore>,
    latency: std::time::Duration,
    syncs: u64,
}

impl SimLogStore {
    pub fn new(inner: Box<dyn LogStore>, latency: std::time::Duration) -> Self {
        SimLogStore {
            inner,
            latency,
            syncs: 0,
        }
    }

    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl LogStore for SimLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.inner.read(offset, len)
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_into(offset, buf)
    }

    fn sync(&mut self) -> Result<()> {
        self.syncs += 1;
        if !self.latency.is_zero() {
            fgl_sched::pause(self.latency);
        }
        self.inner.sync()
    }

    fn sync_range(&mut self, upto: u64) -> Result<()> {
        // No sleep: the group-commit leader paid the device latency
        // outside its locks before promoting the range.
        self.syncs += 1;
        self.inner.sync_range(upto)
    }

    fn write_master(&mut self, anchor: MasterAnchor) -> Result<()> {
        self.inner.write_master(anchor)
    }

    fn read_master(&self) -> Result<MasterAnchor> {
        self.inner.read_master()
    }

    fn crash(&mut self) {
        self.inner.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_store_delegates_and_counts_syncs() {
        let mut s = SimLogStore::new(Box::new(MemLogStore::new()), std::time::Duration::ZERO);
        s.append(b"abc").unwrap();
        assert_eq!(s.durable_len(), 0);
        s.sync().unwrap();
        s.sync().unwrap();
        assert_eq!(s.syncs(), 2);
        assert_eq!(s.read(0, 3).unwrap(), b"abc");
        s.append(b"x").unwrap();
        s.crash();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn mem_store_pending_vs_durable() {
        let mut s = MemLogStore::new();
        s.append(b"abc").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.durable_len(), 0);
        assert_eq!(s.read(0, 3).unwrap(), b"abc");
        s.sync().unwrap();
        assert_eq!(s.durable_len(), 3);
        s.append(b"def").unwrap();
        // Read spanning durable and pending.
        assert_eq!(s.read(1, 4).unwrap(), b"bcde");
        s.crash();
        assert_eq!(s.len(), 3);
        assert!(s.read(0, 4).is_err());
    }

    #[test]
    fn mem_store_crash_drops_only_unforced() {
        let mut s = MemLogStore::new();
        s.append(b"keep").unwrap();
        s.sync().unwrap();
        s.append(b"lose").unwrap();
        s.crash();
        assert_eq!(s.read(0, 4).unwrap(), b"keep");
        assert_eq!(s.len(), 4);
    }

    /// Offsets survive a free; the freed prefix and nothing else stops
    /// reading, and neither a pending byte nor a small prefix is freed.
    #[test]
    fn mem_store_frees_the_durable_prefix_below_the_low_water_mark() {
        let floor = FREE_FLOOR as usize;
        let mut s = MemLogStore::new();
        for fill in 1..=3u8 {
            s.append(&vec![fill; floor]).unwrap();
        }
        s.sync().unwrap();
        s.append(b"pending").unwrap();
        let mark = |offset: usize| MasterAnchor {
            last_checkpoint: Lsn::NIL,
            low_water: Lsn(offset as u64 + 1),
        };
        // Dead prefix below the floor: kept.
        s.write_master(mark(floor - 1)).unwrap();
        assert_eq!(s.resident_bytes(), 3 * floor as u64 + 7);
        s.write_master(mark(2 * floor)).unwrap();
        assert_eq!(s.resident_bytes(), floor as u64 + 7);
        assert_eq!(s.len(), 3 * floor as u64 + 7);
        assert_eq!(s.read(2 * floor as u64, 2).unwrap(), [3, 3]);
        assert_eq!(s.read(3 * floor as u64, 7).unwrap(), b"pending");
        assert!(matches!(
            s.read(2 * floor as u64 - 1, 2),
            Err(FglError::Corrupt(_))
        ));
        assert!(s.read_into(0, &mut [0; 1]).is_err());
        // A mark past the durable prefix frees up to it, and the crash
        // still drops exactly the pending tail.
        s.append(&vec![4; floor]).unwrap();
        s.sync().unwrap();
        s.append(b"lost").unwrap();
        s.write_master(mark(s.len() as usize)).unwrap();
        assert_eq!(s.resident_bytes(), 4);
        s.crash();
        assert_eq!(
            (s.len(), s.durable_len()),
            (4 * floor as u64 + 7, 4 * floor as u64 + 7)
        );
        assert_eq!(s.resident_bytes(), 0);
        s.append(b"next").unwrap();
        assert_eq!(s.read(4 * floor as u64 + 7, 4).unwrap(), b"next");
    }

    #[test]
    fn master_anchor_roundtrip_mem() {
        let mut s = MemLogStore::new();
        assert_eq!(s.read_master().unwrap(), MasterAnchor::default());
        let a = MasterAnchor {
            last_checkpoint: Lsn(42),
            low_water: Lsn(10),
        };
        s.write_master(a).unwrap();
        assert_eq!(s.read_master().unwrap(), a);
    }

    #[test]
    fn master_anchor_checksum_detects_corruption() {
        let a = MasterAnchor {
            last_checkpoint: Lsn(1),
            low_water: Lsn(2),
        };
        let mut bytes = a.encode();
        assert_eq!(MasterAnchor::decode(&bytes).unwrap(), a);
        bytes[6] ^= 0x40;
        assert!(MasterAnchor::decode(&bytes).is_err());
    }

    #[test]
    fn file_store_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("fgl-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("log.wal.master"));
        {
            let mut s = FileLogStore::open(&path).unwrap();
            s.append(b"hello ").unwrap();
            s.append(b"world").unwrap();
            s.sync().unwrap();
            s.write_master(MasterAnchor {
                last_checkpoint: Lsn(3),
                low_water: Lsn(1),
            })
            .unwrap();
            assert_eq!(s.read(0, 11).unwrap(), b"hello world");
        }
        {
            let s = FileLogStore::open(&path).unwrap();
            assert_eq!(s.len(), 11);
            assert_eq!(s.read(6, 5).unwrap(), b"world");
            assert_eq!(
                s.read_master().unwrap(),
                MasterAnchor {
                    last_checkpoint: Lsn(3),
                    low_water: Lsn(1),
                }
            );
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("log.wal.master"));
    }

    #[test]
    fn out_of_range_reads_fail() {
        let mut s = MemLogStore::new();
        s.append(b"xy").unwrap();
        assert!(s.read(0, 3).is_err());
        assert!(s.read(5, 1).is_err());
        assert!(s.read_into(1, &mut [0; 2]).is_err());
        assert!(s.read_into(5, &mut [0; 1]).is_err());
    }

    /// `read_into` fills the caller's buffer with what `read` returns, on
    /// the in-memory store, through the latency wrapper, and on a file
    /// (the trait's default, built on `read`).
    #[test]
    fn read_into_matches_read() {
        let dir = std::env::temp_dir().join(format!("fgl-wal-read-into-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let stores: [Box<dyn LogStore>; 3] = [
            Box::new(MemLogStore::new()),
            Box::new(SimLogStore::new(
                Box::new(MemLogStore::new()),
                std::time::Duration::ZERO,
            )),
            Box::new(FileLogStore::open(&path).unwrap()),
        ];
        for mut s in stores {
            s.append(b"durable ").unwrap();
            s.sync().unwrap();
            s.append(b"pending").unwrap();
            let mut buf = [0u8; 9];
            s.read_into(4, &mut buf).unwrap();
            assert_eq!(&buf, b"ble pendi");
            assert_eq!(s.read(4, 9).unwrap(), buf);
            assert!(s.read_into(10, &mut buf).is_err());
        }
        let _ = std::fs::remove_file(&path);
    }
}
