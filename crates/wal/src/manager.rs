//! The log manager: append/force, byte-address LSNs, scans and circular
//! space accounting.
//!
//! §2: *"Each client log manager associates with each log record a log
//! sequence number (LSN), which is a monotonically increasing value. We
//! assume that the LSN of a log record corresponds to the address of the
//! log record in the private log file."* We use `LSN = byte offset + 1`
//! so that `Lsn(0)` stays the nil sentinel.
//!
//! Record framing on disk: `[len: u32][checksum: u32][payload]`. The
//! checksum lets restart recovery detect a torn tail record and stop the
//! scan there; a body whose checksum holds but which does not decode is
//! an error, never the end of the log.
//!
//! **Circular space** (§3.6): the physical store is append-only, but the
//! manager enforces `end - low_water <= capacity`, which is the exact
//! condition governing when the paper's client must trigger reclamation
//! (ask the server to force the page with the minimum RedoLSN). A reserve
//! slice of the capacity is only usable by `append_critical` (rollback
//! CLRs and abort records), so a transaction can always finish rolling
//! back — the standard way WAL systems avoid deadlocking on their own log.

use crate::codec::checksum;
use crate::group::ForceTicket;
use crate::records::{LogPayload, RecordHeader, KIND_NAMES};
use crate::store::{LogStore, MasterAnchor};
use fgl_common::{FglError, Lsn, Result};
use fgl_obs::{Event, HistKind, LogOwner, Metrics};
use std::sync::Arc;

const FRAME_HEADER: usize = 8;

/// Public alias of the persistent anchor.
pub type MasterRecord = MasterAnchor;

/// A decoded record plus its position and the position of its successor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecordEntry {
    pub lsn: Lsn,
    pub next: Lsn,
    pub payload: LogPayload,
}

/// Append/force/scan façade over a [`LogStore`].
pub struct LogManager {
    store: Box<dyn LogStore>,
    capacity: u64,
    reserve: u64,
    low_water: Lsn,
    last_checkpoint: Lsn,
    /// Total records appended (informational).
    appended: u64,
    /// Total bytes appended (informational).
    appended_bytes: u64,
    /// Bytes appended per record kind, indexed like
    /// [`KIND_NAMES`](crate::records::KIND_NAMES) (framed sizes, so the
    /// per-kind numbers sum to `appended_bytes`).
    bytes_by_kind: [u64; KIND_NAMES.len()],
    /// Number of force (sync) calls (informational).
    forces: u64,
    /// Observability hook: when attached, forces are timed into the
    /// registry's log-force histogram and emitted as typed events.
    obs: Option<(Arc<Metrics>, LogOwner)>,
    /// The frame being appended, header first; reused so an append
    /// allocates nothing once the largest record has been seen.
    scratch: Vec<u8>,
    /// Crashes so far: a [`ForceTicket`] of an earlier epoch names
    /// records the crash discarded.
    crash_epoch: u64,
}

impl LogManager {
    /// Create a manager over a fresh store.
    pub fn new(store: Box<dyn LogStore>, capacity: u64) -> LogManager {
        assert!(capacity >= 4096, "log capacity unreasonably small");
        LogManager {
            store,
            capacity,
            reserve: capacity / 8,
            low_water: Lsn(1),
            last_checkpoint: Lsn::NIL,
            appended: 0,
            appended_bytes: 0,
            bytes_by_kind: [0; KIND_NAMES.len()],
            forces: 0,
            obs: None,
            scratch: Vec::new(),
            crash_epoch: 0,
        }
    }

    /// Attach the metrics registry: subsequent [`LogManager::force`] calls
    /// are timed into the log-force histogram and emit [`Event::LogForce`]
    /// tagged with `owner` (the server log or one client's private log).
    pub fn attach_obs(&mut self, metrics: Arc<Metrics>, owner: LogOwner) {
        self.obs = Some((metrics, owner));
    }

    /// Reopen a store after a crash: read the master anchor and validate
    /// the tail (a torn final record is ignored).
    pub fn recover(store: Box<dyn LogStore>, capacity: u64) -> Result<LogManager> {
        let anchor = store.read_master()?;
        let mut mgr = LogManager::new(store, capacity);
        mgr.low_water = if anchor.low_water.is_nil() {
            Lsn(1)
        } else {
            anchor.low_water
        };
        mgr.last_checkpoint = anchor.last_checkpoint;
        Ok(mgr)
    }

    fn offset(lsn: Lsn) -> u64 {
        lsn.0 - 1
    }

    fn lsn_at(offset: u64) -> Lsn {
        Lsn(offset + 1)
    }

    /// LSN the next appended record will get.
    pub fn end_lsn(&self) -> Lsn {
        Self::lsn_at(self.store.len())
    }

    /// What a force must cover for everything appended so far.
    #[inline]
    pub fn force_ticket(&self) -> ForceTicket {
        ForceTicket {
            upto: self.end_lsn(),
            epoch: self.crash_epoch,
        }
    }

    /// Crashes since the manager was created.
    #[inline]
    pub fn crash_epoch(&self) -> u64 {
        self.crash_epoch
    }

    /// A reading of the attached registry's clock, to time a force that
    /// starts now and completes through [`complete_force`](Self::complete_force).
    #[inline]
    pub(crate) fn obs_now_us(&self) -> Option<u64> {
        self.obs.as_ref().map(|(m, _)| m.now_us())
    }

    /// LSN up to which the log is durable (exclusive).
    pub fn durable_lsn(&self) -> Lsn {
        Self::lsn_at(self.store.durable_len())
    }

    /// The current low-water mark: records below it may be overwritten.
    pub fn low_water(&self) -> Lsn {
        self.low_water
    }

    /// LSN of the last complete checkpoint (NIL if none).
    pub fn last_checkpoint(&self) -> Lsn {
        self.last_checkpoint
    }

    /// Bytes logically occupied (`end - low_water`).
    pub fn bytes_in_use(&self) -> u64 {
        self.store.len() - Self::offset(self.low_water)
    }

    /// Total configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes available to ordinary appends before [`FglError::LogFull`].
    pub fn free_bytes(&self) -> u64 {
        (self.capacity - self.reserve).saturating_sub(self.bytes_in_use())
    }

    /// `(records appended, bytes appended, forces)` since creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.appended, self.appended_bytes, self.forces)
    }

    /// Framed bytes appended per record kind: `(kind name, bytes)` for
    /// every kind that has appeared.
    pub fn bytes_by_kind(&self) -> Vec<(&'static str, u64)> {
        KIND_NAMES
            .iter()
            .zip(self.bytes_by_kind)
            .filter(|(_, b)| *b > 0)
            .map(|(n, b)| (*n, b))
            .collect()
    }

    /// Frame `payload` into `out`: `[len][checksum][body]`, the header
    /// patched in once the body is encoded behind it.
    fn frame_into(payload: &LogPayload, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&[0; FRAME_HEADER]);
        payload.encode_into(out);
        let (header, body) = out.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&checksum(body).to_le_bytes());
    }

    fn append_inner(&mut self, payload: &LogPayload, critical: bool) -> Result<Lsn> {
        Self::frame_into(payload, &mut self.scratch);
        let framed = &self.scratch;
        let budget = if critical {
            self.capacity
        } else {
            self.capacity - self.reserve
        };
        if self.bytes_in_use() + framed.len() as u64 > budget {
            return Err(FglError::LogFull);
        }
        let lsn = self.end_lsn();
        self.store.append(framed)?;
        self.appended += 1;
        self.appended_bytes += framed.len() as u64;
        self.bytes_by_kind[payload.kind_index()] += framed.len() as u64;
        Ok(lsn)
    }

    /// Append a record (fails with [`FglError::LogFull`] when only the
    /// rollback reserve remains — the §3.6 reclamation trigger).
    pub fn append(&mut self, payload: &LogPayload) -> Result<Lsn> {
        self.append_inner(payload, false)
    }

    /// Append a record that may consume the rollback reserve (CLRs, abort
    /// records): rolling back must always be possible.
    pub fn append_critical(&mut self, payload: &LogPayload) -> Result<Lsn> {
        self.append_inner(payload, true)
    }

    /// Force the log: everything appended so far becomes durable. A log
    /// with nothing pending is durable already: the force is free — no
    /// device sync, no count, no event.
    pub fn force(&mut self) -> Result<Lsn> {
        if self.store.durable_len() == self.store.len() {
            return Ok(self.durable_lsn());
        }
        let start = self.obs.as_ref().map(|(m, ..)| m.now_us());
        let _span = fgl_obs::trace::span(fgl_obs::SpanKind::WalForce, fgl_common::TxnId(0));
        self.store.sync()?;
        self.forces += 1;
        let durable = self.durable_lsn();
        if let Some((metrics, owner)) = &self.obs {
            metrics.observe_since(HistKind::LogForce, start.unwrap());
            fgl_obs::emit(Event::LogForce {
                owner: *owner,
                lsn: durable,
            });
        }
        Ok(durable)
    }

    /// Second half of a group force ([`GroupForce`](crate::GroupForce)):
    /// promote everything up to `upto` (the end LSN the leader captured
    /// when the force began) to durable. The leader pays the device
    /// latency *between* capturing `upto` and calling this, with no locks
    /// held, so other writers can append behind it; records appended after
    /// the capture stay pending and belong to the next force. `started_us` (a prior
    /// [`Metrics::now_us`](fgl_obs::Metrics::now_us) reading taken at
    /// capture time) keeps the log-force histogram honest about the real
    /// device time.
    pub fn complete_force(&mut self, upto: Lsn, started_us: Option<u64>) -> Result<Lsn> {
        self.store.sync_range(Self::offset(upto))?;
        self.forces += 1;
        let durable = self.durable_lsn();
        if let Some((metrics, owner)) = &self.obs {
            let start = started_us.unwrap_or_else(|| metrics.now_us());
            metrics.observe_since(HistKind::LogForce, start);
            fgl_obs::emit(Event::LogForce {
                owner: *owner,
                lsn: durable,
            });
        }
        Ok(durable)
    }

    /// Force only if `lsn` is not yet durable (WAL rule helper).
    pub fn force_up_to(&mut self, lsn: Lsn) -> Result<()> {
        if lsn >= self.durable_lsn() {
            self.force()?;
        }
        Ok(())
    }

    /// Record a completed checkpoint: update and persist the master anchor.
    pub fn set_checkpoint(&mut self, lsn: Lsn) -> Result<()> {
        self.last_checkpoint = lsn;
        self.store.write_master(MasterAnchor {
            last_checkpoint: self.last_checkpoint,
            low_water: self.low_water,
        })
    }

    /// Advance the low-water mark (never backwards), freeing circular
    /// space. Persisted in the master anchor.
    pub fn advance_low_water(&mut self, lsn: Lsn) -> Result<()> {
        if lsn > self.low_water {
            self.low_water = lsn.min(self.end_lsn());
            self.store.write_master(MasterAnchor {
                last_checkpoint: self.last_checkpoint,
                low_water: self.low_water,
            })?;
        }
        Ok(())
    }

    /// Read the record at `lsn`.
    pub fn read_at(&self, lsn: Lsn) -> Result<LogRecordEntry> {
        if lsn.is_nil() || lsn < self.low_water || lsn >= self.end_lsn() {
            return Err(FglError::Corrupt(format!(
                "read_at {lsn:?} outside [{:?}, {:?})",
                self.low_water,
                self.end_lsn()
            )));
        }
        self.scan_from(lsn)
            .next_header()?
            .ok_or_else(|| FglError::Corrupt(format!("torn record at {lsn:?}")))?
            .entry()
    }

    /// Read the body of the frame at `lsn` into `body` (a scan reuses one)
    /// and return the LSN behind it; `None` for a torn frame: a header or
    /// length past the end of the log, or a checksum mismatch.
    fn read_frame(&self, lsn: Lsn, body: &mut Vec<u8>) -> Result<Option<Lsn>> {
        let off = Self::offset(lsn);
        if off + FRAME_HEADER as u64 > self.store.len() {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER];
        self.store.read_into(off, &mut header)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let stored_sum = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let next = off + FRAME_HEADER as u64 + len as u64;
        if next > self.store.len() {
            return Ok(None);
        }
        body.resize(len, 0);
        self.store.read_into(off + FRAME_HEADER as u64, body)?;
        Ok((checksum(body) == stored_sum).then(|| Self::lsn_at(next)))
    }

    /// Scan records from `from` (or the low-water mark when `from` is
    /// nil) to the end or to the first torn frame.
    pub fn scan_from(&self, from: Lsn) -> LogScan<'_> {
        let start = if from.is_nil() || from < self.low_water {
            self.low_water
        } else {
            from
        };
        LogScan {
            mgr: self,
            pos: start,
            body: Vec::new(),
        }
    }

    /// Collect all records from `from` into a vector (testing
    /// convenience).
    pub fn collect_from(&self, from: Lsn) -> Result<Vec<LogRecordEntry>> {
        self.scan_from(from).collect()
    }

    /// Read and decode the last complete checkpoint record, if one exists
    /// and is still readable (it may have been reclaimed past, or the
    /// anchor may point into a torn region — both degrade to `None`, and
    /// the caller falls back to a full scan).
    pub fn checkpoint_entry(&self) -> Option<LogRecordEntry> {
        if self.last_checkpoint.is_nil() {
            return None;
        }
        self.read_at(self.last_checkpoint).ok()
    }

    /// The checkpoint-anchored analysis scan both restart paths share:
    /// records from `min(last checkpoint, floor)` to the end. `floor` is
    /// the earliest LSN the caller's checkpoint payload says may still
    /// need work (a DPT/DCT minimum RedoLSN); pass [`Lsn::NIL`] when there
    /// is none. With no checkpoint at all the scan covers the whole
    /// usable log (from the low-water mark).
    pub fn scan_from_checkpoint(&self, floor: Lsn) -> LogScan<'_> {
        let start = match (self.last_checkpoint.is_nil(), floor.is_nil()) {
            (true, _) => Lsn::NIL,
            (false, true) => self.last_checkpoint,
            (false, false) => self.last_checkpoint.min(floor),
        };
        self.scan_from(start)
    }

    /// Simulate a crash: the store drops its non-durable tail.
    pub fn crash(&mut self) {
        self.store.crash();
        self.crash_epoch += 1;
    }

    /// Raw framed bytes of the interval `[from, to)` — what the
    /// server-logging baseline ships at commit (§4.1, ARIES/CSA shape).
    /// Like a scan, it starts no lower than the low-water mark: the
    /// records below it are not needed, and the store may have freed them.
    pub fn read_raw(&self, from: Lsn, to: Lsn) -> Result<Vec<u8>> {
        let from = from.max(self.low_water);
        if to < from || to > self.end_lsn() {
            return Err(FglError::Corrupt(format!(
                "read_raw [{from:?}, {to:?}) out of range (end {:?})",
                self.end_lsn()
            )));
        }
        self.store
            .read(Self::offset(from), (to.0 - from.0) as usize)
    }
}

/// Forward scan over log records. Every frame body is read into one
/// buffer the scan owns, and [`next_header`](Self::next_header) parses
/// the header there: a scan allocates only for the records it decodes.
pub struct LogScan<'a> {
    mgr: &'a LogManager,
    pos: Lsn,
    body: Vec<u8>,
}

/// A record a scan reached, its header borrowed from the scan's buffer.
pub struct ScannedRecord<'s> {
    pub lsn: Lsn,
    pub next: Lsn,
    pub header: RecordHeader<'s>,
}

impl ScannedRecord<'_> {
    /// The whole record, images copied.
    pub fn entry(&self) -> Result<LogRecordEntry> {
        Ok(LogRecordEntry {
            lsn: self.lsn,
            next: self.next,
            payload: self.header.decode()?,
        })
    }
}

impl LogScan<'_> {
    /// The next record, undecoded; `Ok(None)` at the end of the log and
    /// in front of a torn frame (what lies beyond is garbage). A frame
    /// whose checksum holds but whose header does not parse is `Corrupt`.
    pub fn next_header(&mut self) -> Result<Option<ScannedRecord<'_>>> {
        if self.pos >= self.mgr.end_lsn() {
            return Ok(None);
        }
        let Some(next) = self.mgr.read_frame(self.pos, &mut self.body)? else {
            return Ok(None);
        };
        let lsn = std::mem::replace(&mut self.pos, next);
        let header = RecordHeader::parse(&self.body)?;
        Ok(Some(ScannedRecord { lsn, next, header }))
    }
}

impl Iterator for LogScan<'_> {
    type Item = Result<LogRecordEntry>;

    fn next(&mut self) -> Option<Result<LogRecordEntry>> {
        self.next_header()
            .and_then(|rec| rec.map(|rec| rec.entry()).transpose())
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::UpdateRecord;
    use crate::store::LogStore;
    use crate::store::{MemLogStore, SimLogStore};
    use fgl_common::{ClientId, ObjectId, PageId, Psn, SlotId, TxnId};
    use fgl_obs::{CaptureSink, SinkGuard};

    fn mgr() -> LogManager {
        LogManager::new(Box::new(MemLogStore::new()), 64 * 1024)
    }

    fn framed(payload: &LogPayload) -> Vec<u8> {
        let mut out = Vec::new();
        LogManager::frame_into(payload, &mut out);
        out
    }

    fn begin(seq: u32) -> LogPayload {
        LogPayload::Begin {
            txn: TxnId::compose(ClientId(1), seq),
        }
    }

    fn update(seq: u32, psn: u64) -> LogPayload {
        LogPayload::Update(UpdateRecord {
            txn: TxnId::compose(ClientId(1), seq),
            prev_lsn: Lsn::NIL,
            object: ObjectId::new(PageId(1), SlotId(0)),
            psn_before: Psn(psn),
            before: Some(vec![0; 16]),
            after: Some(vec![1; 16]),
            structural: false,
        })
    }

    #[test]
    fn lsn_is_byte_address_plus_one() {
        let mut m = mgr();
        let l1 = m.append(&begin(1)).unwrap();
        assert_eq!(l1, Lsn(1));
        let l2 = m.append(&begin(2)).unwrap();
        let framed = framed(&begin(1)).len() as u64;
        assert_eq!(l2, Lsn(1 + framed));
    }

    #[test]
    fn append_scan_roundtrip() {
        let mut m = mgr();
        let payloads = vec![begin(1), update(1, 0), update(1, 1), begin(2)];
        let mut lsns = Vec::new();
        for p in &payloads {
            lsns.push(m.append(p).unwrap());
        }
        let got = m.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), 4);
        for (i, e) in got.iter().enumerate() {
            assert_eq!(e.lsn, lsns[i]);
            assert_eq!(e.payload, payloads[i]);
        }
        // next chains line up.
        for w in got.windows(2) {
            assert_eq!(w[0].next, w[1].lsn);
        }
    }

    #[test]
    fn read_at_random_access() {
        let mut m = mgr();
        let l1 = m.append(&begin(1)).unwrap();
        let l2 = m.append(&update(1, 5)).unwrap();
        assert_eq!(m.read_at(l2).unwrap().payload, update(1, 5));
        assert_eq!(m.read_at(l1).unwrap().payload, begin(1));
        assert!(m.read_at(Lsn::NIL).is_err());
        assert!(m.read_at(m.end_lsn()).is_err());
    }

    #[test]
    fn crash_drops_unforced_tail() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        m.force().unwrap();
        m.append(&begin(2)).unwrap();
        assert_eq!(m.collect_from(Lsn::NIL).unwrap().len(), 2);
        m.crash();
        let got = m.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, begin(1));
    }

    #[test]
    fn durable_lsn_tracks_force() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        assert_eq!(m.durable_lsn(), Lsn(1));
        let end = m.end_lsn();
        m.force_up_to(Lsn(1)).unwrap();
        assert_eq!(m.durable_lsn(), end);
        // Already durable: no extra force.
        let (_, _, forces) = m.stats();
        m.force_up_to(Lsn(1)).unwrap();
        assert_eq!(m.stats().2, forces);
    }

    #[test]
    fn log_full_and_reserve() {
        let mut m = LogManager::new(Box::new(MemLogStore::new()), 4096);
        let mut appended = 0;
        loop {
            match m.append(&update(1, 0)) {
                Ok(_) => appended += 1,
                Err(FglError::LogFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(appended > 10);
        // Critical appends may still proceed into the reserve.
        assert!(m.append_critical(&update(1, 0)).is_ok());
    }

    #[test]
    fn low_water_reclaims_space() {
        let mut m = LogManager::new(Box::new(MemLogStore::new()), 4096);
        let mut last = Lsn::NIL;
        loop {
            match m.append(&update(1, 0)) {
                Ok(l) => last = l,
                Err(FglError::LogFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // Less than one record of ordinary space remains.
        let record_len = framed(&update(1, 0)).len() as u64;
        assert!(m.free_bytes() < record_len);
        m.advance_low_water(last).unwrap();
        assert!(m.free_bytes() > 0);
        assert!(m.append(&update(1, 0)).is_ok());
        // Scans now start at the low-water mark.
        let first = m.scan_from(Lsn::NIL).next().unwrap().unwrap();
        assert_eq!(first.lsn, last);
    }

    #[test]
    fn low_water_never_regresses() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        let l2 = m.append(&begin(2)).unwrap();
        m.advance_low_water(l2).unwrap();
        m.advance_low_water(Lsn(1)).unwrap();
        assert_eq!(m.low_water(), l2);
    }

    #[test]
    fn checkpoint_anchor_survives_recover() {
        let mut store = MemLogStore::new();
        // Build some log state, then recover over the same store.
        {
            let mut m = LogManager::new(Box::new(std::mem::take(&mut store)), 64 * 1024);
            m.append(&begin(1)).unwrap();
            let ck = m.append(&begin(2)).unwrap();
            m.force().unwrap();
            m.set_checkpoint(ck).unwrap();
            // Extract the store back out by crashing and rebuilding: we
            // cannot move the box out, so emulate by a fresh manager over a
            // fresh store in the next test block instead.
            assert_eq!(m.last_checkpoint(), ck);
        }
    }

    #[test]
    fn recover_reads_master_anchor() {
        // Drive a store directly so we can hand it to recover().
        let mut store = MemLogStore::new();
        store
            .write_master(MasterAnchor {
                last_checkpoint: Lsn(9),
                low_water: Lsn(5),
            })
            .unwrap();
        let m = LogManager::recover(Box::new(store), 64 * 1024).unwrap();
        assert_eq!(m.last_checkpoint(), Lsn(9));
        assert_eq!(m.low_water(), Lsn(5));
    }

    #[test]
    fn read_raw_roundtrips_via_fresh_store() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        m.append(&update(1, 3)).unwrap();
        let bytes = m.read_raw(Lsn::NIL, m.end_lsn()).unwrap();
        let mut store = MemLogStore::new();
        store.append(&bytes).unwrap();
        store.sync().unwrap();
        let rebuilt = LogManager::new(Box::new(store), 64 * 1024);
        let got = rebuilt.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, begin(1));
        assert_eq!(got[1].payload, update(1, 3));
    }

    /// A server-logging ship from before the mark starts at the mark: the
    /// records below it may be freed.
    #[test]
    fn read_raw_starts_at_the_low_water_mark() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        let l2 = m.append(&begin(2)).unwrap();
        m.advance_low_water(l2).unwrap();
        assert_eq!(m.read_raw(Lsn(1), m.end_lsn()).unwrap(), framed(&begin(2)));
    }

    #[test]
    fn truncated_tail_ends_scan_cleanly() {
        // Simulate a crash mid-record: write two full frames and then a
        // prefix of a third directly into the store. The scan must yield
        // the two complete records and stop — no error, no garbage.
        let mut store = MemLogStore::new();
        let good1 = framed(&begin(1));
        let good2 = framed(&update(1, 2));
        let torn = framed(&update(1, 3));
        store.append(&good1).unwrap();
        store.append(&good2).unwrap();
        store.append(&torn[..torn.len() - 5]).unwrap();
        store.sync().unwrap();
        let m = LogManager::recover(Box::new(store), 64 * 1024).unwrap();
        let got = m.collect_from(Lsn::NIL).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, begin(1));
        assert_eq!(got[1].payload, update(1, 2));

        // Same for a tail that is only part of a frame header.
        let mut store = MemLogStore::new();
        store.append(&good1).unwrap();
        store.append(&[0xAB, 0xCD]).unwrap();
        store.sync().unwrap();
        let m = LogManager::recover(Box::new(store), 64 * 1024).unwrap();
        assert_eq!(m.collect_from(Lsn::NIL).unwrap().len(), 1);
    }

    /// A begin, an update (4 B images) and a commit of one transaction
    /// as the fixed-width record layout framed them: every integer
    /// fixed-width, tags 1–12. The frames are intact, so the scan does not
    /// end at them as at a torn tail: the first is `Corrupt`, and says
    /// it is of another record format.
    const FIXED_WIDTH_LOG: [u8; 104] = [
        0x09, 0x00, 0x00, 0x00, 0xf2, 0x77, 0xa5, 0x2f, 0x01, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x36, 0x00, 0x00, 0x00, 0x27, 0xe9, 0x72, 0x4c, 0x02, 0x07, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x04, 0x00, 0x00, 0x00, 0xaa, 0xaa, 0xaa, 0xaa, 0x01, 0x04, 0x00, 0x00, 0x00, 0x55,
        0x55, 0x55, 0x55, 0x00, 0x11, 0x00, 0x00, 0x00, 0x23, 0xd3, 0xa2, 0x1e, 0x04, 0x07, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];

    #[test]
    fn a_log_of_the_fixed_width_layout_is_refused() {
        let mut store = MemLogStore::new();
        store.append(&FIXED_WIDTH_LOG).unwrap();
        store.sync().unwrap();
        let m = LogManager::recover(Box::new(store), 64 * 1024).unwrap();
        let format_error =
            |e: FglError| matches!(&e, FglError::Corrupt(m) if m.contains("record format"));
        let mut scan = m.scan_from(Lsn::NIL);
        assert!(scan.next_header().err().is_some_and(format_error));
        assert!(m.collect_from(Lsn::NIL).err().is_some_and(format_error));
        for at in [1, 18, 80] {
            assert!(m.read_at(Lsn(at)).err().is_some_and(format_error), "{at}");
        }
    }

    /// A scan hands out headers before any image is copied, and a record
    /// decodes from its header alone.
    #[test]
    fn scanned_headers_decode_to_their_records() {
        let mut m = mgr();
        let payloads = [begin(1), update(1, 4), begin(2)];
        for p in &payloads {
            m.append(p).unwrap();
        }
        let mut scan = m.scan_from(Lsn::NIL);
        let mut seen = 0;
        while let Some(rec) = scan.next_header().unwrap() {
            assert_eq!(rec.header, payloads[seen].header());
            assert_eq!(rec.entry().unwrap().payload, payloads[seen]);
            seen += 1;
        }
        assert_eq!(seen, payloads.len());
    }

    #[test]
    fn checkpoint_anchored_scan() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        let early = m.append(&update(1, 0)).unwrap();
        let ck = m
            .append(&LogPayload::ClientCheckpoint {
                active_txns: vec![],
                dpt: vec![],
            })
            .unwrap();
        m.append(&begin(2)).unwrap();
        m.force().unwrap();

        // No checkpoint recorded yet: entry is None, scan covers all.
        assert!(m.checkpoint_entry().is_none());
        assert_eq!(m.scan_from_checkpoint(Lsn::NIL).count(), 4);

        m.set_checkpoint(ck).unwrap();
        let entry = m.checkpoint_entry().unwrap();
        assert_eq!(entry.lsn, ck);
        assert!(matches!(entry.payload, LogPayload::ClientCheckpoint { .. }));
        // Anchored scan starts at the checkpoint...
        let got = m
            .scan_from_checkpoint(Lsn::NIL)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(got[0].lsn, ck);
        assert_eq!(got.len(), 2);
        // ...unless a floor (a DPT minimum RedoLSN) reaches further back.
        let got = m
            .scan_from_checkpoint(early)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(got[0].lsn, early);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn bytes_by_kind_sums_to_total() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        m.append(&update(1, 0)).unwrap();
        m.append(&update(1, 1)).unwrap();
        let by_kind = m.bytes_by_kind();
        let (_, total, _) = m.stats();
        assert_eq!(by_kind.iter().map(|(_, b)| b).sum::<u64>(), total);
        let upd = by_kind.iter().find(|(n, _)| *n == "update").unwrap().1;
        let beg = by_kind.iter().find(|(n, _)| *n == "begin").unwrap().1;
        assert_eq!(upd, 2 * framed(&update(1, 0)).len() as u64);
        assert_eq!(beg, framed(&begin(1)).len() as u64);
    }

    #[test]
    fn scan_from_mid_log() {
        let mut m = mgr();
        m.append(&begin(1)).unwrap();
        let l2 = m.append(&begin(2)).unwrap();
        m.append(&begin(3)).unwrap();
        let got = m.scan_from(l2).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, begin(2));
        assert_eq!(got[1].payload, begin(3));
    }

    /// A [`SimLogStore`] the test can still read once a manager owns it.
    #[derive(Clone)]
    struct SharedSim(Arc<parking_lot::Mutex<SimLogStore>>);

    impl SharedSim {
        fn new() -> SharedSim {
            let sim = SimLogStore::new(Box::new(MemLogStore::new()), std::time::Duration::ZERO);
            SharedSim(Arc::new(parking_lot::Mutex::new(sim)))
        }

        fn syncs(&self) -> u64 {
            self.0.lock().syncs()
        }
    }

    impl LogStore for SharedSim {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.0.lock().append(bytes)
        }
        fn len(&self) -> u64 {
            self.0.lock().len()
        }
        fn durable_len(&self) -> u64 {
            self.0.lock().durable_len()
        }
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            self.0.lock().read(offset, len)
        }
        fn sync(&mut self) -> Result<()> {
            self.0.lock().sync()
        }
        fn write_master(&mut self, anchor: MasterAnchor) -> Result<()> {
            self.0.lock().write_master(anchor)
        }
        fn read_master(&self) -> Result<MasterAnchor> {
            self.0.lock().read_master()
        }
        fn crash(&mut self) {
            self.0.lock().crash()
        }
    }

    /// A manager over a [`SharedSim`], observed under a client id no other
    /// test uses, and a capture of the events it emits.
    fn observed(client: u32) -> (LogManager, SharedSim, Arc<CaptureSink>, SinkGuard) {
        let store = SharedSim::new();
        let (sink, guard) = CaptureSink::install();
        let mut m = LogManager::new(Box::new(store.clone()), 64 * 1024);
        m.attach_obs(Arc::new(Metrics::new()), LogOwner::Client(ClientId(client)));
        (m, store, sink, guard)
    }

    /// `(device syncs, forces counted, LogForce events)` so far.
    fn force_costs(m: &LogManager, store: &SharedSim, sink: &CaptureSink) -> (u64, u64, usize) {
        let (metrics, owner) = m.obs.as_ref().expect("observed");
        let events = sink
            .events()
            .iter()
            .filter(|s| matches!(s.event, Event::LogForce { owner: o, .. } if o == *owner))
            .count();
        let timed = metrics
            .snapshot()
            .hist(HistKind::LogForce)
            .map_or(0, |h| h.count);
        assert_eq!(timed, m.stats().2);
        (store.syncs(), m.stats().2, events)
    }

    #[test]
    fn force_with_nothing_pending_is_free() {
        let (mut m, store, sink, _guard) = observed(90_101);
        // An empty log has nothing to make durable.
        assert_eq!(m.force().unwrap(), m.durable_lsn());
        assert_eq!(force_costs(&m, &store, &sink), (0, 0, 0));

        m.append(&begin(1)).unwrap();
        let end = m.end_lsn();
        assert_eq!(m.force().unwrap(), end);
        assert_eq!(force_costs(&m, &store, &sink), (1, 1, 1));

        // Everything is durable: more forces sync nothing and say nothing.
        assert_eq!(m.force().unwrap(), end);
        assert_eq!(m.force().unwrap(), end);
        assert_eq!(force_costs(&m, &store, &sink), (1, 1, 1));
    }

    /// The WAL rule survives the free force: once an update is pending, the
    /// force that precedes a page ship pays the sync and makes it durable.
    #[test]
    fn force_after_a_pending_update_still_syncs() {
        let (mut m, store, sink, _guard) = observed(90_102);
        m.append(&begin(1)).unwrap();
        m.force().unwrap();
        m.force().unwrap();
        assert_eq!(force_costs(&m, &store, &sink), (1, 1, 1));

        let lsn = m.append(&update(1, 7)).unwrap();
        assert!(m.durable_lsn() <= lsn, "the update is pending");
        let end = m.force().unwrap();
        assert_eq!(end, m.end_lsn());
        assert_eq!(force_costs(&m, &store, &sink), (2, 2, 2));
        m.crash();
        let kept = m.collect_from(Lsn::NIL).unwrap();
        assert_eq!(kept.last().map(|e| &e.payload), Some(&update(1, 7)));
    }
}
