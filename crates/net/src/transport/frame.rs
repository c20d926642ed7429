//! The real wire codec: length-prefixed frames for every [`Request`],
//! [`Reply`], [`Callback`], [`CallbackReplyMsg`] and [`GrantMsg`].
//!
//! The encoder is the one description of a frame: a frame's size is the
//! length of what it builds ([`frame_len`]). The sim fabric, which does
//! not encode, charges the callback-family messages through
//! [`callback_batch_len`], [`callback_reply_len`] and
//! [`callback_complete_len`]; `tests/transport_codec.rs` pins each to the
//! encoder, so a simulated run counts exactly the bytes a socket run
//! sends for them. Decoders read with [`fgl_wal::codec::Reader`], whose
//! `list` bounds every u32 count by the bytes left before it sizes
//! anything.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     len   — total frame length in bytes, header included
//! 4       1     kind  — FrameKind discriminant
//! 5       1     aux   — per-kind auxiliary byte (e.g. retained count)
//! 6       2     tag   — variant discriminant within the kind
//! 8       8     corr  — correlation id pairing requests with replies
//! ```
//!
//! All integers are little-endian. Page payloads are appended as
//! [`Seg::Shared`] segments so a shipped `Arc<[u8]>` page is written
//! straight from the shared buffer — never re-copied on the send path.
//!
//! # Truncation
//!
//! [`read_frame`] distinguishes a clean close (EOF at a frame boundary →
//! [`FglError::Disconnected`]) from a truncated read (EOF mid-frame →
//! [`FglError::Corrupt`]); body decoders return [`FglError::Corrupt`]
//! when a frame is shorter than its variant demands.

use crate::api::{Callback, CallbackReplyMsg, Reply, Request, WireError};
use crate::peer::{CallbackOutcome, ClientStateReport, RecoverJob, RecoveredPageOutcome};
use crate::wait::GrantMsg;
use fgl_common::config::{
    CommitPolicy, LockGranularity, LoggingStrategyKind, TransportKind, UpdatePolicy,
};
use fgl_common::{ClientId, FglError, ObjectId, PageId, Psn, Result, SlotId, SystemConfig};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_wal::codec::{Reader, Writer};
use fgl_wal::records::DptEntry;
use std::io::{IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Frame header size: kind, aux, tag, correlation id and length.
pub const HEADER: usize = 16;
/// One encoded callback kind: discriminant, pad, slot id and page id.
pub const CALLBACK_KIND: usize = 12;
/// One `(object, mode)` retained-lock entry in a de-escalation reply.
pub const RETAINED_ENTRY: usize = 12;
/// One blocker transaction id in a deferred reply.
pub const BLOCKER_ENTRY: usize = 8;
/// Handshake magic: `"FGLW"`.
pub const MAGIC: u32 = 0x4647_4C57;
/// Codec version carried in the handshake.
pub const WIRE_VERSION: u16 = 10;
/// Upper bound on a single frame; larger length prefixes are corrupt.
pub const MAX_FRAME: usize = 64 << 20;

/// Top-level frame discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server handshake: the [`ClientId`] and a [`StreamRole`].
    Hello = 1,
    /// Server → client handshake answer carrying the [`SystemConfig`].
    HelloAck = 2,
    /// Client → server [`Request`].
    Req = 3,
    /// Server → client [`Reply`] (corr matches the request).
    Resp = 4,
    /// Server → client [`Callback`] (reverse RPC).
    Cb = 5,
    /// Client → server [`CallbackReplyMsg`] (corr matches the callback).
    CbResp = 6,
    /// Server → client [`GrantMsg`] for a queued lock (corr matches the
    /// original `Lock` request).
    Grant = 7,
}

impl FrameKind {
    pub fn from_u8(v: u8) -> Result<FrameKind> {
        Ok(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Req,
            4 => FrameKind::Resp,
            5 => FrameKind::Cb,
            6 => FrameKind::CbResp,
            7 => FrameKind::Grant,
            other => return Err(corrupt(format!("unknown frame kind {other}"))),
        })
    }
}

/// Decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Total frame length, header included.
    pub len: u32,
    pub kind: FrameKind,
    pub aux: u8,
    pub tag: u16,
    pub corr: u64,
}

/// One segment of an encoded frame. Fixed-layout parts are `Owned`;
/// page payloads stay `Shared` so the send path aliases the client's
/// `Arc<[u8]>` snapshot instead of copying it.
#[derive(Clone, Debug)]
pub enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Seg {
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(a) => a,
        }
    }
}

/// Total byte length of an encoded frame.
pub fn frame_len(segs: &[Seg]) -> usize {
    segs.iter().map(|s| s.as_bytes().len()).sum()
}

/// Flatten a frame to one buffer (tests and diagnostics; the send path
/// writes segments directly).
pub fn frame_bytes(segs: &[Seg]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(segs));
    for s in segs {
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Write one frame in as few vectored writes as the writer takes — one,
/// on a socket. The caller serializes writers per connection (frames
/// must not interleave).
pub fn write_frame<W: Write>(w: &mut W, segs: &[Seg]) -> std::io::Result<()> {
    let mut slices: Vec<IoSlice> = segs.iter().map(|s| IoSlice::new(s.as_bytes())).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame: header plus body (body excludes the 16 header bytes).
/// EOF before any header byte is a clean close ([`FglError::Disconnected`]);
/// EOF anywhere later is a truncated frame ([`FglError::Corrupt`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<(FrameHeader, Vec<u8>)> {
    let mut hdr = [0u8; HEADER];
    let mut got = 0;
    while got < HEADER {
        match r.read(&mut hdr[got..]) {
            Ok(0) if got == 0 => {
                return Err(FglError::Disconnected("peer closed connection".into()))
            }
            Ok(0) => return Err(corrupt(format!("truncated frame header ({got} bytes)"))),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FglError::Io(e)),
        }
    }
    let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as usize;
    if !(HEADER..=MAX_FRAME).contains(&len) {
        return Err(corrupt(format!("frame length {len} out of range")));
    }
    let header = FrameHeader {
        len: len as u32,
        kind: FrameKind::from_u8(hdr[4])?,
        aux: hdr[5],
        tag: u16::from_le_bytes([hdr[6], hdr[7]]),
        corr: u64::from_le_bytes([
            hdr[8], hdr[9], hdr[10], hdr[11], hdr[12], hdr[13], hdr[14], hdr[15],
        ]),
    };
    let want = len - HEADER;
    let mut body = Vec::with_capacity(want);
    r.take(want as u64).read_to_end(&mut body)?;
    if body.len() < want {
        return Err(corrupt(format!("truncated body (wanted {want} bytes)")));
    }
    Ok((header, body))
}

/// [`read_frame`], refusing a frame of any kind but `kind`.
pub(crate) fn read_kind<R: Read>(r: &mut R, kind: FrameKind) -> Result<(FrameHeader, Vec<u8>)> {
    let (h, body) = read_frame(r)?;
    if h.kind != kind {
        let msg = format!("expected {kind:?}, got {:?}", h.kind);
        return Err(FglError::Protocol(msg));
    }
    Ok((h, body))
}

fn corrupt(msg: String) -> FglError {
    FglError::Corrupt(msg)
}

// ---- segment builder -------------------------------------------------------

/// Accumulates a frame body: contiguous fixed-layout bytes, written
/// through the WAL codec's [`Writer`], coalesce into `Owned` segments;
/// shared page payloads are spliced in as `Shared` segments without
/// copying.
#[derive(Default)]
struct B {
    segs: Vec<Seg>,
    cur: Writer,
}

impl std::ops::Deref for B {
    type Target = Writer;

    fn deref(&self) -> &Writer {
        &self.cur
    }
}

impl std::ops::DerefMut for B {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.cur
    }
}

impl B {
    /// Close the owned run written so far into a segment.
    fn cut(&mut self) {
        let run = std::mem::take(&mut self.cur).into_bytes();
        if !run.is_empty() {
            self.segs.push(Seg::Owned(run));
        }
    }

    fn shared(&mut self, a: Arc<[u8]>) {
        self.cut();
        self.segs.push(Seg::Shared(a));
    }

    /// Prefix the accumulated body with a header and return the segments.
    fn frame(mut self, kind: FrameKind, aux: u8, tag: u16, corr: u64) -> Vec<Seg> {
        self.cut();
        let total = HEADER + self.segs.iter().map(|s| s.as_bytes().len()).sum::<usize>();
        let mut hdr = Vec::with_capacity(HEADER + 64);
        hdr.extend_from_slice(&(total as u32).to_le_bytes());
        hdr.push(kind as u8);
        hdr.push(aux);
        hdr.extend_from_slice(&tag.to_le_bytes());
        hdr.extend_from_slice(&corr.to_le_bytes());
        let mut out = Vec::with_capacity(self.segs.len() + 1);
        // Merge the header with a leading owned segment: simple frames
        // stay a single buffer (one write syscall).
        let mut it = self.segs.into_iter();
        match it.next() {
            Some(Seg::Owned(v)) => {
                hdr.extend_from_slice(&v);
                out.push(Seg::Owned(hdr));
            }
            Some(shared @ Seg::Shared(_)) => {
                out.push(Seg::Owned(hdr));
                out.push(shared);
            }
            None => out.push(Seg::Owned(hdr)),
        }
        out.extend(it);
        out
    }
}

// ---- shared sub-encodings --------------------------------------------------

fn obj_mode_code(m: ObjMode) -> u8 {
    match m {
        ObjMode::S => 0,
        ObjMode::X => 1,
    }
}

fn obj_mode(v: u8) -> Result<ObjMode> {
    match v {
        0 => Ok(ObjMode::S),
        1 => Ok(ObjMode::X),
        other => Err(corrupt(format!("bad object mode {other}"))),
    }
}

/// Bytes of one `(object, psn)` `CallBack_P` entry.
const LIST_ENTRY: usize = 18;
/// Bytes of the shortest lock target (an object or page lock).
const LOCK_TARGET: usize = 12;

fn put_psn_list(b: &mut B, v: &[(ObjectId, Psn)]) {
    b.u32(v.len() as u32);
    for (o, p) in v {
        b.object(*o);
        b.u64(p.0);
    }
}

fn get_psn_list(c: &mut Reader) -> Result<Vec<(ObjectId, Psn)>> {
    c.list(LIST_ENTRY, |c| Ok((c.object()?, c.psn()?)))
}

fn put_lock_target(b: &mut B, t: &LockTarget) {
    match t {
        LockTarget::Object(o, m) => {
            b.u8(0);
            b.u8(obj_mode_code(*m));
            b.object(*o);
        }
        LockTarget::Page(p, m) => {
            b.u8(1);
            b.u8(obj_mode_code(*m));
            b.u64(p.0);
            b.u16(0);
        }
        LockTarget::PageAdaptive(p, m, o) => {
            b.u8(2);
            b.u8(obj_mode_code(*m));
            b.u64(p.0);
            b.u16(0);
            b.object(*o);
        }
    }
}

fn get_lock_target(c: &mut Reader) -> Result<LockTarget> {
    let tag = c.u8()?;
    let mode = obj_mode(c.u8()?)?;
    let page = c.page()?;
    let slot = SlotId(c.u16()?);
    Ok(match tag {
        0 => LockTarget::Object(ObjectId::new(page, slot), mode),
        1 => LockTarget::Page(page, mode),
        2 => LockTarget::PageAdaptive(page, mode, c.object()?),
        other => return Err(corrupt(format!("bad lock target tag {other}"))),
    })
}

fn put_opt_evidence(b: &mut B, e: &Option<(ClientId, Psn)>) {
    match e {
        Some((c, p)) => {
            b.u8(1);
            b.u32(c.0);
            b.u64(p.0);
        }
        None => b.u8(0),
    }
}

fn get_opt_evidence(c: &mut Reader) -> Result<Option<(ClientId, Psn)>> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some((c.client()?, c.psn()?))),
        other => Err(corrupt(format!("bad option tag {other}"))),
    }
}

/// A grant's optional page: a u32 length, 0 for no page (a page is never
/// empty), then the bytes.
fn put_opt_page(b: &mut B, p: &Option<Vec<u8>>) {
    let bytes = p.as_deref().unwrap_or_default();
    b.bytes(bytes);
}

fn get_opt_page(c: &mut Reader) -> Result<Option<Vec<u8>>> {
    let page = c.sized()?;
    Ok((!page.is_empty()).then(|| page.to_vec()))
}

/// A list of page ids: a u32 count, then 8 bytes per id.
fn put_page_ids(b: &mut B, pages: &[PageId]) {
    b.u32(pages.len() as u32);
    for p in pages {
        b.u64(p.0);
    }
}

fn get_page_ids(c: &mut Reader) -> Result<Vec<PageId>> {
    c.list(8, Reader::page)
}

fn get_str(c: &mut Reader) -> Result<String> {
    String::from_utf8(c.sized()?.to_vec()).map_err(|_| corrupt("invalid utf-8 string".into()))
}

/// The fields every lock grant carries, in [`Reply::LockGranted`] and in
/// a `Grant` frame alike.
fn put_lock_grant(
    b: &mut B,
    target: &LockTarget,
    first_exclusive_on_page: bool,
    evidence: &Option<(ClientId, Psn)>,
    page: &Option<Vec<u8>>,
) {
    put_lock_target(b, target);
    b.u8(first_exclusive_on_page as u8);
    put_opt_evidence(b, evidence);
    put_opt_page(b, page);
}

type LockGrant = (LockTarget, bool, Option<(ClientId, Psn)>, Option<Vec<u8>>);

fn get_lock_grant(c: &mut Reader) -> Result<LockGrant> {
    Ok((
        get_lock_target(c)?,
        c.bool()?,
        get_opt_evidence(c)?,
        get_opt_page(c)?,
    ))
}

fn callback_kind_code(k: &CallbackKind) -> (u8, PageId, u16) {
    match k {
        CallbackKind::ReleaseObject(o) => (0, o.page, o.slot.0),
        CallbackKind::DowngradeObject(o) => (1, o.page, o.slot.0),
        CallbackKind::ReleasePage(p) => (2, *p, 0),
        CallbackKind::DowngradePage(p) => (3, *p, 0),
        CallbackKind::DeEscalatePage(p) => (4, *p, 0),
    }
}

/// One callback kind is exactly [`CALLBACK_KIND`] bytes.
fn put_callback_kind(b: &mut B, k: &CallbackKind) {
    let (tag, page, slot) = callback_kind_code(k);
    b.u8(tag);
    b.u8(0);
    b.u16(slot);
    b.u64(page.0);
}

fn get_callback_kind(c: &mut Reader) -> Result<CallbackKind> {
    let tag = c.u8()?;
    let _pad = c.u8()?;
    let slot = SlotId(c.u16()?);
    let page = c.page()?;
    let obj = ObjectId::new(page, slot);
    Ok(match tag {
        0 => CallbackKind::ReleaseObject(obj),
        1 => CallbackKind::DowngradeObject(obj),
        2 => CallbackKind::ReleasePage(page),
        3 => CallbackKind::DowngradePage(page),
        4 => CallbackKind::DeEscalatePage(page),
        other => return Err(corrupt(format!("bad callback kind tag {other}"))),
    })
}

/// One retained `(object, mode)` entry is exactly [`RETAINED_ENTRY`]
/// bytes.
fn put_retained(b: &mut B, retained: &[(ObjectId, ObjMode)]) {
    for (o, m) in retained {
        b.object(*o);
        b.u8(obj_mode_code(*m));
        b.u8(0);
    }
}

/// `n` retained entries; `n` is a u8 from the frame, so it cannot size
/// a large allocation.
fn get_retained(c: &mut Reader, n: u8) -> Result<Vec<(ObjectId, ObjMode)>> {
    (0..n)
        .map(|_| {
            let o = c.object()?;
            let mode = obj_mode(c.u8()?)?;
            let _pad = c.u8()?;
            Ok((o, mode))
        })
        .collect()
}

/// Encode one [`CallbackOutcome`] body — exactly [`outcome_len`] bytes
/// (the 4-byte prefix is the variant tag plus retained/blocker counts and
/// the page length).
fn put_outcome(b: &mut B, o: &CallbackOutcome) -> Result<()> {
    match o {
        CallbackOutcome::Done {
            retained,
            page_copy,
        } => {
            if retained.len() > u8::MAX as usize {
                return Err(FglError::Protocol(format!(
                    "retained set of {} entries exceeds the frame limit of 255",
                    retained.len()
                )));
            }
            let page_len = page_copy.as_ref().map_or(0, |p| p.len());
            if page_len > u16::MAX as usize {
                return Err(FglError::Protocol(format!(
                    "page copy of {page_len} bytes exceeds the 64 KiB frame field"
                )));
            }
            b.u8(0);
            b.u8(retained.len() as u8);
            b.u16(page_len as u16);
            put_retained(b, retained);
            if let Some(p) = page_copy {
                b.shared(p.clone());
            }
        }
        CallbackOutcome::Deferred { blockers } => {
            if blockers.len() > u16::MAX as usize {
                return Err(FglError::Protocol(format!(
                    "blocker list of {} entries exceeds the frame limit",
                    blockers.len()
                )));
            }
            b.u8(1);
            b.u8(0);
            b.u16(blockers.len() as u16);
            for t in blockers {
                b.u64(t.0);
            }
        }
    }
    Ok(())
}

fn get_outcome(c: &mut Reader) -> Result<CallbackOutcome> {
    match c.u8()? {
        0 => {
            let n = c.u8()?;
            let page_len = c.u16()? as usize;
            let retained = get_retained(c, n)?;
            let page_copy = if page_len == 0 {
                None
            } else {
                Some(Arc::<[u8]>::from(c.take(page_len)?))
            };
            Ok(CallbackOutcome::Done {
                retained,
                page_copy,
            })
        }
        1 => {
            let _pad = c.u8()?;
            let n = c.u16()?;
            let blockers = (0..n).map(|_| c.txn()).collect::<Result<_>>()?;
            Ok(CallbackOutcome::Deferred { blockers })
        }
        other => Err(corrupt(format!("bad callback outcome tag {other}"))),
    }
}

fn put_wire_error(b: &mut B, e: &WireError) {
    match e {
        WireError::Io(s) => {
            b.u8(1);
            b.bytes(s.as_bytes());
        }
        WireError::PageNotFound(p) => {
            b.u8(2);
            b.u64(p.0);
        }
        WireError::ObjectNotFound(o) => {
            b.u8(3);
            b.object(*o);
        }
        WireError::PageFull { page, needed, free } => {
            b.u8(4);
            b.u64(page.0);
            b.u64(*needed);
            b.u64(*free);
        }
        WireError::DeadlockVictim(t) => {
            b.u8(5);
            b.u64(t.0);
        }
        WireError::LockTimeout(t) => {
            b.u8(6);
            b.u64(t.0);
        }
        WireError::TxnAborted(t) => {
            b.u8(7);
            b.u64(t.0);
        }
        WireError::InvalidTxnState { txn, state } => {
            b.u8(8);
            b.u64(txn.0);
            b.bytes(state.as_bytes());
        }
        WireError::UnknownSavepoint(s) => {
            b.u8(9);
            b.bytes(s.as_bytes());
        }
        WireError::LogFull => b.u8(10),
        WireError::Corrupt(s) => {
            b.u8(11);
            b.bytes(s.as_bytes());
        }
        WireError::Disconnected(s) => {
            b.u8(12);
            b.bytes(s.as_bytes());
        }
        WireError::Protocol(s) => {
            b.u8(13);
            b.bytes(s.as_bytes());
        }
        WireError::Config(s) => {
            b.u8(14);
            b.bytes(s.as_bytes());
        }
    }
}

fn get_wire_error(c: &mut Reader) -> Result<WireError> {
    Ok(match c.u8()? {
        1 => WireError::Io(get_str(c)?),
        2 => WireError::PageNotFound(c.page()?),
        3 => WireError::ObjectNotFound(c.object()?),
        4 => WireError::PageFull {
            page: c.page()?,
            needed: c.u64()?,
            free: c.u64()?,
        },
        5 => WireError::DeadlockVictim(c.txn()?),
        6 => WireError::LockTimeout(c.txn()?),
        7 => WireError::TxnAborted(c.txn()?),
        8 => WireError::InvalidTxnState {
            txn: c.txn()?,
            state: get_str(c)?,
        },
        9 => WireError::UnknownSavepoint(get_str(c)?),
        10 => WireError::LogFull,
        11 => WireError::Corrupt(get_str(c)?),
        12 => WireError::Disconnected(get_str(c)?),
        13 => WireError::Protocol(get_str(c)?),
        14 => WireError::Config(get_str(c)?),
        other => return Err(corrupt(format!("bad wire error tag {other}"))),
    })
}

/// A frame the reader would refuse as out of range is refused by the
/// encoder that built it.
fn checked(segs: Vec<Seg>) -> Result<Vec<Seg>> {
    let len = frame_len(&segs);
    if len > MAX_FRAME {
        return Err(FglError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte frame limit"
        )));
    }
    Ok(segs)
}

// ---- requests --------------------------------------------------------------

fn request_tag(req: &Request) -> u16 {
    match req {
        Request::Register => 1,
        Request::Lock { .. } => 2,
        Request::CancelWait { .. } => 3,
        Request::CallbackComplete { .. } => 4,
        Request::FetchPage { .. } => 5,
        Request::AllocatePage { .. } => 6,
        Request::ShipPage { .. } => 7,
        Request::ForcePage { .. } => 8,
        Request::CommitShipLog { .. } => 9,
        Request::FetchClientLog => 10,
        Request::ClientCrashed => 11,
        Request::RecoveryBegin => 12,
        Request::RecoveryEnd => 13,
        Request::RecoveryFetch { .. } => 14,
        Request::RecoverClientPage { .. } => 15,
        Request::PollRecoveryNeeds => 16,
        Request::InstallRecovered { .. } => 17,
        Request::FetchPages { .. } => 18,
        Request::ShipPages { .. } => 19,
        Request::ForcePages { .. } => 20,
    }
}

/// Encode a [`Request`] under correlation id `corr`.
pub fn encode_request(corr: u64, req: &Request) -> Result<Vec<Seg>> {
    let mut b = B::default();
    let mut aux = 0u8;
    match req {
        Request::Register
        | Request::FetchClientLog
        | Request::ClientCrashed
        | Request::RecoveryBegin
        | Request::RecoveryEnd
        | Request::PollRecoveryNeeds => {}
        Request::Lock {
            txn,
            target,
            cached_psn,
        } => {
            b.u64(txn.0);
            put_lock_target(&mut b, target);
            b.opt_psn(*cached_psn);
        }
        Request::CancelWait { txn } | Request::AllocatePage { txn } => b.u64(txn.0),
        Request::FetchPage { page }
        | Request::ForcePage { page }
        | Request::RecoverClientPage { page } => b.u64(page.0),
        Request::CallbackComplete {
            kind,
            retained,
            page_copy,
        } => {
            if retained.len() > u8::MAX as usize {
                return Err(FglError::Protocol(format!(
                    "retained set of {} entries exceeds the frame limit of 255",
                    retained.len()
                )));
            }
            aux = retained.len() as u8;
            put_callback_kind(&mut b, kind);
            put_retained(&mut b, retained);
            if let Some(p) = page_copy {
                if p.len() > u16::MAX as usize {
                    return Err(FglError::Protocol(format!(
                        "page copy of {} bytes exceeds the 64 KiB frame field",
                        p.len()
                    )));
                }
                b.shared(p.clone());
            }
        }
        Request::ShipPage { bytes, replaced } => {
            b.u8(*replaced as u8);
            b.shared(bytes.clone());
        }
        Request::CommitShipLog { records, touched } => {
            if touched.len() > u16::MAX as usize {
                return Err(FglError::Protocol(format!(
                    "touched-page hint of {} entries exceeds the u16 frame field",
                    touched.len()
                )));
            }
            b.u16(touched.len() as u16);
            for p in touched {
                b.u64(p.0);
            }
            b.raw(records);
        }
        Request::RecoveryFetch { page, need } => {
            b.u64(page.0);
            put_opt_evidence(&mut b, need);
        }
        Request::InstallRecovered { bytes } => b.raw(bytes),
        Request::FetchPages { pages } | Request::ForcePages { pages } => {
            put_page_ids(&mut b, pages)
        }
        Request::ShipPages { pages, replaced } => {
            b.u8(*replaced as u8);
            b.u32(pages.len() as u32);
            for p in pages {
                b.u32(p.len() as u32);
                b.shared(p.clone());
            }
        }
    }
    checked(b.frame(FrameKind::Req, aux, request_tag(req), corr))
}

/// Decode a [`Request`] frame body.
pub fn decode_request(h: &FrameHeader, body: &[u8]) -> Result<Request> {
    let mut c = Reader::new(body);
    let req = match h.tag {
        1 => Request::Register,
        2 => Request::Lock {
            txn: c.txn()?,
            target: get_lock_target(&mut c)?,
            cached_psn: c.opt_psn()?,
        },
        3 => Request::CancelWait { txn: c.txn()? },
        4 => {
            let kind = get_callback_kind(&mut c)?;
            let retained = get_retained(&mut c, h.aux)?;
            let rest = c.rest();
            let page_copy = (!rest.is_empty()).then(|| Arc::<[u8]>::from(rest));
            Request::CallbackComplete {
                kind,
                retained,
                page_copy,
            }
        }
        5 => Request::FetchPage { page: c.page()? },
        6 => Request::AllocatePage { txn: c.txn()? },
        7 => Request::ShipPage {
            replaced: c.bool()?,
            bytes: Arc::<[u8]>::from(c.rest()),
        },
        8 => Request::ForcePage { page: c.page()? },
        9 => {
            // A u16 count: it cannot size a large allocation.
            let n = c.u16()?;
            Request::CommitShipLog {
                touched: (0..n).map(|_| c.page()).collect::<Result<_>>()?,
                records: c.rest().to_vec(),
            }
        }
        10 => Request::FetchClientLog,
        11 => Request::ClientCrashed,
        12 => Request::RecoveryBegin,
        13 => Request::RecoveryEnd,
        14 => Request::RecoveryFetch {
            page: c.page()?,
            need: get_opt_evidence(&mut c)?,
        },
        15 => Request::RecoverClientPage { page: c.page()? },
        16 => Request::PollRecoveryNeeds,
        17 => Request::InstallRecovered {
            bytes: c.rest().to_vec(),
        },
        18 => Request::FetchPages {
            pages: get_page_ids(&mut c)?,
        },
        19 => Request::ShipPages {
            replaced: c.bool()?,
            pages: c.list(4, |c| Ok(Arc::<[u8]>::from(c.sized()?)))?,
        },
        20 => Request::ForcePages {
            pages: get_page_ids(&mut c)?,
        },
        other => return Err(corrupt(format!("bad request tag {other}"))),
    };
    c.done()?;
    Ok(req)
}

// ---- replies ---------------------------------------------------------------

fn reply_tag(r: &Reply) -> u16 {
    match r {
        Reply::Unit => 1,
        Reply::Err(_) => 2,
        Reply::LockGranted { .. } => 3,
        Reply::LockQueued => 4,
        Reply::Page { .. } => 5,
        Reply::PageImage(_) => 6,
        Reply::Bytes(_) => 7,
        Reply::Handshake { .. } => 8,
        Reply::RecoverPlan { .. } => 9,
        Reply::Needs(_) => 10,
        Reply::Pages(_) => 11,
    }
}

/// Encode a [`Reply`] under the originating request's correlation id.
pub fn encode_reply(corr: u64, r: &Reply) -> Result<Vec<Seg>> {
    let mut b = B::default();
    match r {
        Reply::Unit | Reply::LockQueued => {}
        Reply::Err(e) => put_wire_error(&mut b, e),
        Reply::LockGranted {
            target,
            first_exclusive_on_page,
            evidence,
            page,
        } => put_lock_grant(&mut b, target, *first_exclusive_on_page, evidence, page),
        Reply::Page { bytes, psn } => {
            b.opt_psn(*psn);
            b.raw(bytes);
        }
        Reply::PageImage(bytes) | Reply::Bytes(bytes) => b.raw(bytes),
        Reply::Handshake {
            locks,
            pages,
            dct_complete,
        } => {
            b.u32(locks.len() as u32);
            for t in locks {
                put_lock_target(&mut b, t);
            }
            b.u32(pages.len() as u32);
            for (p, psn) in pages {
                b.u64(p.0);
                b.opt_psn(*psn);
            }
            b.u8(*dct_complete as u8);
        }
        Reply::RecoverPlan {
            base,
            install_psn,
            callback_list,
        } => {
            b.u64(install_psn.0);
            put_psn_list(&mut b, callback_list);
            b.raw(base);
        }
        Reply::Needs(v) => {
            b.u32(v.len() as u32);
            for (p, psn) in v {
                b.u64(p.0);
                b.u64(psn.0);
            }
        }
        Reply::Pages(copies) => {
            b.u32(copies.len() as u32);
            for (bytes, psn) in copies {
                b.opt_psn(*psn);
                b.bytes(bytes);
            }
        }
    }
    checked(b.frame(FrameKind::Resp, 0, reply_tag(r), corr))
}

/// Decode a [`Reply`] frame body.
pub fn decode_reply(h: &FrameHeader, body: &[u8]) -> Result<Reply> {
    let mut c = Reader::new(body);
    let r = match h.tag {
        1 => Reply::Unit,
        2 => Reply::Err(get_wire_error(&mut c)?),
        3 => {
            let (target, first_exclusive_on_page, evidence, page) = get_lock_grant(&mut c)?;
            Reply::LockGranted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            }
        }
        4 => Reply::LockQueued,
        5 => Reply::Page {
            psn: c.opt_psn()?,
            bytes: c.rest().to_vec(),
        },
        6 => Reply::PageImage(c.rest().to_vec()),
        7 => Reply::Bytes(c.rest().to_vec()),
        8 => Reply::Handshake {
            locks: c.list(LOCK_TARGET, get_lock_target)?,
            pages: c.list(8 + 1, |c| Ok((c.page()?, c.opt_psn()?)))?,
            dct_complete: c.bool()?,
        },
        9 => Reply::RecoverPlan {
            install_psn: c.psn()?,
            callback_list: get_psn_list(&mut c)?,
            base: c.rest().to_vec(),
        },
        10 => Reply::Needs(c.list(16, |c| Ok((c.page()?, c.psn()?)))?),
        11 => Reply::Pages(c.list(1 + 4, |c| {
            let psn = c.opt_psn()?;
            Ok((c.sized()?.to_vec(), psn))
        })?),
        other => return Err(corrupt(format!("bad reply tag {other}"))),
    };
    c.done()?;
    Ok(r)
}

// ---- callbacks (reverse RPC) ----------------------------------------------

/// Bytes of one `(page, for_client, from_lsn)` query.
const LIST_QUERY: usize = 20;

fn callback_tag(cb: &Callback) -> u16 {
    match cb {
        Callback::DeliverBatch(_) => 1,
        Callback::NotifyFlushed(_) => 2,
        Callback::ReportState => 3,
        Callback::CallbackListsFor(_) => 4,
        Callback::ShipCachedPages(_) => 5,
        Callback::RecoverPages(_) => 6,
    }
}

/// Frame size of a callback batch carrying `n_kinds` callbacks.
pub fn callback_batch_len(n_kinds: usize) -> usize {
    HEADER + n_kinds * CALLBACK_KIND
}

/// Size of one callback outcome within a reply (excluding the shared
/// header): retained sets, blocker lists and any shipped page image.
fn outcome_len(outcome: &CallbackOutcome) -> usize {
    match outcome {
        CallbackOutcome::Done {
            retained,
            page_copy,
        } => 4 + retained.len() * RETAINED_ENTRY + page_copy.as_ref().map_or(0, |p| p.len()),
        CallbackOutcome::Deferred { blockers } => 4 + blockers.len() * BLOCKER_ENTRY,
    }
}

/// Frame size of a merged callback reply covering `outcomes`.
pub fn callback_reply_len(outcomes: &[CallbackOutcome]) -> usize {
    HEADER + outcomes.iter().map(outcome_len).sum::<usize>()
}

/// Frame size of a deferred-callback completion: the original kind, the
/// retained set and any shipped page image.
pub fn callback_complete_len(retained: usize, page_copy: Option<usize>) -> usize {
    HEADER + CALLBACK_KIND + retained * RETAINED_ENTRY + page_copy.unwrap_or(0)
}

/// Encode a [`Callback`] under a fresh server-side correlation id.
pub fn encode_callback(corr: u64, cb: &Callback) -> Result<Vec<Seg>> {
    let mut b = B::default();
    match cb {
        Callback::DeliverBatch(kinds) => {
            for k in kinds {
                put_callback_kind(&mut b, k);
            }
        }
        Callback::NotifyFlushed(p) => b.u64(p.0),
        Callback::ShipCachedPages(pages) => put_page_ids(&mut b, pages),
        Callback::ReportState => {}
        Callback::CallbackListsFor(queries) => {
            b.u32(queries.len() as u32);
            for (page, for_client, from_lsn) in queries {
                b.u64(page.0);
                b.u32(for_client.0);
                b.u64(from_lsn.0);
            }
        }
        Callback::RecoverPages(jobs) => {
            b.u32(jobs.len() as u32);
            for j in jobs {
                b.u64(j.page.0);
                b.u64(j.install_psn.0);
                put_psn_list(&mut b, &j.callback_list);
                b.u32(j.base.len() as u32);
                b.shared(j.base.clone());
            }
        }
    }
    checked(b.frame(FrameKind::Cb, 0, callback_tag(cb), corr))
}

/// Decode a [`Callback`] frame body.
pub fn decode_callback(h: &FrameHeader, body: &[u8]) -> Result<Callback> {
    let mut c = Reader::new(body);
    let cb = match h.tag {
        1 => {
            if !body.len().is_multiple_of(CALLBACK_KIND) {
                return Err(corrupt(format!(
                    "callback batch body of {} bytes is not a multiple of {}",
                    body.len(),
                    CALLBACK_KIND
                )));
            }
            let n = body.len() / CALLBACK_KIND;
            let kinds = (0..n).map(|_| get_callback_kind(&mut c));
            Callback::DeliverBatch(kinds.collect::<Result<_>>()?)
        }
        2 => Callback::NotifyFlushed(c.page()?),
        3 => Callback::ReportState,
        4 => Callback::CallbackListsFor(
            c.list(LIST_QUERY, |c| Ok((c.page()?, c.client()?, c.lsn()?)))?,
        ),
        5 => Callback::ShipCachedPages(get_page_ids(&mut c)?),
        6 => Callback::RecoverPages(c.list(8 + 8 + 4 + 4, |c| {
            Ok(RecoverJob {
                page: c.page()?,
                install_psn: c.psn()?,
                callback_list: get_psn_list(c)?,
                base: Arc::from(c.sized()?),
            })
        })?),
        other => return Err(corrupt(format!("bad callback tag {other}"))),
    };
    c.done()?;
    Ok(cb)
}

// ---- callback replies ------------------------------------------------------

fn callback_reply_tag(r: &CallbackReplyMsg) -> u16 {
    match r {
        CallbackReplyMsg::Outcomes(_) => 1,
        CallbackReplyMsg::State(_) => 2,
        CallbackReplyMsg::CallbackLists(_) => 3,
        CallbackReplyMsg::CachedPages(_) => 4,
        CallbackReplyMsg::RecoveredPages(_) => 5,
    }
}

/// Encode a [`CallbackReplyMsg`] under the originating callback's
/// correlation id.
pub fn encode_callback_reply(corr: u64, r: &CallbackReplyMsg) -> Result<Vec<Seg>> {
    let mut b = B::default();
    match r {
        CallbackReplyMsg::Outcomes(outcomes) => {
            for o in outcomes {
                put_outcome(&mut b, o)?;
            }
        }
        CallbackReplyMsg::State(s) => {
            b.u32(s.dpt.len() as u32);
            for e in &s.dpt {
                b.u64(e.page.0);
                b.u64(e.redo_lsn.0);
            }
            b.u32(s.cached_pages.len() as u32);
            for (p, psn) in &s.cached_pages {
                b.u64(p.0);
                b.u64(psn.0);
            }
            b.u32(s.locks.len() as u32);
            for t in &s.locks {
                put_lock_target(&mut b, t);
            }
        }
        CallbackReplyMsg::CallbackLists(lists) => {
            b.u32(lists.len() as u32);
            for v in lists {
                put_psn_list(&mut b, v);
            }
        }
        CallbackReplyMsg::CachedPages(copies) => {
            b.u32(copies.len() as u32);
            for p in copies {
                match p {
                    Some(bytes) => {
                        b.u8(1);
                        b.u32(bytes.len() as u32);
                        b.shared(bytes.clone());
                    }
                    None => b.u8(0),
                }
            }
        }
        CallbackReplyMsg::RecoveredPages(outcomes) => {
            b.u32(outcomes.len() as u32);
            for o in outcomes {
                let (tag, bytes) = match o {
                    RecoveredPageOutcome::Done(bytes) => (0, bytes.as_slice()),
                    RecoveredPageOutcome::Failed(msg) => (1, msg.as_bytes()),
                };
                b.u8(tag);
                b.bytes(bytes);
            }
        }
    }
    checked(b.frame(FrameKind::CbResp, 0, callback_reply_tag(r), corr))
}

/// Decode a [`CallbackReplyMsg`] frame body.
pub fn decode_callback_reply(h: &FrameHeader, body: &[u8]) -> Result<CallbackReplyMsg> {
    let mut c = Reader::new(body);
    let r = match h.tag {
        1 => {
            let mut outcomes = Vec::new();
            while c.remaining() > 0 {
                outcomes.push(get_outcome(&mut c)?);
            }
            CallbackReplyMsg::Outcomes(outcomes)
        }
        2 => CallbackReplyMsg::State(ClientStateReport {
            dpt: c.list(16, |c| {
                Ok(DptEntry {
                    page: c.page()?,
                    redo_lsn: c.lsn()?,
                })
            })?,
            cached_pages: c.list(16, |c| Ok((c.page()?, c.psn()?)))?,
            locks: c.list(LOCK_TARGET, get_lock_target)?,
        }),
        3 => CallbackReplyMsg::CallbackLists(c.list(4, get_psn_list)?),
        4 => CallbackReplyMsg::CachedPages(c.list(1, |c| match c.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Arc::<[u8]>::from(c.sized()?))),
            other => Err(corrupt(format!("bad cached-page tag {other}"))),
        })?),
        5 => CallbackReplyMsg::RecoveredPages(c.list(1 + 4, |c| {
            let tag = c.u8()?;
            let bytes = c.sized()?.to_vec();
            Ok(match tag {
                0 => RecoveredPageOutcome::Done(bytes),
                1 => RecoveredPageOutcome::Failed(
                    String::from_utf8(bytes)
                        .map_err(|_| corrupt("invalid utf-8 failure message".into()))?,
                ),
                other => return Err(corrupt(format!("bad recovered-page tag {other}"))),
            })
        })?),
        other => return Err(corrupt(format!("bad callback reply tag {other}"))),
    };
    c.done()?;
    Ok(r)
}

// ---- grants ----------------------------------------------------------------

/// Encode a [`GrantMsg`] under the original `Lock` request's correlation
/// id — this is how a blocking [`crate::GrantSlot`] wait crosses the
/// wire.
pub fn encode_grant(corr: u64, g: &GrantMsg) -> Vec<Seg> {
    let mut b = B::default();
    let tag = match g {
        GrantMsg::Victim => 0,
        GrantMsg::Granted {
            target,
            first_exclusive_on_page,
            evidence,
            page,
        } => {
            put_lock_grant(&mut b, target, *first_exclusive_on_page, evidence, page);
            1
        }
    };
    b.frame(FrameKind::Grant, 0, tag, corr)
}

/// Decode a [`GrantMsg`] frame body.
pub fn decode_grant(h: &FrameHeader, body: &[u8]) -> Result<GrantMsg> {
    let mut c = Reader::new(body);
    let g = match h.tag {
        0 => GrantMsg::Victim,
        1 => {
            let (target, first_exclusive_on_page, evidence, page) = get_lock_grant(&mut c)?;
            GrantMsg::Granted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            }
        }
        other => return Err(corrupt(format!("bad grant tag {other}"))),
    };
    c.done()?;
    Ok(g)
}

// ---- handshake -------------------------------------------------------------

/// Which of a client's two streams a `Hello` opens: **rpc** carries `Req`
/// and `CbResp` up and `Resp` down, **events** carries `Cb` and `Grant`
/// down and nothing up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamRole {
    Rpc = 0,
    Events = 1,
}

/// Encode the client → server handshake opening a `role` stream.
pub fn encode_hello(client: ClientId, role: StreamRole) -> Vec<Seg> {
    let mut b = B::default();
    b.u32(MAGIC);
    b.u16(WIRE_VERSION);
    b.u32(client.0);
    b.u8(role as u8);
    b.frame(FrameKind::Hello, 0, 0, 0)
}

/// Decode the handshake; checks magic and version first.
pub fn decode_hello(body: &[u8]) -> Result<(ClientId, StreamRole)> {
    let mut c = Reader::new(body);
    let magic = c.u32()?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad handshake magic {magic:#x}")));
    }
    let version = c.u16()?;
    if version != WIRE_VERSION {
        return Err(FglError::Protocol(format!(
            "wire version mismatch: peer speaks {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    let client = c.client()?;
    let role = match c.u8()? {
        0 => StreamRole::Rpc,
        1 => StreamRole::Events,
        other => return Err(corrupt(format!("bad stream role {other}"))),
    };
    c.done()?;
    Ok((client, role))
}

fn granularity_code(g: LockGranularity) -> u8 {
    match g {
        LockGranularity::Object => 0,
        LockGranularity::Page => 1,
        LockGranularity::Adaptive => 2,
    }
}

fn update_code(p: UpdatePolicy) -> u8 {
    match p {
        UpdatePolicy::MergeCopies => 0,
        UpdatePolicy::UpdateToken => 1,
    }
}

fn commit_code(p: CommitPolicy) -> u8 {
    match p {
        CommitPolicy::ClientLog => 0,
        CommitPolicy::ServerLog => 1,
        CommitPolicy::ShipPagesAtCommit => 2,
    }
}

fn strategy_code(s: LoggingStrategyKind) -> u8 {
    match s {
        LoggingStrategyKind::ClientAries => 0,
        LoggingStrategyKind::RedoOnly => 1,
    }
}

fn transport_code(t: TransportKind) -> u8 {
    match t {
        TransportKind::Sim => 0,
        TransportKind::Tcp => 1,
        TransportKind::Uds => 2,
    }
}

/// Encode the server → client handshake answer: the full
/// [`SystemConfig`], durations as nanoseconds, enums as byte codes.
pub fn encode_hello_ack(cfg: &SystemConfig) -> Vec<Seg> {
    let mut b = B::default();
    b.u16(WIRE_VERSION);
    b.u64(cfg.page_size as u64);
    b.u64(cfg.client_cache_pages as u64);
    b.u64(cfg.server_cache_pages as u64);
    b.u64(cfg.client_log_bytes);
    b.u64(cfg.server_log_bytes);
    b.u8(granularity_code(cfg.granularity));
    b.u8(update_code(cfg.update_policy));
    b.u8(commit_code(cfg.commit_policy));
    b.u8(strategy_code(cfg.logging_strategy));
    b.u8(transport_code(cfg.transport));
    b.u64(cfg.client_checkpoint_every);
    b.u64(cfg.server_checkpoint_every);
    b.u64(cfg.lock_timeout.as_nanos() as u64);
    b.u64(cfg.net_latency.as_nanos() as u64);
    b.u64(cfg.disk_latency.as_nanos() as u64);
    b.u64(cfg.server_instances as u64);
    b.u64(cfg.obs_ring_entries as u64);
    b.frame(FrameKind::HelloAck, 0, 0, 0)
}

/// Decode the handshake answer into a [`SystemConfig`].
pub fn decode_hello_ack(body: &[u8]) -> Result<SystemConfig> {
    let mut c = Reader::new(body);
    let version = c.u16()?;
    if version != WIRE_VERSION {
        return Err(FglError::Protocol(format!(
            "wire version mismatch: server speaks {version}, this build speaks {WIRE_VERSION}"
        )));
    }
    let page_size = c.u64()? as usize;
    let client_cache_pages = c.u64()? as usize;
    let server_cache_pages = c.u64()? as usize;
    let client_log_bytes = c.u64()?;
    let server_log_bytes = c.u64()?;
    let granularity = match c.u8()? {
        0 => LockGranularity::Object,
        1 => LockGranularity::Page,
        2 => LockGranularity::Adaptive,
        other => return Err(corrupt(format!("bad granularity code {other}"))),
    };
    let update_policy = match c.u8()? {
        0 => UpdatePolicy::MergeCopies,
        1 => UpdatePolicy::UpdateToken,
        other => return Err(corrupt(format!("bad update policy code {other}"))),
    };
    let commit_policy = match c.u8()? {
        0 => CommitPolicy::ClientLog,
        1 => CommitPolicy::ServerLog,
        2 => CommitPolicy::ShipPagesAtCommit,
        other => return Err(corrupt(format!("bad commit policy code {other}"))),
    };
    let logging_strategy = match c.u8()? {
        0 => LoggingStrategyKind::ClientAries,
        1 => LoggingStrategyKind::RedoOnly,
        other => return Err(corrupt(format!("bad logging strategy code {other}"))),
    };
    let transport = match c.u8()? {
        0 => TransportKind::Sim,
        1 => TransportKind::Tcp,
        2 => TransportKind::Uds,
        other => return Err(corrupt(format!("bad transport code {other}"))),
    };
    let client_checkpoint_every = c.u64()?;
    let server_checkpoint_every = c.u64()?;
    let lock_timeout = Duration::from_nanos(c.u64()?);
    let net_latency = Duration::from_nanos(c.u64()?);
    let disk_latency = Duration::from_nanos(c.u64()?);
    let server_instances = c.u64()? as usize;
    let obs_ring_entries = c.u64()? as usize;
    c.done()?;
    Ok(SystemConfig {
        page_size,
        client_cache_pages,
        server_cache_pages,
        client_log_bytes,
        server_log_bytes,
        granularity,
        update_policy,
        commit_policy,
        logging_strategy,
        client_checkpoint_every,
        server_checkpoint_every,
        lock_timeout,
        net_latency,
        disk_latency,
        server_instances,
        obs_ring_entries,
        transport,
    })
}
