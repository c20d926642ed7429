//! The real wire codec: length-prefixed frames for every [`Request`],
//! [`Reply`], [`Callback`], [`CallbackReplyMsg`] and [`GrantMsg`].
//!
//! Every encoder carries a `debug_assert` that its analytic `*_frame_len`
//! equals the bytes actually produced. The sim fabric charges the
//! callback-family messages through the same formulas
//! ([`callback_batch_len`], [`callback_reply_len`],
//! [`callback_complete_len`]), so a simulated run counts exactly the bytes
//! a socket run sends for them. The codec-alignment tests in
//! `tests/transport_codec.rs` assert both properties for every variant.
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
use fgl_common::{
    ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SlotId, SystemConfig, TxnId,
};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
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
pub const WIRE_VERSION: u16 = 9;
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

/// Accumulates a frame body: contiguous fixed-layout bytes coalesce into
/// `Owned` segments; shared page payloads are spliced in as `Shared`
/// segments without copying.
struct B {
    segs: Vec<Seg>,
    cur: Vec<u8>,
}

impl B {
    fn new() -> B {
        B {
            segs: Vec::new(),
            cur: Vec::new(),
        }
    }

    fn u8(&mut self, v: u8) {
        self.cur.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.cur.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.cur.extend_from_slice(v);
    }

    fn shared(&mut self, a: Arc<[u8]>) {
        if !self.cur.is_empty() {
            self.segs.push(Seg::Owned(std::mem::take(&mut self.cur)));
        }
        self.segs.push(Seg::Shared(a));
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Prefix the accumulated body with a header and return the segments.
    fn frame(mut self, kind: FrameKind, aux: u8, tag: u16, corr: u64) -> Vec<Seg> {
        if !self.cur.is_empty() {
            self.segs.push(Seg::Owned(std::mem::take(&mut self.cur)));
        }
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

// ---- cursor ----------------------------------------------------------------

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.b.len() {
            return Err(corrupt(format!(
                "truncated frame body: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.b.len()
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| corrupt("invalid utf-8 string".into()))
    }

    /// A u32 element count, refused when the rest of the body cannot
    /// hold that many elements of at least `min_elem` bytes — so a
    /// corrupt count never sizes an allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.b.len() - self.pos {
            return Err(corrupt(format!(
                "count {n} exceeds the {} bytes left in the frame body",
                self.b.len() - self.pos
            )));
        }
        Ok(n)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.b[self.pos..];
        self.pos = self.b.len();
        s
    }

    fn is_empty(&self) -> bool {
        self.pos == self.b.len()
    }

    fn done(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} trailing bytes after frame body",
                self.b.len() - self.pos
            )))
        }
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

fn psn_list_len(v: &[(ObjectId, Psn)]) -> usize {
    4 + v.len() * LIST_ENTRY
}

fn put_psn_list(b: &mut B, v: &[(ObjectId, Psn)]) {
    b.u32(v.len() as u32);
    for (o, p) in v {
        b.u64(o.page.0);
        b.u16(o.slot.0);
        b.u64(p.0);
    }
}

fn get_psn_list(c: &mut Cur) -> Result<Vec<(ObjectId, Psn)>> {
    let n = c.count(LIST_ENTRY)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let page = PageId(c.u64()?);
        let slot = SlotId(c.u16()?);
        v.push((ObjectId { page, slot }, Psn(c.u64()?)));
    }
    Ok(v)
}

fn lock_target_len(t: &LockTarget) -> usize {
    match t {
        LockTarget::Object(..) | LockTarget::Page(..) => 12,
        LockTarget::PageAdaptive(..) => 22,
    }
}

fn put_lock_target(b: &mut B, t: &LockTarget) {
    match t {
        LockTarget::Object(o, m) => {
            b.u8(0);
            b.u8(obj_mode_code(*m));
            b.u64(o.page.0);
            b.u16(o.slot.0);
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
            b.u64(o.page.0);
            b.u16(o.slot.0);
        }
    }
}

fn get_lock_target(c: &mut Cur) -> Result<LockTarget> {
    let tag = c.u8()?;
    let mode = obj_mode(c.u8()?)?;
    let page = PageId(c.u64()?);
    let slot = c.u16()?;
    Ok(match tag {
        0 => LockTarget::Object(
            ObjectId {
                page,
                slot: SlotId(slot),
            },
            mode,
        ),
        1 => LockTarget::Page(page, mode),
        2 => {
            let opage = PageId(c.u64()?);
            let oslot = SlotId(c.u16()?);
            LockTarget::PageAdaptive(
                page,
                mode,
                ObjectId {
                    page: opage,
                    slot: oslot,
                },
            )
        }
        other => return Err(corrupt(format!("bad lock target tag {other}"))),
    })
}

fn opt_psn_len(p: &Option<Psn>) -> usize {
    if p.is_some() {
        9
    } else {
        1
    }
}

fn put_opt_psn(b: &mut B, p: &Option<Psn>) {
    match p {
        Some(p) => {
            b.u8(1);
            b.u64(p.0);
        }
        None => b.u8(0),
    }
}

fn get_opt_psn(c: &mut Cur) -> Result<Option<Psn>> {
    Ok(match c.u8()? {
        0 => None,
        _ => Some(Psn(c.u64()?)),
    })
}

fn opt_evidence_len(e: &Option<(ClientId, Psn)>) -> usize {
    if e.is_some() {
        13
    } else {
        1
    }
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

fn get_opt_evidence(c: &mut Cur) -> Result<Option<(ClientId, Psn)>> {
    Ok(match c.u8()? {
        0 => None,
        _ => Some((ClientId(c.u32()?), Psn(c.u64()?))),
    })
}

/// A grant's optional page: a u32 length, 0 for no page (a page is never
/// empty), then the bytes.
fn opt_page_len(p: &Option<Vec<u8>>) -> usize {
    4 + p.as_ref().map_or(0, Vec::len)
}

fn put_opt_page(b: &mut B, p: &Option<Vec<u8>>) {
    let bytes = p.as_deref().unwrap_or_default();
    b.u32(bytes.len() as u32);
    b.bytes(bytes);
}

fn get_opt_page(c: &mut Cur) -> Result<Option<Vec<u8>>> {
    // The length is checked against the bytes left before anything is
    // allocated for it.
    let n = c.count(1)?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(c.take(n)?.to_vec()))
}

/// A list of page ids: a u32 count, then 8 bytes per id.
fn page_ids_len(pages: &[PageId]) -> usize {
    4 + 8 * pages.len()
}

fn put_page_ids(b: &mut B, pages: &[PageId]) {
    b.u32(pages.len() as u32);
    for p in pages {
        b.u64(p.0);
    }
}

fn get_page_ids(c: &mut Cur) -> Result<Vec<PageId>> {
    let n = c.count(8)?;
    (0..n).map(|_| Ok(PageId(c.u64()?))).collect()
}

/// A length-prefixed byte string inside a list: a u32 length, then the
/// bytes. The length is checked against the bytes left before anything
/// is allocated for it.
fn get_sized<'a>(c: &mut Cur<'a>) -> Result<&'a [u8]> {
    let n = c.count(1)?;
    c.take(n)
}

/// The fields every lock grant carries, in [`Reply::LockGranted`] and in
/// a `Grant` frame alike.
fn lock_grant_len(
    target: &LockTarget,
    evidence: &Option<(ClientId, Psn)>,
    page: &Option<Vec<u8>>,
) -> usize {
    lock_target_len(target) + 1 + opt_evidence_len(evidence) + opt_page_len(page)
}

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

fn get_lock_grant(c: &mut Cur) -> Result<LockGrant> {
    Ok((
        get_lock_target(c)?,
        c.u8()? != 0,
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

fn get_callback_kind(c: &mut Cur) -> Result<CallbackKind> {
    let tag = c.u8()?;
    let _pad = c.u8()?;
    let slot = SlotId(c.u16()?);
    let page = PageId(c.u64()?);
    let obj = ObjectId { page, slot };
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
        b.u64(o.page.0);
        b.u16(o.slot.0);
        b.u8(obj_mode_code(*m));
        b.u8(0);
    }
}

fn get_retained(c: &mut Cur, n: usize) -> Result<Vec<(ObjectId, ObjMode)>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let page = PageId(c.u64()?);
        let slot = SlotId(c.u16()?);
        let mode = obj_mode(c.u8()?)?;
        let _pad = c.u8()?;
        out.push((ObjectId { page, slot }, mode));
    }
    Ok(out)
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

fn get_outcome(c: &mut Cur) -> Result<CallbackOutcome> {
    match c.u8()? {
        0 => {
            let n = c.u8()? as usize;
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
            let n = c.u16()? as usize;
            let mut blockers = Vec::with_capacity(n);
            for _ in 0..n {
                blockers.push(TxnId(c.u64()?));
            }
            Ok(CallbackOutcome::Deferred { blockers })
        }
        other => Err(corrupt(format!("bad callback outcome tag {other}"))),
    }
}

fn wire_error_len(e: &WireError) -> usize {
    1 + match e {
        WireError::Io(s)
        | WireError::UnknownSavepoint(s)
        | WireError::Corrupt(s)
        | WireError::Disconnected(s)
        | WireError::Protocol(s)
        | WireError::Config(s) => 4 + s.len(),
        WireError::PageNotFound(_) => 8,
        WireError::ObjectNotFound(_) => 10,
        WireError::PageFull { .. } => 24,
        WireError::DeadlockVictim(_) | WireError::LockTimeout(_) | WireError::TxnAborted(_) => 8,
        WireError::InvalidTxnState { state, .. } => 8 + 4 + state.len(),
        WireError::LogFull => 0,
    }
}

fn put_wire_error(b: &mut B, e: &WireError) {
    match e {
        WireError::Io(s) => {
            b.u8(1);
            b.str(s);
        }
        WireError::PageNotFound(p) => {
            b.u8(2);
            b.u64(p.0);
        }
        WireError::ObjectNotFound(o) => {
            b.u8(3);
            b.u64(o.page.0);
            b.u16(o.slot.0);
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
            b.str(state);
        }
        WireError::UnknownSavepoint(s) => {
            b.u8(9);
            b.str(s);
        }
        WireError::LogFull => b.u8(10),
        WireError::Corrupt(s) => {
            b.u8(11);
            b.str(s);
        }
        WireError::Disconnected(s) => {
            b.u8(12);
            b.str(s);
        }
        WireError::Protocol(s) => {
            b.u8(13);
            b.str(s);
        }
        WireError::Config(s) => {
            b.u8(14);
            b.str(s);
        }
    }
}

fn get_wire_error(c: &mut Cur) -> Result<WireError> {
    Ok(match c.u8()? {
        1 => WireError::Io(c.str()?),
        2 => WireError::PageNotFound(PageId(c.u64()?)),
        3 => WireError::ObjectNotFound(ObjectId {
            page: PageId(c.u64()?),
            slot: SlotId(c.u16()?),
        }),
        4 => WireError::PageFull {
            page: PageId(c.u64()?),
            needed: c.u64()?,
            free: c.u64()?,
        },
        5 => WireError::DeadlockVictim(TxnId(c.u64()?)),
        6 => WireError::LockTimeout(TxnId(c.u64()?)),
        7 => WireError::TxnAborted(TxnId(c.u64()?)),
        8 => WireError::InvalidTxnState {
            txn: TxnId(c.u64()?),
            state: c.str()?,
        },
        9 => WireError::UnknownSavepoint(c.str()?),
        10 => WireError::LogFull,
        11 => WireError::Corrupt(c.str()?),
        12 => WireError::Disconnected(c.str()?),
        13 => WireError::Protocol(c.str()?),
        14 => WireError::Config(c.str()?),
        other => return Err(corrupt(format!("bad wire error tag {other}"))),
    })
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

/// Analytic frame size of an encoded [`Request`] — asserted equal to the
/// actual encoding in debug builds and tests.
pub fn request_frame_len(req: &Request) -> usize {
    HEADER
        + match req {
            Request::Register
            | Request::FetchClientLog
            | Request::ClientCrashed
            | Request::RecoveryBegin
            | Request::RecoveryEnd
            | Request::PollRecoveryNeeds => 0,
            Request::Lock {
                target, cached_psn, ..
            } => 8 + lock_target_len(target) + opt_psn_len(cached_psn),
            Request::CancelWait { .. }
            | Request::FetchPage { .. }
            | Request::AllocatePage { .. }
            | Request::ForcePage { .. }
            | Request::RecoverClientPage { .. } => 8,
            Request::CallbackComplete {
                retained,
                page_copy,
                ..
            } => {
                callback_complete_len(retained.len(), page_copy.as_ref().map(|p| p.len())) - HEADER
            }
            Request::ShipPage { bytes, .. } => 1 + bytes.len(),
            Request::CommitShipLog { records, touched } => 2 + 8 * touched.len() + records.len(),
            Request::RecoveryFetch { need, .. } => 8 + opt_evidence_len(need),
            Request::InstallRecovered { bytes } => bytes.len(),
            Request::FetchPages { pages } | Request::ForcePages { pages } => page_ids_len(pages),
            Request::ShipPages { pages, .. } => {
                1 + 4 + pages.iter().map(|p| 4 + p.len()).sum::<usize>()
            }
        }
}

/// Encode a [`Request`] under correlation id `corr`.
pub fn encode_request(corr: u64, req: &Request) -> Result<Vec<Seg>> {
    check_frame_len(request_frame_len(req))?;
    let mut b = B::new();
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
            put_opt_psn(&mut b, cached_psn);
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
            b.bytes(records);
        }
        Request::RecoveryFetch { page, need } => {
            b.u64(page.0);
            put_opt_evidence(&mut b, need);
        }
        Request::InstallRecovered { bytes } => b.bytes(bytes),
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
    let segs = b.frame(FrameKind::Req, aux, request_tag(req), corr);
    debug_assert_eq!(frame_len(&segs), request_frame_len(req));
    Ok(segs)
}

/// Decode a [`Request`] frame body.
pub fn decode_request(h: &FrameHeader, body: &[u8]) -> Result<Request> {
    let mut c = Cur::new(body);
    let req = match h.tag {
        1 => Request::Register,
        2 => Request::Lock {
            txn: TxnId(c.u64()?),
            target: get_lock_target(&mut c)?,
            cached_psn: get_opt_psn(&mut c)?,
        },
        3 => Request::CancelWait {
            txn: TxnId(c.u64()?),
        },
        4 => {
            let kind = get_callback_kind(&mut c)?;
            let retained = get_retained(&mut c, h.aux as usize)?;
            let rest = c.rest();
            let page_copy = if rest.is_empty() {
                None
            } else {
                Some(Arc::<[u8]>::from(rest))
            };
            Request::CallbackComplete {
                kind,
                retained,
                page_copy,
            }
        }
        5 => Request::FetchPage {
            page: PageId(c.u64()?),
        },
        6 => Request::AllocatePage {
            txn: TxnId(c.u64()?),
        },
        7 => {
            let replaced = c.u8()? != 0;
            Request::ShipPage {
                bytes: Arc::<[u8]>::from(c.rest()),
                replaced,
            }
        }
        8 => Request::ForcePage {
            page: PageId(c.u64()?),
        },
        9 => {
            let n = c.u16()? as usize;
            let mut touched = Vec::with_capacity(n);
            for _ in 0..n {
                touched.push(PageId(c.u64()?));
            }
            Request::CommitShipLog {
                records: c.rest().to_vec(),
                touched,
            }
        }
        10 => Request::FetchClientLog,
        11 => Request::ClientCrashed,
        12 => Request::RecoveryBegin,
        13 => Request::RecoveryEnd,
        14 => Request::RecoveryFetch {
            page: PageId(c.u64()?),
            need: get_opt_evidence(&mut c)?,
        },
        15 => Request::RecoverClientPage {
            page: PageId(c.u64()?),
        },
        16 => Request::PollRecoveryNeeds,
        17 => Request::InstallRecovered {
            bytes: c.rest().to_vec(),
        },
        18 => Request::FetchPages {
            pages: get_page_ids(&mut c)?,
        },
        19 => {
            let replaced = c.u8()? != 0;
            let n = c.count(4)?;
            let pages = (0..n)
                .map(|_| Ok(Arc::<[u8]>::from(get_sized(&mut c)?)))
                .collect::<Result<_>>()?;
            Request::ShipPages { pages, replaced }
        }
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

/// Analytic frame size of an encoded [`Reply`].
pub fn reply_frame_len(r: &Reply) -> usize {
    HEADER
        + match r {
            Reply::Unit | Reply::LockQueued => 0,
            Reply::Err(e) => wire_error_len(e),
            Reply::LockGranted {
                target,
                evidence,
                page,
                ..
            } => lock_grant_len(target, evidence, page),
            Reply::Page { bytes, psn } => opt_psn_len(psn) + bytes.len(),
            Reply::PageImage(bytes) | Reply::Bytes(bytes) => bytes.len(),
            Reply::Handshake { locks, pages, .. } => {
                4 + locks.iter().map(lock_target_len).sum::<usize>()
                    + 4
                    + pages.iter().map(|(_, p)| 8 + opt_psn_len(p)).sum::<usize>()
                    + 1
            }
            Reply::RecoverPlan {
                base,
                callback_list,
                ..
            } => 8 + psn_list_len(callback_list) + base.len(),
            Reply::Needs(v) => 4 + v.len() * 16,
            Reply::Pages(copies) => {
                4 + copies
                    .iter()
                    .map(|(bytes, psn)| opt_psn_len(psn) + 4 + bytes.len())
                    .sum::<usize>()
            }
        }
}

/// Encode a [`Reply`] under the originating request's correlation id.
pub fn encode_reply(corr: u64, r: &Reply) -> Result<Vec<Seg>> {
    check_frame_len(reply_frame_len(r))?;
    let mut b = B::new();
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
            put_opt_psn(&mut b, psn);
            b.bytes(bytes);
        }
        Reply::PageImage(bytes) | Reply::Bytes(bytes) => b.bytes(bytes),
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
                put_opt_psn(&mut b, psn);
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
            b.bytes(base);
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
                put_opt_psn(&mut b, psn);
                b.u32(bytes.len() as u32);
                b.bytes(bytes);
            }
        }
    }
    let segs = b.frame(FrameKind::Resp, 0, reply_tag(r), corr);
    debug_assert_eq!(frame_len(&segs), reply_frame_len(r));
    Ok(segs)
}

/// Decode a [`Reply`] frame body.
pub fn decode_reply(h: &FrameHeader, body: &[u8]) -> Result<Reply> {
    let mut c = Cur::new(body);
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
            psn: get_opt_psn(&mut c)?,
            bytes: c.rest().to_vec(),
        },
        6 => Reply::PageImage(c.rest().to_vec()),
        7 => Reply::Bytes(c.rest().to_vec()),
        8 => {
            let n = c.u32()? as usize;
            let mut locks = Vec::with_capacity(n);
            for _ in 0..n {
                locks.push(get_lock_target(&mut c)?);
            }
            let n = c.u32()? as usize;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                let p = PageId(c.u64()?);
                pages.push((p, get_opt_psn(&mut c)?));
            }
            Reply::Handshake {
                locks,
                pages,
                dct_complete: c.u8()? != 0,
            }
        }
        9 => {
            let install_psn = Psn(c.u64()?);
            let callback_list = get_psn_list(&mut c)?;
            Reply::RecoverPlan {
                install_psn,
                callback_list,
                base: c.rest().to_vec(),
            }
        }
        10 => {
            let n = c.u32()? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((PageId(c.u64()?), Psn(c.u64()?)));
            }
            Reply::Needs(v)
        }
        11 => {
            let n = c.count(1 + 4)?;
            let copies = (0..n)
                .map(|_| {
                    let psn = get_opt_psn(&mut c)?;
                    Ok((get_sized(&mut c)?.to_vec(), psn))
                })
                .collect::<Result<_>>()?;
            Reply::Pages(copies)
        }
        other => return Err(corrupt(format!("bad reply tag {other}"))),
    };
    c.done()?;
    Ok(r)
}

// ---- callbacks (reverse RPC) ----------------------------------------------

/// Bytes of one `(page, for_client, from_lsn)` query.
const LIST_QUERY: usize = 20;

/// A frame the reader would refuse as out of range is refused by the
/// encoder, before it is built.
fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME {
        return Err(FglError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte frame limit"
        )));
    }
    Ok(())
}

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

/// Analytic frame size of an encoded [`Callback`].
pub fn callback_frame_len(cb: &Callback) -> usize {
    match cb {
        Callback::DeliverBatch(kinds) => callback_batch_len(kinds.len()),
        Callback::NotifyFlushed(_) => HEADER + 8,
        Callback::ShipCachedPages(pages) => HEADER + 4 + pages.len() * 8,
        Callback::ReportState => HEADER,
        Callback::CallbackListsFor(queries) => HEADER + 4 + queries.len() * LIST_QUERY,
        Callback::RecoverPages(jobs) => {
            HEADER
                + 4
                + jobs
                    .iter()
                    .map(|j| 8 + 8 + psn_list_len(&j.callback_list) + 4 + j.base.len())
                    .sum::<usize>()
        }
    }
}

/// Encode a [`Callback`] under a fresh server-side correlation id.
pub fn encode_callback(corr: u64, cb: &Callback) -> Result<Vec<Seg>> {
    check_frame_len(callback_frame_len(cb))?;
    let mut b = B::new();
    match cb {
        Callback::DeliverBatch(kinds) => {
            for k in kinds {
                put_callback_kind(&mut b, k);
            }
        }
        Callback::NotifyFlushed(p) => b.u64(p.0),
        Callback::ShipCachedPages(pages) => {
            b.u32(pages.len() as u32);
            for p in pages {
                b.u64(p.0);
            }
        }
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
    let segs = b.frame(FrameKind::Cb, 0, callback_tag(cb), corr);
    debug_assert_eq!(frame_len(&segs), callback_frame_len(cb));
    Ok(segs)
}

/// Decode a [`Callback`] frame body.
pub fn decode_callback(h: &FrameHeader, body: &[u8]) -> Result<Callback> {
    let mut c = Cur::new(body);
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
            let mut kinds = Vec::with_capacity(n);
            for _ in 0..n {
                kinds.push(get_callback_kind(&mut c)?);
            }
            Callback::DeliverBatch(kinds)
        }
        2 => Callback::NotifyFlushed(PageId(c.u64()?)),
        3 => Callback::ReportState,
        4 => {
            let n = c.count(LIST_QUERY)?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push((PageId(c.u64()?), ClientId(c.u32()?), Lsn(c.u64()?)));
            }
            Callback::CallbackListsFor(queries)
        }
        5 => {
            let n = c.count(8)?;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                pages.push(PageId(c.u64()?));
            }
            Callback::ShipCachedPages(pages)
        }
        6 => {
            let n = c.count(8 + 8 + 4 + 4)?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                let page = PageId(c.u64()?);
                let install_psn = Psn(c.u64()?);
                let callback_list = get_psn_list(&mut c)?;
                let base_len = c.u32()? as usize;
                jobs.push(RecoverJob {
                    page,
                    base: Arc::from(c.take(base_len)?),
                    install_psn,
                    callback_list,
                });
            }
            Callback::RecoverPages(jobs)
        }
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

/// Analytic frame size of an encoded [`CallbackReplyMsg`].
pub fn callback_reply_frame_len(r: &CallbackReplyMsg) -> usize {
    match r {
        CallbackReplyMsg::Outcomes(outcomes) => callback_reply_len(outcomes),
        CallbackReplyMsg::State(s) => {
            HEADER
                + 4
                + s.dpt.len() * 16
                + 4
                + s.cached_pages.len() * 16
                + 4
                + s.locks.iter().map(lock_target_len).sum::<usize>()
        }
        CallbackReplyMsg::CallbackLists(lists) => {
            HEADER + 4 + lists.iter().map(|v| psn_list_len(v)).sum::<usize>()
        }
        CallbackReplyMsg::CachedPages(copies) => {
            HEADER
                + 4
                + copies
                    .iter()
                    .map(|p| 1 + p.as_ref().map_or(0, |b| 4 + b.len()))
                    .sum::<usize>()
        }
        CallbackReplyMsg::RecoveredPages(outcomes) => {
            HEADER
                + 4
                + outcomes
                    .iter()
                    .map(|o| {
                        1 + 4
                            + match o {
                                RecoveredPageOutcome::Done(bytes) => bytes.len(),
                                RecoveredPageOutcome::Failed(msg) => msg.len(),
                            }
                    })
                    .sum::<usize>()
        }
    }
}

/// Encode a [`CallbackReplyMsg`] under the originating callback's
/// correlation id.
pub fn encode_callback_reply(corr: u64, r: &CallbackReplyMsg) -> Result<Vec<Seg>> {
    check_frame_len(callback_reply_frame_len(r))?;
    let mut b = B::new();
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
                b.u32(bytes.len() as u32);
                b.bytes(bytes);
            }
        }
    }
    let segs = b.frame(FrameKind::CbResp, 0, callback_reply_tag(r), corr);
    debug_assert_eq!(frame_len(&segs), callback_reply_frame_len(r));
    Ok(segs)
}

/// Decode a [`CallbackReplyMsg`] frame body.
pub fn decode_callback_reply(h: &FrameHeader, body: &[u8]) -> Result<CallbackReplyMsg> {
    let mut c = Cur::new(body);
    let r = match h.tag {
        1 => {
            let mut outcomes = Vec::new();
            while !c.is_empty() {
                outcomes.push(get_outcome(&mut c)?);
            }
            CallbackReplyMsg::Outcomes(outcomes)
        }
        2 => {
            let n = c.u32()? as usize;
            let mut dpt = Vec::with_capacity(n);
            for _ in 0..n {
                dpt.push(DptEntry {
                    page: PageId(c.u64()?),
                    redo_lsn: Lsn(c.u64()?),
                });
            }
            let n = c.u32()? as usize;
            let mut cached_pages = Vec::with_capacity(n);
            for _ in 0..n {
                cached_pages.push((PageId(c.u64()?), Psn(c.u64()?)));
            }
            let n = c.u32()? as usize;
            let mut locks = Vec::with_capacity(n);
            for _ in 0..n {
                locks.push(get_lock_target(&mut c)?);
            }
            CallbackReplyMsg::State(ClientStateReport {
                dpt,
                cached_pages,
                locks,
            })
        }
        3 => {
            let n = c.count(4)?;
            let mut lists = Vec::with_capacity(n);
            for _ in 0..n {
                lists.push(get_psn_list(&mut c)?);
            }
            CallbackReplyMsg::CallbackLists(lists)
        }
        4 => {
            let n = c.count(1)?;
            let mut copies = Vec::with_capacity(n);
            for _ in 0..n {
                copies.push(match c.u8()? {
                    0 => None,
                    1 => {
                        let len = c.count(1)?;
                        Some(Arc::<[u8]>::from(c.take(len)?))
                    }
                    other => return Err(corrupt(format!("bad cached-page tag {other}"))),
                });
            }
            CallbackReplyMsg::CachedPages(copies)
        }
        5 => {
            let n = c.count(1 + 4)?;
            let mut outcomes = Vec::with_capacity(n);
            for _ in 0..n {
                let tag = c.u8()?;
                let len = c.u32()? as usize;
                let bytes = c.take(len)?.to_vec();
                outcomes.push(match tag {
                    0 => RecoveredPageOutcome::Done(bytes),
                    1 => RecoveredPageOutcome::Failed(
                        String::from_utf8(bytes)
                            .map_err(|_| corrupt("invalid utf-8 failure message".into()))?,
                    ),
                    other => return Err(corrupt(format!("bad recovered-page tag {other}"))),
                });
            }
            CallbackReplyMsg::RecoveredPages(outcomes)
        }
        other => return Err(corrupt(format!("bad callback reply tag {other}"))),
    };
    c.done()?;
    Ok(r)
}

// ---- grants ----------------------------------------------------------------

/// Analytic frame size of an encoded [`GrantMsg`].
pub fn grant_frame_len(g: &GrantMsg) -> usize {
    HEADER
        + match g {
            GrantMsg::Victim => 0,
            GrantMsg::Granted {
                target,
                evidence,
                page,
                ..
            } => lock_grant_len(target, evidence, page),
        }
}

/// Encode a [`GrantMsg`] under the original `Lock` request's correlation
/// id — this is how a blocking [`crate::GrantSlot`] wait crosses the
/// wire.
pub fn encode_grant(corr: u64, g: &GrantMsg) -> Vec<Seg> {
    let mut b = B::new();
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
    let segs = b.frame(FrameKind::Grant, 0, tag, corr);
    debug_assert_eq!(frame_len(&segs), grant_frame_len(g));
    segs
}

/// Decode a [`GrantMsg`] frame body.
pub fn decode_grant(h: &FrameHeader, body: &[u8]) -> Result<GrantMsg> {
    let mut c = Cur::new(body);
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
    let mut b = B::new();
    b.u32(MAGIC);
    b.u16(WIRE_VERSION);
    b.u32(client.0);
    b.u8(role as u8);
    b.frame(FrameKind::Hello, 0, 0, 0)
}

/// Decode the handshake; checks magic and version first.
pub fn decode_hello(body: &[u8]) -> Result<(ClientId, StreamRole)> {
    let mut c = Cur::new(body);
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
    let client = ClientId(c.u32()?);
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
        LoggingStrategyKind::Hybrid => 2,
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
    let mut b = B::new();
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
    let mut c = Cur::new(body);
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
        2 => LoggingStrategyKind::Hybrid,
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
