//! The typed log records of the paper.
//!
//! Client private logs contain: `Begin`, `Update`, `Clr`, `Commit`,
//! `Abort`, `Callback` (§3.1) and `ClientCheckpoint` (§3.2) records, plus
//! `RedoUpdate` and `UndoSpill` records from transactions that log
//! redo-only (DESIGN §9).
//! The server log contains `Replacement` (§3.1) and `ServerCheckpoint`
//! (§3.2) records. One payload enum covers both so the log machinery is
//! shared.

use crate::codec::{Reader, Writer};
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SlotId, TxnId};

/// An object update (or its redo image). §2: *"Log records describing an
/// update on a page contain among other fields the page id and the PSN the
/// page had just before it was updated."*
///
/// Before/after are full object images; `None` means "object absent"
/// (so insert = `None -> Some`, delete = `Some -> None`, overwrite =
/// `Some -> Some`). Structural updates (size change, create, delete) are
/// flagged: they are the *non-mergeable* updates of §3.1 requiring a
/// page-level exclusive lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateRecord {
    pub txn: TxnId,
    /// Backward chain within the transaction (ARIES PrevLSN).
    pub prev_lsn: Lsn,
    pub object: ObjectId,
    /// PSN of the page immediately before this update was applied.
    pub psn_before: Psn,
    pub before: Option<Vec<u8>>,
    pub after: Option<Vec<u8>>,
    pub structural: bool,
}

/// Compensation log record written while rolling back (ARIES CLR):
/// redo-only, chains via `undo_next` to the next record to undo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClrRecord {
    pub txn: TxnId,
    pub prev_lsn: Lsn,
    /// Next record of the transaction to undo (PrevLSN of the compensated
    /// update).
    pub undo_next: Lsn,
    pub object: ObjectId,
    /// PSN of the page immediately before the compensating write.
    pub psn_before: Psn,
    /// The state the compensation installed (the original before-image).
    pub after: Option<Vec<u8>>,
}

/// Callback log record (§3.1): written by the client that *triggered* a
/// callback for an exclusive lock, recording which client responded and
/// the PSN the page had when that client sent it to the server. Used
/// during server restart recovery to reconstruct the inter-client update
/// order on an object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallbackRecord {
    pub object: ObjectId,
    /// The client that responded to the callback (previous holder).
    pub from_client: ClientId,
    /// PSN of the page when `from_client` shipped it to the server.
    pub psn: Psn,
}

/// Replacement log record (§3.1): forced by the server right before it
/// writes a page to disk. Records the page PSN plus, per updating client,
/// the PSN the server last remembered for that client — this is what makes
/// Property 2 hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplacementRecord {
    pub page: PageId,
    /// PSN on the page copy being written to disk.
    pub psn: Psn,
    /// `(client, PSN the server remembers for that client)` for every DCT
    /// entry about this page.
    pub clients: Vec<(ClientId, Psn)>,
}

/// Client dirty-page-table entry (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DptEntry {
    pub page: PageId,
    /// LSN of the earliest log record that may need redo for this page.
    pub redo_lsn: Lsn,
}

/// Server dirty-client-table entry (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DctEntry {
    pub page: PageId,
    pub client: ClientId,
    /// PSN of the page the last time it was received from the client
    /// (`None` until first received; §3.2 stores the PSN at first X-lock
    /// grant, which we model as `Some` at grant time).
    pub psn: Option<Psn>,
    /// LSN of the first replacement log record written for the page
    /// (`None` until one is written).
    pub redo_lsn: Option<Lsn>,
}

/// An object update whose before-image was deliberately not logged: the
/// record a redo-only transaction writes (Sauer & Härder, arXiv
/// 1409.3682). Its undo information stays in client memory until the
/// page carrying the update leaves the client ([`UndoSpillRecord`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoUpdateRecord {
    pub txn: TxnId,
    /// Backward chain within the transaction (ARIES PrevLSN).
    pub prev_lsn: Lsn,
    pub object: ObjectId,
    /// PSN of the page immediately before this update was applied.
    pub psn_before: Psn,
    /// `None` means "object deleted".
    pub after: Option<Vec<u8>>,
    pub structural: bool,
}

/// First-touch before-image of one object a redo-only transaction
/// updated, written right before the dirty page carrying that update
/// leaves the client (the steal point). It is the only undo information
/// a redo-only loser leaves behind, and exactly enough: updates that
/// never shipped need no undo after a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoSpillRecord {
    pub txn: TxnId,
    pub object: ObjectId,
    /// `None` means "object was absent before the transaction touched it"
    /// (undo frees the slot).
    pub before: Option<Vec<u8>>,
}

/// Every record that can appear in a log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start.
    Begin { txn: TxnId },
    /// Object update.
    Update(UpdateRecord),
    /// Compensation record.
    Clr(ClrRecord),
    /// Transaction commit (forced to make the transaction durable).
    Commit { txn: TxnId, prev_lsn: Lsn },
    /// Transaction fully rolled back.
    Abort { txn: TxnId, prev_lsn: Lsn },
    /// Callback log record.
    Callback(CallbackRecord),
    /// Client fuzzy checkpoint: active transactions (with their last LSN)
    /// and the DPT (§3.2).
    ClientCheckpoint {
        active_txns: Vec<(TxnId, Lsn)>,
        dpt: Vec<DptEntry>,
    },
    /// Server replacement record.
    Replacement(ReplacementRecord),
    /// Server fuzzy checkpoint: the DCT (§3.2).
    ServerCheckpoint { dct: Vec<DctEntry> },
    /// Redo-only object update.
    RedoUpdate(RedoUpdateRecord),
    /// Spilled before-image of a redo-only transaction.
    UndoSpill(UndoSpillRecord),
}

/// The [`LogPayload`] variant a record encodes; indexes [`KIND_NAMES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RecordKind {
    #[default]
    Begin,
    Update,
    Clr,
    Commit,
    Abort,
    Callback,
    ClientCheckpoint,
    Replacement,
    ServerCheckpoint,
    RedoUpdate,
    UndoSpill,
}

impl RecordKind {
    /// An update, CLR or redo-only update: a record redo applies.
    pub fn redoes(self) -> bool {
        matches!(self, Self::Update | Self::Clr | Self::RedoUpdate)
    }
}

/// Per-kind names, indexed by [`RecordKind`]; used for the per-kind
/// appended-byte accounting in the log manager.
pub const KIND_NAMES: [&str; 11] = [
    "begin",
    "update",
    "clr",
    "commit",
    "abort",
    "callback",
    "client_ckpt",
    "replacement",
    "server_ckpt",
    "redo_update",
    "undo_spill",
];

// The tag byte is `1kkk_kfff`: the format bit, the kind, the flags. The
// fixed-width layout before it opened every record with a tag 1–12, so
// such a record is refused as of another format, not misread.
const FORMAT: u8 = 0x80;
const STRUCTURAL: u8 = 1;
const BEFORE: u8 = 1 << 1;
const AFTER: u8 = 1 << 2;

// The header's varint fields, in the order they are written.
const TXN: u8 = 1; // two varints: client, then local sequence number
const PREV: u8 = 1 << 1;
const UNDO_NEXT: u8 = 1 << 2;
const PAGE: u8 = 1 << 3;
const SLOT: u8 = 1 << 4;
const PSN: u8 = 1 << 5;
const CLIENT: u8 = 1 << 6; // a callback's responding client
/// Not a field: u32-counted lists follow the header.
const LISTS: u8 = 1 << 7;

/// The fields of an update and of a redo-only update.
const UPDATE: u8 = TXN | PREV | PAGE | SLOT | PSN;

/// Per kind, in [`KIND_NAMES`] order: the header fields it carries and
/// the flags it may set.
const LAYOUT: [(RecordKind, u8, u8); 11] = [
    (RecordKind::Begin, TXN, 0),
    (RecordKind::Update, UPDATE, STRUCTURAL | BEFORE | AFTER),
    (RecordKind::Clr, UPDATE | UNDO_NEXT, AFTER),
    (RecordKind::Commit, TXN | PREV, 0),
    (RecordKind::Abort, TXN | PREV, 0),
    (RecordKind::Callback, PAGE | SLOT | PSN | CLIENT, 0),
    (RecordKind::ClientCheckpoint, LISTS, 0),
    (RecordKind::Replacement, PAGE | PSN | LISTS, 0),
    (RecordKind::ServerCheckpoint, LISTS, 0),
    (RecordKind::RedoUpdate, UPDATE, STRUCTURAL | AFTER),
    (RecordKind::UndoSpill, TXN | PAGE | SLOT, BEFORE),
];

/// A record's fixed-order header (tag, its kind's fields, image lengths)
/// and its images, borrowed in place; a field the kind lacks reads as
/// zero. A scan filters on it and decodes only what it keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecordHeader<'a> {
    pub kind: RecordKind,
    pub structural: bool,
    pub txn: TxnId,
    pub prev_lsn: Lsn,
    pub undo_next: Lsn,
    /// The object; a replacement record's page, at slot 0.
    pub object: ObjectId,
    /// `psn_before`; a callback's or replacement record's PSN.
    pub psn: Psn,
    /// A callback's responding client.
    pub from_client: ClientId,
    pub before: Option<&'a [u8]>,
    pub after: Option<&'a [u8]>,
    /// A checkpoint's or replacement record's lists, still encoded.
    lists: &'a [u8],
}

fn read_txn(r: &mut Reader) -> Result<TxnId> {
    Ok(TxnId::compose(ClientId(r.varint_as()?), r.varint_as()?))
}

/// The varint of field `bit`, or zero when `fields` leaves it out.
fn field<T: TryFrom<u64> + Default>(r: &mut Reader, fields: u8, bit: u8) -> Result<T> {
    if fields & bit == 0 {
        return Ok(T::default());
    }
    r.varint_as()
}

impl<'a> RecordHeader<'a> {
    /// Parse one whole record body up to its lists (if any): another
    /// format's tag, a flag the kind lacks, an overlong varint, an image
    /// past the end or a byte after the last image is `Corrupt`.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let &(kind, f, allowed) = LAYOUT
            .get(usize::from(tag >> 3 & 0xF))
            .filter(|_| tag & FORMAT != 0)
            .ok_or_else(|| {
                FglError::Corrupt(format!(
                    "log record tag {tag:#04x} is not of the varint record format \
                     (a record of the older fixed-width layout?)"
                ))
            })?;
        let flags = tag & 7;
        if flags & !allowed != 0 {
            let what = format!("{kind:?} record with flags {flags:#05b}");
            return Err(FglError::Corrupt(what));
        }
        // Struct fields evaluate in the order written: the wire order.
        let mut h = RecordHeader {
            kind,
            structural: flags & STRUCTURAL != 0,
            txn: TxnId::compose(ClientId(field(&mut r, f, TXN)?), field(&mut r, f, TXN)?),
            prev_lsn: Lsn(field(&mut r, f, PREV)?),
            undo_next: Lsn(field(&mut r, f, UNDO_NEXT)?),
            object: ObjectId::new(
                PageId(field(&mut r, f, PAGE)?),
                SlotId(field(&mut r, f, SLOT)?),
            ),
            psn: Psn(field(&mut r, f, PSN)?),
            from_client: ClientId(field(&mut r, f, CLIENT)?),
            ..Default::default()
        };
        let lens: [usize; 2] = [field(&mut r, flags, BEFORE)?, field(&mut r, flags, AFTER)?];
        h.before = (flags & BEFORE != 0).then(|| r.take(lens[0])).transpose()?;
        h.after = (flags & AFTER != 0).then(|| r.take(lens[1])).transpose()?;
        if f & LISTS == 0 {
            r.done()?;
        }
        h.lists = r.rest();
        Ok(h)
    }

    fn write(&self, w: &mut Writer) {
        let f = LAYOUT[self.kind as usize].1;
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        w.u8(FORMAT
            | (self.kind as u8) << 3
            | flag(self.structural, STRUCTURAL)
            | flag(self.before.is_some(), BEFORE)
            | flag(self.after.is_some(), AFTER));
        for (bit, v) in [
            (TXN, self.txn.client().0.into()),
            (TXN, self.txn.local_seq().into()),
            (PREV, self.prev_lsn.0),
            (UNDO_NEXT, self.undo_next.0),
            (PAGE, self.object.page.0),
            (SLOT, self.object.slot.0.into()),
            (PSN, self.psn.0),
            (CLIENT, self.from_client.0.into()),
        ] {
            if f & bit != 0 {
                w.varint(v);
            }
        }
        let images = [self.before, self.after];
        for image in images.iter().flatten() {
            w.varint(image.len() as u64);
        }
        for image in images.iter().flatten() {
            w.raw(image);
        }
    }

    /// The transaction the record belongs to, if its kind has one.
    pub fn txn(&self) -> Option<TxnId> {
        (LAYOUT[self.kind as usize].1 & TXN != 0).then_some(self.txn)
    }

    /// The page the record concerns, if its kind names one.
    pub fn page(&self) -> Option<PageId> {
        (LAYOUT[self.kind as usize].1 & PAGE != 0).then_some(self.object.page)
    }

    /// The whole record, images copied and lists read.
    pub fn decode(&self) -> Result<LogPayload> {
        use RecordKind as K;
        let image = |b: Option<&[u8]>| b.map(<[u8]>::to_vec);
        let (txn, prev_lsn, object, psn) = (self.txn, self.prev_lsn, self.object, self.psn);
        let mut r = Reader::new(self.lists);
        let payload = match self.kind {
            K::Begin => LogPayload::Begin { txn },
            K::Update => LogPayload::Update(UpdateRecord {
                txn,
                prev_lsn,
                object,
                psn_before: psn,
                before: image(self.before),
                after: image(self.after),
                structural: self.structural,
            }),
            K::Clr => LogPayload::Clr(ClrRecord {
                txn,
                prev_lsn,
                undo_next: self.undo_next,
                object,
                psn_before: psn,
                after: image(self.after),
            }),
            K::Commit => LogPayload::Commit { txn, prev_lsn },
            K::Abort => LogPayload::Abort { txn, prev_lsn },
            K::Callback => LogPayload::Callback(CallbackRecord {
                object,
                from_client: self.from_client,
                psn,
            }),
            K::ClientCheckpoint => LogPayload::ClientCheckpoint {
                active_txns: r.list(3, |r| Ok((read_txn(r)?, Lsn(r.varint()?))))?,
                dpt: r.list(2, |r| {
                    let page = PageId(r.varint()?);
                    Ok(DptEntry {
                        page,
                        redo_lsn: Lsn(r.varint()?),
                    })
                })?,
            },
            K::Replacement => LogPayload::Replacement(ReplacementRecord {
                page: object.page,
                psn,
                clients: r.list(2, |r| Ok((ClientId(r.varint_as()?), Psn(r.varint()?))))?,
            }),
            K::ServerCheckpoint => LogPayload::ServerCheckpoint {
                dct: r.list(3, |r| {
                    let (page, client) = (PageId(r.varint()?), ClientId(r.varint_as()?));
                    let present = r.u8()?;
                    if present > 3 {
                        return Err(FglError::Corrupt(format!("bad DCT entry flags {present}")));
                    }
                    let mut opt = |bit: u8| (present & bit != 0).then(|| r.varint()).transpose();
                    let psn = opt(1)?.map(Psn);
                    Ok(DctEntry {
                        page,
                        client,
                        psn,
                        redo_lsn: opt(2)?.map(Lsn),
                    })
                })?,
            },
            K::RedoUpdate => LogPayload::RedoUpdate(RedoUpdateRecord {
                txn,
                prev_lsn,
                object,
                psn_before: psn,
                after: image(self.after),
                structural: self.structural,
            }),
            K::UndoSpill => LogPayload::UndoSpill(UndoSpillRecord {
                txn,
                object,
                before: image(self.before),
            }),
        };
        r.done()?;
        Ok(payload)
    }
}

impl LogPayload {
    /// This record's header, borrowing its images. Always inlined, so a
    /// caller that reads one field (`page`, `kind_index`) builds no other.
    #[inline(always)]
    pub fn header(&self) -> RecordHeader<'_> {
        use RecordKind as K;
        let h = |kind| RecordHeader {
            kind,
            ..Default::default()
        };
        match self {
            LogPayload::Begin { txn } => RecordHeader {
                txn: *txn,
                ..h(K::Begin)
            },
            LogPayload::Update(u) => RecordHeader {
                structural: u.structural,
                txn: u.txn,
                prev_lsn: u.prev_lsn,
                object: u.object,
                psn: u.psn_before,
                before: u.before.as_deref(),
                after: u.after.as_deref(),
                ..h(K::Update)
            },
            LogPayload::Clr(c) => RecordHeader {
                txn: c.txn,
                prev_lsn: c.prev_lsn,
                undo_next: c.undo_next,
                object: c.object,
                psn: c.psn_before,
                after: c.after.as_deref(),
                ..h(K::Clr)
            },
            LogPayload::Commit { txn, prev_lsn } => RecordHeader {
                txn: *txn,
                prev_lsn: *prev_lsn,
                ..h(K::Commit)
            },
            LogPayload::Abort { txn, prev_lsn } => RecordHeader {
                txn: *txn,
                prev_lsn: *prev_lsn,
                ..h(K::Abort)
            },
            LogPayload::Callback(c) => RecordHeader {
                object: c.object,
                psn: c.psn,
                from_client: c.from_client,
                ..h(K::Callback)
            },
            LogPayload::ClientCheckpoint { .. } => h(K::ClientCheckpoint),
            LogPayload::Replacement(r) => RecordHeader {
                object: ObjectId::new(r.page, SlotId(0)),
                psn: r.psn,
                ..h(K::Replacement)
            },
            LogPayload::ServerCheckpoint { .. } => h(K::ServerCheckpoint),
            LogPayload::RedoUpdate(u) => RecordHeader {
                structural: u.structural,
                txn: u.txn,
                prev_lsn: u.prev_lsn,
                object: u.object,
                psn: u.psn_before,
                after: u.after.as_deref(),
                ..h(K::RedoUpdate)
            },
            LogPayload::UndoSpill(s) => RecordHeader {
                txn: s.txn,
                object: s.object,
                before: s.before.as_deref(),
                ..h(K::UndoSpill)
            },
        }
    }

    /// The page this record concerns, if any.
    pub fn page(&self) -> Option<PageId> {
        self.header().page()
    }

    /// Index into [`KIND_NAMES`] for this record's kind.
    pub fn kind_index(&self) -> usize {
        self.header().kind as usize
    }

    /// Stable snake_case name of this record's kind.
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Serialize to bytes (without framing/checksum — the log manager adds
    /// those).
    pub fn encode(&self) -> Vec<u8> {
        // Room for the common record, an update of two 64-byte images,
        // without regrowth.
        let mut out = Vec::with_capacity(160);
        self.encode_into(&mut out);
        out
    }

    /// Append exactly the bytes [`encode`](Self::encode) returns to `out`
    /// (the log manager frames records in a buffer it reuses).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::onto(std::mem::take(out));
        self.header().write(&mut w);
        let varints = |w: &mut Writer, vs: &[u64]| vs.iter().for_each(|&v| w.varint(v));
        match self {
            LogPayload::ClientCheckpoint { active_txns, dpt } => {
                w.u32(active_txns.len() as u32);
                for (t, l) in active_txns {
                    varints(&mut w, &[t.client().0.into(), t.local_seq().into(), l.0]);
                }
                w.u32(dpt.len() as u32);
                for e in dpt {
                    varints(&mut w, &[e.page.0, e.redo_lsn.0]);
                }
            }
            LogPayload::Replacement(r) => {
                w.u32(r.clients.len() as u32);
                for (c, p) in &r.clients {
                    varints(&mut w, &[c.0.into(), p.0]);
                }
            }
            LogPayload::ServerCheckpoint { dct } => {
                w.u32(dct.len() as u32);
                for e in dct {
                    varints(&mut w, &[e.page.0, e.client.0.into()]);
                    w.u8(u8::from(e.psn.is_some()) | u8::from(e.redo_lsn.is_some()) << 1);
                    for v in [e.psn.map(|p| p.0), e.redo_lsn.map(|l| l.0)]
                        .into_iter()
                        .flatten()
                    {
                        w.varint(v);
                    }
                }
            }
            _ => {}
        }
        *out = w.into_bytes();
    }

    /// Decode from bytes produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<LogPayload> {
        RecordHeader::parse(bytes)?.decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::rng::DetRng;

    fn obj(p: u64, s: u16) -> ObjectId {
        ObjectId::new(PageId(p), SlotId(s))
    }

    fn roundtrip(p: LogPayload) {
        let bytes = p.encode();
        let q = LogPayload::decode(&bytes).unwrap();
        assert_eq!(p, q);
        // `encode_into` appends exactly those bytes behind what is there.
        let mut framed = b"header".to_vec();
        p.encode_into(&mut framed);
        assert_eq!(&framed[..6], b"header");
        assert_eq!(&framed[6..], &bytes[..]);
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let txn = TxnId::compose(ClientId(1), 5);
        roundtrip(LogPayload::Begin { txn });
        roundtrip(LogPayload::Update(UpdateRecord {
            txn,
            prev_lsn: Lsn(10),
            object: obj(3, 2),
            psn_before: Psn(4),
            before: Some(b"old".to_vec()),
            after: Some(b"new".to_vec()),
            structural: false,
        }));
        roundtrip(LogPayload::Update(UpdateRecord {
            txn,
            prev_lsn: Lsn::NIL,
            object: obj(3, 2),
            psn_before: Psn(0),
            before: None,
            after: Some(b"created".to_vec()),
            structural: true,
        }));
        roundtrip(LogPayload::Clr(ClrRecord {
            txn,
            prev_lsn: Lsn(30),
            undo_next: Lsn(10),
            object: obj(3, 2),
            psn_before: Psn(7),
            after: None,
        }));
        roundtrip(LogPayload::Commit {
            txn,
            prev_lsn: Lsn(40),
        });
        roundtrip(LogPayload::Abort {
            txn,
            prev_lsn: Lsn(44),
        });
        roundtrip(LogPayload::Callback(CallbackRecord {
            object: obj(9, 0),
            from_client: ClientId(2),
            psn: Psn(12),
        }));
        roundtrip(LogPayload::ClientCheckpoint {
            active_txns: vec![(txn, Lsn(50))],
            dpt: vec![
                DptEntry {
                    page: PageId(1),
                    redo_lsn: Lsn(5),
                },
                DptEntry {
                    page: PageId(2),
                    redo_lsn: Lsn(9),
                },
            ],
        });
        roundtrip(LogPayload::Replacement(ReplacementRecord {
            page: PageId(4),
            psn: Psn(22),
            clients: vec![(ClientId(1), Psn(20)), (ClientId(2), Psn(21))],
        }));
        roundtrip(LogPayload::ServerCheckpoint {
            dct: vec![DctEntry {
                page: PageId(4),
                client: ClientId(1),
                psn: Some(Psn(20)),
                redo_lsn: None,
            }],
        });
    }

    /// Each redo-only kind is framed under its own kind, not wrapped in an
    /// envelope, and decodes back to the record it was.
    #[test]
    fn redo_only_records_roundtrip_as_native_kinds() {
        let txn = TxnId::compose(ClientId(3), 11);
        for rec in redo_only_records(txn) {
            let kind = match rec {
                LogPayload::RedoUpdate(_) => RecordKind::RedoUpdate,
                _ => RecordKind::UndoSpill,
            };
            assert_eq!(rec.encode()[0] >> 3 & 0xF, kind as u8, "{rec:?}");
            roundtrip(rec);
        }
    }

    /// Both redo-only kinds, each with and without an image.
    fn redo_only_records(txn: TxnId) -> [LogPayload; 4] {
        [
            LogPayload::RedoUpdate(RedoUpdateRecord {
                txn,
                prev_lsn: Lsn(64),
                object: obj(7, 4),
                psn_before: Psn(2),
                after: Some(b"redo image".to_vec()),
                structural: false,
            }),
            LogPayload::RedoUpdate(RedoUpdateRecord {
                txn,
                prev_lsn: Lsn::NIL,
                object: obj(7, 5),
                psn_before: Psn(0),
                after: None,
                structural: true,
            }),
            LogPayload::UndoSpill(UndoSpillRecord {
                txn,
                object: obj(7, 4),
                before: Some(b"old".to_vec()),
            }),
            LogPayload::UndoSpill(UndoSpillRecord {
                txn,
                object: obj(9, 0),
                before: None,
            }),
        ]
    }

    /// Bytes of `v` as a varint.
    fn varint_len(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
    }

    /// An optional image: its varint length and its bytes, or nothing.
    fn image_len(b: &Option<Vec<u8>>) -> usize {
        b.as_ref()
            .map_or(0, |b| varint_len(b.len() as u64) + b.len())
    }

    /// A transaction id: its client and its local sequence number.
    fn txn_len(txn: TxnId) -> usize {
        varint_len(txn.client().0.into()) + varint_len(txn.local_seq().into())
    }

    /// An object: its page and its slot.
    fn object_len(o: ObjectId) -> usize {
        varint_len(o.page.0) + varint_len(o.slot.0.into())
    }

    /// The encoded size of each redo-only kind, counted field by field:
    /// tag 1, txn, prev-LSN, object and PSN as varints, then each image
    /// present as its varint length and its bytes.
    #[test]
    fn redo_only_records_have_their_analytic_size() {
        let txn = TxnId::compose(ClientId(3), 11);
        for rec in redo_only_records(txn) {
            let want = match &rec {
                LogPayload::RedoUpdate(u) => {
                    1 + txn_len(u.txn)
                        + varint_len(u.prev_lsn.0)
                        + object_len(u.object)
                        + varint_len(u.psn_before.0)
                        + image_len(&u.after)
                }
                LogPayload::UndoSpill(s) => {
                    1 + txn_len(s.txn) + object_len(s.object) + image_len(&s.before)
                }
                _ => unreachable!(),
            };
            assert_eq!(rec.encode().len(), want, "{rec:?}");
        }
        // A redo-only update is a physical one without its before-image.
        let physical = LogPayload::Update(UpdateRecord {
            txn,
            prev_lsn: Lsn(64),
            object: obj(7, 4),
            psn_before: Psn(2),
            before: Some(b"old".to_vec()),
            after: Some(b"redo image".to_vec()),
            structural: false,
        });
        let redo = &redo_only_records(txn)[0];
        assert_eq!(physical.encode().len() - redo.encode().len(), 1 + 3);
    }

    /// The records of one `private_commit` transaction, at ids that run
    /// reaches (a fresh system per burst: LSNs below 2^28, local sequence
    /// numbers below 2^21, page ids and PSNs below 2^14), counted field by
    /// field and framed (`[len][checksum]`, 8 B): a begin is 13 B, a
    /// commit 17 B and an overwrite of a 64 B object 152 B, so a commit
    /// of 2.4 updates logs under 400 B.
    #[test]
    fn commit_records_have_their_analytic_size() {
        const FRAME: usize = 8;
        let txn = TxnId::compose(ClientId(1), (1 << 21) - 1);
        let prev_lsn = Lsn((1 << 28) - 1);
        let object = obj((1 << 14) - 1, 15);
        let update = UpdateRecord {
            txn,
            prev_lsn,
            object,
            psn_before: Psn((1 << 14) - 1),
            before: Some(vec![0xAA; 64]),
            after: Some(vec![0x55; 64]),
            structural: false,
        };
        let want_update = 1
            + txn_len(txn)
            + varint_len(prev_lsn.0)
            + object_len(object)
            + varint_len(update.psn_before.0)
            + image_len(&update.before)
            + image_len(&update.after);
        assert_eq!(
            (txn_len(txn), varint_len(prev_lsn.0), object_len(object)),
            (4, 4, 3)
        );
        let framed = |p: &LogPayload| FRAME + p.encode().len();
        let begin = framed(&LogPayload::Begin { txn });
        let commit = framed(&LogPayload::Commit { txn, prev_lsn });
        let update = framed(&LogPayload::Update(update));
        assert_eq!(update, FRAME + want_update);
        assert_eq!((begin, commit, update), (13, 17, 152));
        assert!((begin + commit) as f64 + 2.4 * (update as f64) < 400.0);
    }

    #[test]
    fn redo_only_records_cut_short_or_padded_are_corrupt() {
        let txn = TxnId::compose(ClientId(1), 2);
        for rec in redo_only_records(txn) {
            let bytes = rec.encode();
            for keep in 1..bytes.len() {
                assert!(
                    matches!(
                        LogPayload::decode(&bytes[..keep]),
                        Err(FglError::Corrupt(_))
                    ),
                    "{rec:?} cut to {keep} bytes"
                );
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(matches!(
                LogPayload::decode(&padded),
                Err(FglError::Corrupt(_))
            ));
        }
    }

    /// Tag 10 framed the strategy envelope the redo-only kinds replaced,
    /// and tags 1–12 opened every record of the fixed-width layout: no
    /// record of this format starts with one, and each is refused as of
    /// another format, not decoded as something else.
    #[test]
    fn the_retired_envelope_tag_is_corrupt() {
        let txn = TxnId::compose(ClientId(1), 2);
        for rec in redo_only_records(txn) {
            let mut bytes = rec.encode();
            assert!(bytes[0] > 12, "{rec:?}");
            for old in 1..=12 {
                bytes[0] = old;
                assert!(
                    matches!(LogPayload::decode(&bytes), Err(FglError::Corrupt(m)) if m.contains("record format")),
                    "tag {old}"
                );
            }
        }
        assert!(matches!(
            LogPayload::decode(&[10]),
            Err(FglError::Corrupt(_))
        ));
    }

    #[test]
    fn kind_names_cover_every_tag() {
        let txn = TxnId::compose(ClientId(0), 1);
        let all = [
            LogPayload::Begin { txn },
            LogPayload::Update(UpdateRecord {
                txn,
                prev_lsn: Lsn::NIL,
                object: obj(1, 0),
                psn_before: Psn(0),
                before: None,
                after: None,
                structural: false,
            }),
            LogPayload::Clr(ClrRecord {
                txn,
                prev_lsn: Lsn::NIL,
                undo_next: Lsn::NIL,
                object: obj(1, 0),
                psn_before: Psn(0),
                after: None,
            }),
            LogPayload::Commit {
                txn,
                prev_lsn: Lsn::NIL,
            },
            LogPayload::Abort {
                txn,
                prev_lsn: Lsn::NIL,
            },
            LogPayload::Callback(CallbackRecord {
                object: obj(1, 0),
                from_client: ClientId(0),
                psn: Psn(0),
            }),
            LogPayload::ClientCheckpoint {
                active_txns: vec![],
                dpt: vec![],
            },
            LogPayload::Replacement(ReplacementRecord {
                page: PageId(0),
                psn: Psn(0),
                clients: vec![],
            }),
            LogPayload::ServerCheckpoint { dct: vec![] },
            LogPayload::RedoUpdate(RedoUpdateRecord {
                txn,
                prev_lsn: Lsn::NIL,
                object: obj(1, 0),
                psn_before: Psn(0),
                after: None,
                structural: false,
            }),
            LogPayload::UndoSpill(UndoSpillRecord {
                txn,
                object: obj(1, 0),
                before: None,
            }),
        ];
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert_eq!(KIND_NAMES[p.kind_index()], p.kind_name());
            assert!(seen.insert(p.kind_index()), "duplicate kind index");
        }
        assert_eq!(seen.len(), KIND_NAMES.len());
    }

    #[test]
    fn empty_collections_roundtrip() {
        roundtrip(LogPayload::ClientCheckpoint {
            active_txns: vec![],
            dpt: vec![],
        });
        roundtrip(LogPayload::ServerCheckpoint { dct: vec![] });
        roundtrip(LogPayload::Replacement(ReplacementRecord {
            page: PageId(0),
            psn: Psn(0),
            clients: vec![],
        }));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(LogPayload::decode(&[99, 0, 0]).is_err());
        // Kinds 11–15 and a flag the kind does not have.
        assert!(LogPayload::decode(&[0x80 | 11 << 3, 0, 0]).is_err());
        let begin = LogPayload::Begin {
            txn: TxnId::compose(ClientId(0), 1),
        };
        let mut bytes = begin.encode();
        bytes[0] |= 1;
        assert!(LogPayload::decode(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = LogPayload::Begin {
            txn: TxnId::compose(ClientId(0), 1),
        }
        .encode();
        bytes.push(0xFF);
        assert!(LogPayload::decode(&bytes).is_err());
    }

    /// A list count the record cannot hold is `Corrupt` before it sizes
    /// an allocation: each list of every record kind that has one, with
    /// its count (after the tag, and a one-byte page and PSN for a
    /// replacement record) set to `u32::MAX`.
    #[test]
    fn hostile_list_counts_are_corrupt() {
        let lists = [
            (
                LogPayload::ClientCheckpoint {
                    active_txns: vec![],
                    dpt: vec![],
                },
                vec![1, 1 + 4],
            ),
            (
                LogPayload::Replacement(ReplacementRecord {
                    page: PageId(1),
                    psn: Psn(2),
                    clients: vec![],
                }),
                vec![1 + 2],
            ),
            (LogPayload::ServerCheckpoint { dct: vec![] }, vec![1]),
        ];
        for (record, counts) in lists {
            let bytes = record.encode();
            for at in counts {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let err = LogPayload::decode(&bad).unwrap_err();
                assert!(
                    matches!(&err, FglError::Corrupt(m) if m.contains("exceeds")),
                    "{record:?} count at {at}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn accessors() {
        let txn = TxnId::compose(ClientId(1), 1);
        let u = LogPayload::Update(UpdateRecord {
            txn,
            prev_lsn: Lsn::NIL,
            object: obj(5, 1),
            psn_before: Psn(0),
            before: None,
            after: None,
            structural: true,
        });
        assert_eq!(u.header().txn(), Some(txn));
        assert_eq!(u.page(), Some(PageId(5)));
        let ck = LogPayload::ServerCheckpoint { dct: vec![] };
        assert_eq!(ck.header().txn(), None);
        assert_eq!(ck.page(), None);
    }

    /// A redo-only record names its transaction and page from its own
    /// fields, so the log scan and the DPT see it like a physical update.
    #[test]
    fn redo_only_accessors_come_from_the_record() {
        let txn = TxnId::compose(ClientId(1), 2);
        let pages: Vec<_> = redo_only_records(txn)
            .iter()
            .map(|rec| {
                assert_eq!(rec.header().txn(), Some(txn), "{rec:?}");
                rec.page()
            })
            .collect();
        let want = [7, 7, 7, 9].map(|p| Some(PageId(p)));
        assert_eq!(pages, want);
    }

    /// One record of every kind, with small and large ids alike.
    fn sample_records() -> Vec<LogPayload> {
        let txn = TxnId::compose(ClientId(1), 5);
        let far = TxnId::compose(ClientId(u32::MAX), u32::MAX);
        let mut all = vec![
            LogPayload::Begin { txn: far },
            LogPayload::Update(UpdateRecord {
                txn,
                prev_lsn: Lsn(u64::MAX),
                object: obj(u64::MAX, u16::MAX),
                psn_before: Psn(300),
                before: Some(vec![0xAA; 64]),
                after: Some(vec![0x55; 64]),
                structural: true,
            }),
            LogPayload::Clr(ClrRecord {
                txn,
                prev_lsn: Lsn(30),
                undo_next: Lsn(10),
                object: obj(3, 2),
                psn_before: Psn(7),
                after: Some(b"undone".to_vec()),
            }),
            LogPayload::Commit {
                txn,
                prev_lsn: Lsn(1 << 40),
            },
            LogPayload::Abort {
                txn,
                prev_lsn: Lsn(44),
            },
            LogPayload::Callback(CallbackRecord {
                object: obj(9, 0),
                from_client: ClientId(2),
                psn: Psn(12),
            }),
            LogPayload::ClientCheckpoint {
                active_txns: vec![(txn, Lsn(50)), (far, Lsn(1 << 33))],
                dpt: vec![DptEntry {
                    page: PageId(1),
                    redo_lsn: Lsn(5),
                }],
            },
            LogPayload::Replacement(ReplacementRecord {
                page: PageId(4),
                psn: Psn(22),
                clients: vec![(ClientId(1), Psn(20)), (ClientId(2), Psn(1 << 50))],
            }),
            LogPayload::ServerCheckpoint {
                dct: vec![
                    DctEntry {
                        page: PageId(4),
                        client: ClientId(1),
                        psn: Some(Psn(20)),
                        redo_lsn: None,
                    },
                    DctEntry {
                        page: PageId(5),
                        client: ClientId(2),
                        psn: None,
                        redo_lsn: Some(Lsn(900)),
                    },
                ],
            },
        ];
        all.extend(redo_only_records(txn));
        all
    }

    /// Feed `n` mutants of the sample records, drawn from `seed`, to
    /// [`LogPayload::decode`]: one byte flipped, one 4-byte window set to
    /// `0xFF`, or the body cut short. Each decode must return, `Ok` or
    /// `Err`; a panic, or an abort on an allocation sized by a hostile
    /// count or length, fails the test. Returns how many were refused.
    fn decode_mutants(seed: u64, n: usize) -> usize {
        let bodies: Vec<Vec<u8>> = sample_records().iter().map(LogPayload::encode).collect();
        let mut rng = DetRng::new(seed);
        let mut refused = 0;
        for i in 0..n {
            let mut m = bodies[i % bodies.len()].clone();
            match rng.gen_range(3) {
                0 => {
                    let at = rng.range_usize(0, m.len());
                    m[at] ^= rng.range_usize(1, 256) as u8;
                }
                1 if m.len() >= 4 => {
                    let at = rng.range_usize(0, m.len() - 3);
                    m[at..at + 4].fill(0xFF);
                }
                _ => m.truncate(rng.range_usize(0, m.len() + 1)),
            }
            refused += usize::from(LogPayload::decode(&m).is_err());
        }
        refused
    }

    #[test]
    fn sample_records_roundtrip() {
        for rec in sample_records() {
            roundtrip(rec);
        }
    }

    #[test]
    fn no_mutant_log_body_panics_its_decoder() {
        assert!(decode_mutants(37, 12_000) > 0);
    }

    /// The soak: about a hundred times as many mutants (`--ignored`, in
    /// release).
    #[test]
    #[ignore]
    fn no_mutant_log_body_panics_its_decoder_soak() {
        assert!(decode_mutants(3_700, 1_000_000) > 0);
    }
}
