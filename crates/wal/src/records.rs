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
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, TxnId};

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

const TAG_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_CLR: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CALLBACK: u8 = 6;
const TAG_CLIENT_CKPT: u8 = 7;
const TAG_REPLACEMENT: u8 = 8;
const TAG_SERVER_CKPT: u8 = 9;
// Tag 10 stays unassigned: it framed the strategy envelope that the two
// redo-only kinds replaced, so a log written with it decodes as corrupt
// instead of being misread.
const TAG_REDO_UPDATE: u8 = 11;
const TAG_UNDO_SPILL: u8 = 12;

/// Per-kind names, indexed by [`LogPayload::kind_index`]; used for the
/// per-kind appended-byte accounting in the log manager.
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

impl LogPayload {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogPayload::Begin { txn } => Some(*txn),
            LogPayload::Update(u) => Some(u.txn),
            LogPayload::Clr(c) => Some(c.txn),
            LogPayload::Commit { txn, .. } => Some(*txn),
            LogPayload::Abort { txn, .. } => Some(*txn),
            LogPayload::RedoUpdate(u) => Some(u.txn),
            LogPayload::UndoSpill(s) => Some(s.txn),
            _ => None,
        }
    }

    /// The page this record concerns, if any.
    pub fn page(&self) -> Option<PageId> {
        match self {
            LogPayload::Update(u) => Some(u.object.page),
            LogPayload::Clr(c) => Some(c.object.page),
            LogPayload::Callback(c) => Some(c.object.page),
            LogPayload::Replacement(r) => Some(r.page),
            LogPayload::RedoUpdate(u) => Some(u.object.page),
            LogPayload::UndoSpill(s) => Some(s.object.page),
            _ => None,
        }
    }

    /// Index into [`KIND_NAMES`] for this record's kind.
    pub fn kind_index(&self) -> usize {
        match self {
            LogPayload::Begin { .. } => 0,
            LogPayload::Update(_) => 1,
            LogPayload::Clr(_) => 2,
            LogPayload::Commit { .. } => 3,
            LogPayload::Abort { .. } => 4,
            LogPayload::Callback(_) => 5,
            LogPayload::ClientCheckpoint { .. } => 6,
            LogPayload::Replacement(_) => 7,
            LogPayload::ServerCheckpoint { .. } => 8,
            LogPayload::RedoUpdate(_) => 9,
            LogPayload::UndoSpill(_) => 10,
        }
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
        let mut out = Vec::with_capacity(192);
        self.encode_into(&mut out);
        out
    }

    /// Append exactly the bytes [`encode`](Self::encode) returns to `out`
    /// (the log manager frames records in a buffer it reuses).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::onto(std::mem::take(out));
        match self {
            LogPayload::Begin { txn } => {
                w.u8(TAG_BEGIN);
                w.txn(*txn);
            }
            LogPayload::Update(u) => {
                w.u8(TAG_UPDATE);
                w.txn(u.txn);
                w.lsn(u.prev_lsn);
                w.object(u.object);
                w.psn(u.psn_before);
                w.opt_bytes(u.before.as_deref());
                w.opt_bytes(u.after.as_deref());
                w.bool(u.structural);
            }
            LogPayload::Clr(c) => {
                w.u8(TAG_CLR);
                w.txn(c.txn);
                w.lsn(c.prev_lsn);
                w.lsn(c.undo_next);
                w.object(c.object);
                w.psn(c.psn_before);
                w.opt_bytes(c.after.as_deref());
            }
            LogPayload::Commit { txn, prev_lsn } => {
                w.u8(TAG_COMMIT);
                w.txn(*txn);
                w.lsn(*prev_lsn);
            }
            LogPayload::Abort { txn, prev_lsn } => {
                w.u8(TAG_ABORT);
                w.txn(*txn);
                w.lsn(*prev_lsn);
            }
            LogPayload::Callback(c) => {
                w.u8(TAG_CALLBACK);
                w.object(c.object);
                w.client(c.from_client);
                w.psn(c.psn);
            }
            LogPayload::ClientCheckpoint { active_txns, dpt } => {
                w.u8(TAG_CLIENT_CKPT);
                w.u32(active_txns.len() as u32);
                for (t, l) in active_txns {
                    w.txn(*t);
                    w.lsn(*l);
                }
                w.u32(dpt.len() as u32);
                for e in dpt {
                    w.page(e.page);
                    w.lsn(e.redo_lsn);
                }
            }
            LogPayload::Replacement(r) => {
                w.u8(TAG_REPLACEMENT);
                w.page(r.page);
                w.psn(r.psn);
                w.u32(r.clients.len() as u32);
                for (c, p) in &r.clients {
                    w.client(*c);
                    w.psn(*p);
                }
            }
            LogPayload::ServerCheckpoint { dct } => {
                w.u8(TAG_SERVER_CKPT);
                w.u32(dct.len() as u32);
                for e in dct {
                    w.page(e.page);
                    w.client(e.client);
                    w.opt_psn(e.psn);
                    w.opt_lsn(e.redo_lsn);
                }
            }
            LogPayload::RedoUpdate(u) => {
                w.u8(TAG_REDO_UPDATE);
                w.txn(u.txn);
                w.lsn(u.prev_lsn);
                w.object(u.object);
                w.psn(u.psn_before);
                w.opt_bytes(u.after.as_deref());
                w.bool(u.structural);
            }
            LogPayload::UndoSpill(s) => {
                w.u8(TAG_UNDO_SPILL);
                w.txn(s.txn);
                w.object(s.object);
                w.opt_bytes(s.before.as_deref());
            }
        }
        *out = w.into_bytes();
    }

    /// Decode from bytes produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<LogPayload> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let payload = match tag {
            TAG_BEGIN => LogPayload::Begin { txn: r.txn()? },
            TAG_UPDATE => LogPayload::Update(UpdateRecord {
                txn: r.txn()?,
                prev_lsn: r.lsn()?,
                object: r.object()?,
                psn_before: r.psn()?,
                before: r.opt_bytes()?,
                after: r.opt_bytes()?,
                structural: r.bool()?,
            }),
            TAG_CLR => LogPayload::Clr(ClrRecord {
                txn: r.txn()?,
                prev_lsn: r.lsn()?,
                undo_next: r.lsn()?,
                object: r.object()?,
                psn_before: r.psn()?,
                after: r.opt_bytes()?,
            }),
            TAG_COMMIT => LogPayload::Commit {
                txn: r.txn()?,
                prev_lsn: r.lsn()?,
            },
            TAG_ABORT => LogPayload::Abort {
                txn: r.txn()?,
                prev_lsn: r.lsn()?,
            },
            TAG_CALLBACK => LogPayload::Callback(CallbackRecord {
                object: r.object()?,
                from_client: r.client()?,
                psn: r.psn()?,
            }),
            TAG_CLIENT_CKPT => {
                let n = r.u32()? as usize;
                let mut active_txns = Vec::with_capacity(n);
                for _ in 0..n {
                    active_txns.push((r.txn()?, r.lsn()?));
                }
                let m = r.u32()? as usize;
                let mut dpt = Vec::with_capacity(m);
                for _ in 0..m {
                    dpt.push(DptEntry {
                        page: r.page()?,
                        redo_lsn: r.lsn()?,
                    });
                }
                LogPayload::ClientCheckpoint { active_txns, dpt }
            }
            TAG_REPLACEMENT => {
                let page = r.page()?;
                let psn = r.psn()?;
                let n = r.u32()? as usize;
                let mut clients = Vec::with_capacity(n);
                for _ in 0..n {
                    clients.push((r.client()?, r.psn()?));
                }
                LogPayload::Replacement(ReplacementRecord { page, psn, clients })
            }
            TAG_SERVER_CKPT => {
                let n = r.u32()? as usize;
                let mut dct = Vec::with_capacity(n);
                for _ in 0..n {
                    dct.push(DctEntry {
                        page: r.page()?,
                        client: r.client()?,
                        psn: r.opt_psn()?,
                        redo_lsn: r.opt_lsn()?,
                    });
                }
                LogPayload::ServerCheckpoint { dct }
            }
            TAG_REDO_UPDATE => LogPayload::RedoUpdate(RedoUpdateRecord {
                txn: r.txn()?,
                prev_lsn: r.lsn()?,
                object: r.object()?,
                psn_before: r.psn()?,
                after: r.opt_bytes()?,
                structural: r.bool()?,
            }),
            TAG_UNDO_SPILL => LogPayload::UndoSpill(UndoSpillRecord {
                txn: r.txn()?,
                object: r.object()?,
                before: r.opt_bytes()?,
            }),
            t => return Err(FglError::Corrupt(format!("unknown log record tag {t}"))),
        };
        if r.remaining() != 0 {
            return Err(FglError::Corrupt(format!(
                "{} trailing bytes after log record",
                r.remaining()
            )));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::SlotId;

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

    /// Each redo-only kind is framed under its own tag, not wrapped in an
    /// envelope, and decodes back to the record it was.
    #[test]
    fn redo_only_records_roundtrip_as_native_kinds() {
        let txn = TxnId::compose(ClientId(3), 11);
        for rec in redo_only_records(txn) {
            let tag = match rec {
                LogPayload::RedoUpdate(_) => TAG_REDO_UPDATE,
                _ => TAG_UNDO_SPILL,
            };
            assert_eq!(rec.encode()[0], tag, "{rec:?}");
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

    /// The encoded size of each redo-only kind, counted field by field:
    /// tag 1, txn 8, LSN 8, object 10, PSN 8, an optional image 1 (+ 4 +
    /// its length) and a flag 1.
    #[test]
    fn redo_only_records_have_their_analytic_size() {
        let txn = TxnId::compose(ClientId(3), 11);
        let image = |b: &Option<Vec<u8>>| 1 + b.as_ref().map_or(0, |b| 4 + b.len());
        for rec in redo_only_records(txn) {
            let want = match &rec {
                LogPayload::RedoUpdate(u) => 1 + 8 + 8 + 10 + 8 + image(&u.after) + 1,
                LogPayload::UndoSpill(s) => 1 + 8 + 10 + image(&s.before),
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
        assert_eq!(physical.encode().len() - redo.encode().len(), 1 + 4 + 3);
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

    /// Tag 10 framed the strategy envelope the redo-only kinds replaced;
    /// such a record must fail loudly, not decode as something else.
    #[test]
    fn the_retired_envelope_tag_is_corrupt() {
        let txn = TxnId::compose(ClientId(1), 2);
        for rec in redo_only_records(txn) {
            let mut bytes = rec.encode();
            bytes[0] = 10;
            assert!(matches!(
                LogPayload::decode(&bytes),
                Err(FglError::Corrupt(_))
            ));
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
        assert_eq!(u.txn(), Some(txn));
        assert_eq!(u.page(), Some(PageId(5)));
        let ck = LogPayload::ServerCheckpoint { dct: vec![] };
        assert_eq!(ck.txn(), None);
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
                assert_eq!(rec.txn(), Some(txn), "{rec:?}");
                rec.page()
            })
            .collect();
        let want = [7, 7, 7, 9].map(|p| Some(PageId(p)));
        assert_eq!(pages, want);
    }
}
