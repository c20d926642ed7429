//! Codec conformance for the `fgl-net` frame transport.
//!
//! Four properties, each over **every** protocol variant:
//!
//! 1. Round-trip fidelity: encode → `write_frame` bytes → `read_frame` →
//!    decode reproduces the message exactly.
//! 2. Analytic sizing: `frame_len(&segs)` equals the `*_frame_len`
//!    prediction (release builds skip the encoder `debug_assert`s, so the
//!    suite checks it explicitly).
//! 3. Sim-accounting identity: callback-family frames are exactly the
//!    `frame::callback_*_len` sizes the sim fabric charges.
//! 4. Loud failure: truncated headers/bodies, bad length prefixes,
//!    unknown kinds/tags and trailing garbage all surface as
//!    [`FglError::Corrupt`] (clean EOF alone is `Disconnected`), and
//!    encoders refuse messages whose counts overflow their wire fields.

use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

use fgl_common::config::{
    CommitPolicy, LockGranularity, LoggingStrategyKind, TransportKind, UpdatePolicy,
};
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, SlotId, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::transport::frame::{self, FrameHeader, FrameKind, Seg, StreamRole, HEADER, MAX_FRAME};
use fgl_net::{Callback, CallbackOutcome, CallbackReplyMsg, ClientStateReport, GrantMsg};
use fgl_net::{RecoverJob, RecoveredPageOutcome, Reply, Request, WireError, RECOVER_BATCH_PAGES};
use fgl_wal::records::DptEntry;

fn obj(page: u64, slot: u16) -> ObjectId {
    ObjectId {
        page: PageId(page),
        slot: SlotId(slot),
    }
}

fn page_buf(fill: u8, len: usize) -> Arc<[u8]> {
    Arc::from(vec![fill; len])
}

/// Flatten a frame and read it back through the public reader, checking
/// the header invariants every frame shares.
fn read_back(segs: &[Seg], kind: FrameKind, corr: u64) -> (FrameHeader, Vec<u8>) {
    let bytes = frame::frame_bytes(segs);
    let mut r = &bytes[..];
    let (h, body) = frame::read_frame(&mut r).expect("read_frame");
    assert!(r.is_empty(), "read_frame must consume exactly one frame");
    assert_eq!(h.kind, kind);
    assert_eq!(h.corr, corr);
    assert_eq!(h.len as usize, bytes.len());
    assert_eq!(body.len(), bytes.len() - HEADER);
    (h, body)
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Register,
        Request::Lock {
            txn: TxnId(7),
            target: LockTarget::Object(obj(3, 9), ObjMode::X),
            cached_psn: Some(Psn(41)),
        },
        Request::Lock {
            txn: TxnId(8),
            target: LockTarget::Page(PageId(5), ObjMode::S),
            cached_psn: None,
        },
        Request::Lock {
            txn: TxnId(9),
            target: LockTarget::PageAdaptive(PageId(6), ObjMode::X, obj(6, 2)),
            cached_psn: Some(Psn(0)),
        },
        Request::CancelWait { txn: TxnId(11) },
        Request::CallbackComplete {
            kind: CallbackKind::DeEscalatePage(PageId(4)),
            retained: vec![(obj(4, 0), ObjMode::S), (obj(4, 3), ObjMode::X)],
            page_copy: Some(page_buf(0xAB, 64)),
        },
        Request::CallbackComplete {
            kind: CallbackKind::ReleaseObject(obj(2, 1)),
            retained: vec![],
            page_copy: None,
        },
        Request::FetchPage { page: PageId(12) },
        Request::AllocatePage { txn: TxnId(13) },
        Request::ShipPage {
            bytes: page_buf(0x5A, 128),
            replaced: true,
        },
        Request::ShipPage {
            bytes: page_buf(0x00, 1),
            replaced: false,
        },
        Request::ForcePage { page: PageId(14) },
        Request::CommitShipLog {
            records: vec![1, 2, 3, 4, 5],
            touched: vec![PageId(4), PageId(9)],
        },
        Request::CommitShipLog {
            records: vec![6, 7],
            touched: vec![],
        },
        Request::FetchClientLog,
        Request::ClientCrashed,
        Request::RecoveryBegin,
        Request::RecoveryEnd,
        Request::RecoveryFetch {
            page: PageId(15),
            need: Some((ClientId(2), Psn(77))),
        },
        Request::RecoveryFetch {
            page: PageId(16),
            need: None,
        },
        Request::RecoverClientPage { page: PageId(17) },
        Request::PollRecoveryNeeds,
        Request::InstallRecovered { bytes: vec![9; 32] },
    ]
    .into_iter()
    .chain(BATCH_SIZES.into_iter().flat_map(sample_page_batches))
    .collect()
}

/// Page counts every batch frame is sampled at.
const BATCH_SIZES: [usize; 3] = [0, 1, 64];

/// The three page-batch requests at `n` pages, with page lengths that
/// vary with the position.
fn sample_page_batches(n: usize) -> [Request; 3] {
    let pages: Vec<PageId> = (0..n as u64).map(|p| PageId(p * 5 + 1)).collect();
    [
        Request::FetchPages {
            pages: pages.clone(),
        },
        Request::ShipPages {
            pages: (0..n).map(|i| page_buf(i as u8, 64 + i % 3)).collect(),
            replaced: n % 2 == 1,
        },
        Request::ForcePages { pages },
    ]
}

/// A `fetch_pages` answer of `n` copies; every third has no DCT PSN.
fn sample_pages_reply(n: usize) -> Reply {
    Reply::Pages(
        (0..n)
            .map(|i| {
                (
                    vec![i as u8; 64 + i % 3],
                    (i % 3 != 2).then_some(Psn(i as u64)),
                )
            })
            .collect(),
    )
}

fn sample_wire_errors() -> Vec<WireError> {
    vec![
        WireError::Io("disk on fire".into()),
        WireError::PageNotFound(PageId(3)),
        WireError::ObjectNotFound(obj(3, 1)),
        WireError::PageFull {
            page: PageId(4),
            needed: 96,
            free: 12,
        },
        WireError::DeadlockVictim(TxnId(5)),
        WireError::LockTimeout(TxnId(6)),
        WireError::TxnAborted(TxnId(7)),
        WireError::InvalidTxnState {
            txn: TxnId(8),
            state: "Committed".into(),
        },
        WireError::UnknownSavepoint("sp1".into()),
        WireError::LogFull,
        WireError::Corrupt("bad record".into()),
        WireError::Disconnected("peer gone".into()),
        WireError::Protocol("version skew".into()),
        WireError::Config("page_size".into()),
    ]
}

fn sample_replies() -> Vec<Reply> {
    let mut replies = vec![
        Reply::Unit,
        Reply::LockGranted {
            target: LockTarget::Object(obj(1, 2), ObjMode::S),
            first_exclusive_on_page: true,
            evidence: Some((ClientId(3), Psn(9))),
            page: Some(vec![0xA5; 512]),
        },
        Reply::LockGranted {
            target: LockTarget::PageAdaptive(PageId(2), ObjMode::X, obj(2, 4)),
            first_exclusive_on_page: false,
            evidence: None,
            page: None,
        },
        Reply::LockQueued,
        Reply::Page {
            bytes: vec![1; 256],
            psn: Some(Psn(5)),
        },
        Reply::Page {
            bytes: vec![],
            psn: None,
        },
        Reply::PageImage(vec![2; 64]),
        Reply::Bytes(vec![3, 1, 4, 1, 5]),
        Reply::Handshake {
            locks: vec![
                LockTarget::Page(PageId(1), ObjMode::X),
                LockTarget::Object(obj(2, 0), ObjMode::S),
            ],
            pages: vec![(PageId(1), Some(Psn(2))), (PageId(3), None)],
            dct_complete: true,
        },
        Reply::Handshake {
            locks: vec![],
            pages: vec![],
            dct_complete: false,
        },
        Reply::RecoverPlan {
            base: vec![7; 32],
            install_psn: Psn(10),
            callback_list: vec![(obj(1, 1), Psn(4)), (obj(1, 2), Psn(6))],
        },
        Reply::Needs(vec![(PageId(9), Psn(1)), (PageId(10), Psn(2))]),
    ];
    replies.extend(BATCH_SIZES.map(sample_pages_reply));
    replies.extend(sample_wire_errors().into_iter().map(Reply::Err));
    replies
}

fn sample_callback_kinds() -> Vec<CallbackKind> {
    vec![
        CallbackKind::ReleaseObject(obj(1, 2)),
        CallbackKind::DowngradeObject(obj(3, 4)),
        CallbackKind::ReleasePage(PageId(5)),
        CallbackKind::DowngradePage(PageId(6)),
        CallbackKind::DeEscalatePage(PageId(7)),
    ]
}

fn sample_callbacks() -> Vec<Callback> {
    vec![
        Callback::DeliverBatch(sample_callback_kinds()),
        Callback::DeliverBatch(vec![]),
        Callback::NotifyFlushed(PageId(8)),
        Callback::ReportState,
        Callback::CallbackListsFor(vec![]),
        Callback::CallbackListsFor(vec![(PageId(9), ClientId(2), Lsn(100))]),
        Callback::CallbackListsFor(
            (0..200)
                .map(|i| (PageId(i), ClientId(i as u32 % 5), Lsn(i * 7)))
                .collect(),
        ),
        Callback::ShipCachedPages(vec![]),
        Callback::ShipCachedPages(vec![PageId(10)]),
        Callback::ShipCachedPages((0..RECOVER_BATCH_PAGES as u64).map(PageId).collect()),
        Callback::RecoverPages(vec![]),
        Callback::RecoverPages(vec![sample_job(11)]),
        Callback::RecoverPages((0..RECOVER_BATCH_PAGES as u64).map(sample_job).collect()),
    ]
}

/// A replay job whose base length and list length vary with the page.
fn sample_job(page: u64) -> RecoverJob {
    RecoverJob {
        page: PageId(page),
        base: page_buf(page as u8, 64 + page as usize % 3),
        install_psn: Psn(page + 1),
        callback_list: (0..page % 4)
            .map(|s| (obj(page, s as u16), Psn(s)))
            .collect(),
    }
}

fn sample_outcomes() -> Vec<CallbackOutcome> {
    vec![
        CallbackOutcome::Done {
            retained: vec![(obj(1, 1), ObjMode::S), (obj(1, 2), ObjMode::X)],
            page_copy: Some(page_buf(4, 48)),
        },
        CallbackOutcome::Done {
            retained: vec![],
            page_copy: None,
        },
        CallbackOutcome::Deferred {
            blockers: vec![TxnId(1), TxnId(2), TxnId(3)],
        },
    ]
}

fn sample_callback_replies() -> Vec<CallbackReplyMsg> {
    vec![
        CallbackReplyMsg::Outcomes(sample_outcomes()),
        CallbackReplyMsg::Outcomes(vec![]),
        CallbackReplyMsg::State(ClientStateReport {
            dpt: vec![DptEntry {
                page: PageId(1),
                redo_lsn: Lsn(5),
            }],
            cached_pages: vec![(PageId(1), Psn(6)), (PageId(2), Psn(7))],
            locks: vec![LockTarget::Object(obj(1, 0), ObjMode::X)],
        }),
        CallbackReplyMsg::State(ClientStateReport::default()),
        CallbackReplyMsg::CallbackLists(vec![]),
        CallbackReplyMsg::CallbackLists(vec![vec![(obj(2, 2), Psn(9))]]),
        CallbackReplyMsg::CallbackLists(
            (0..200)
                .map(|i| (0..i % 3).map(|s| (obj(i, s as u16), Psn(i))).collect())
                .collect(),
        ),
        CallbackReplyMsg::CachedPages(vec![]),
        CallbackReplyMsg::CachedPages(vec![Some(page_buf(8, 32))]),
        CallbackReplyMsg::CachedPages(vec![None]),
        CallbackReplyMsg::CachedPages(
            (0..RECOVER_BATCH_PAGES)
                .map(|i| (i % 5 != 3).then(|| page_buf(i as u8, 64 + i % 3)))
                .collect(),
        ),
        CallbackReplyMsg::RecoveredPages(vec![]),
        CallbackReplyMsg::RecoveredPages(vec![RecoveredPageOutcome::Done(vec![1, 2, 3])]),
        CallbackReplyMsg::RecoveredPages(
            (0..RECOVER_BATCH_PAGES)
                .map(|i| match i % 8 {
                    7 => RecoveredPageOutcome::Failed(format!("no log for page {i}")),
                    _ => RecoveredPageOutcome::Done(vec![i as u8; 64 + i % 3]),
                })
                .collect(),
        ),
    ]
}

fn sample_grants() -> Vec<GrantMsg> {
    vec![
        GrantMsg::Victim,
        GrantMsg::Granted {
            target: LockTarget::Object(obj(5, 3), ObjMode::X),
            first_exclusive_on_page: true,
            evidence: Some((ClientId(4), Psn(20))),
            page: Some(vec![0x3C; 256]),
        },
        GrantMsg::Granted {
            target: LockTarget::Page(PageId(6), ObjMode::S),
            first_exclusive_on_page: false,
            evidence: None,
            page: None,
        },
    ]
}

// ---- round trips + analytic sizing ----------------------------------------

#[test]
fn requests_round_trip() {
    for (i, req) in sample_requests().iter().enumerate() {
        let corr = 100 + i as u64;
        let segs = frame::encode_request(corr, req).expect("encode");
        assert_eq!(
            frame::frame_len(&segs),
            frame::request_frame_len(req),
            "analytic size for {req:?}"
        );
        let (h, body) = read_back(&segs, FrameKind::Req, corr);
        let back = frame::decode_request(&h, &body).expect("decode");
        assert_eq!(&back, req);
    }
}

#[test]
fn replies_round_trip() {
    for (i, reply) in sample_replies().iter().enumerate() {
        let corr = 200 + i as u64;
        let segs = frame::encode_reply(corr, reply).expect("encode");
        assert_eq!(
            frame::frame_len(&segs),
            frame::reply_frame_len(reply),
            "analytic size for {reply:?}"
        );
        let (h, body) = read_back(&segs, FrameKind::Resp, corr);
        let back = frame::decode_reply(&h, &body).expect("decode");
        assert_eq!(&back, reply);
    }
}

#[test]
fn callbacks_round_trip() {
    for (i, cb) in sample_callbacks().iter().enumerate() {
        let corr = 300 + i as u64;
        let segs = frame::encode_callback(corr, cb).expect("encode");
        assert_eq!(
            frame::frame_len(&segs),
            frame::callback_frame_len(cb),
            "analytic size for {cb:?}"
        );
        let (h, body) = read_back(&segs, FrameKind::Cb, corr);
        let back = frame::decode_callback(&h, &body).expect("decode");
        assert_eq!(&back, cb);
    }
}

#[test]
fn callback_replies_round_trip() {
    for (i, r) in sample_callback_replies().iter().enumerate() {
        let corr = 400 + i as u64;
        let segs = frame::encode_callback_reply(corr, r).expect("encode");
        assert_eq!(
            frame::frame_len(&segs),
            frame::callback_reply_frame_len(r),
            "analytic size for {r:?}"
        );
        let (h, body) = read_back(&segs, FrameKind::CbResp, corr);
        let back = frame::decode_callback_reply(&h, &body).expect("decode");
        assert_eq!(&back, r);
    }
}

#[test]
fn grants_round_trip() {
    for (i, g) in sample_grants().iter().enumerate() {
        let corr = 500 + i as u64;
        let segs = frame::encode_grant(corr, g);
        assert_eq!(
            frame::frame_len(&segs),
            frame::grant_frame_len(g),
            "analytic size for {g:?}"
        );
        let (h, body) = read_back(&segs, FrameKind::Grant, corr);
        let back = frame::decode_grant(&h, &body).expect("decode");
        assert_eq!(&back, g);
    }
}

/// A lock grant with and without its page, as a `Grant` frame and as a
/// `LockGranted` reply: the two frames carry the same fields, and the
/// page adds exactly its bytes.
fn grant_and_reply(page: Option<Vec<u8>>) -> (GrantMsg, Reply) {
    let (target, evidence) = (
        LockTarget::PageAdaptive(PageId(8), ObjMode::X, obj(8, 1)),
        Some((ClientId(2), Psn(30))),
    );
    let grant = GrantMsg::Granted {
        target,
        first_exclusive_on_page: true,
        evidence,
        page: page.clone(),
    };
    let reply = Reply::LockGranted {
        target,
        first_exclusive_on_page: true,
        evidence,
        page,
    };
    (grant, reply)
}

#[test]
fn a_grant_carries_its_page_at_the_cost_of_its_bytes() {
    let (bare_grant, bare_reply) = grant_and_reply(None);
    let bare = frame::frame_len(&frame::encode_grant(1, &bare_grant));
    // Target 22, first-exclusive flag 1, evidence 13, page length 4.
    assert_eq!(bare, HEADER + 22 + 1 + 13 + 4);
    assert_eq!(
        frame::frame_len(&frame::encode_reply(1, &bare_reply).unwrap()),
        bare
    );
    for len in [128, 4096, 65_536] {
        let (grant, reply) = grant_and_reply(Some(vec![0x5A; len]));
        let segs = frame::encode_grant(7, &grant);
        assert_eq!(frame::frame_len(&segs), bare + len);
        assert_eq!(frame::grant_frame_len(&grant), bare + len);
        let (h, body) = read_back(&segs, FrameKind::Grant, 7);
        assert_eq!(frame::decode_grant(&h, &body).unwrap(), grant);

        let segs = frame::encode_reply(8, &reply).unwrap();
        assert_eq!(frame::frame_len(&segs), bare + len);
        assert_eq!(frame::reply_frame_len(&reply), bare + len);
        let (h, body) = read_back(&segs, FrameKind::Resp, 8);
        assert_eq!(frame::decode_reply(&h, &body).unwrap(), reply);
    }
}

#[test]
fn a_hostile_grant_page_length_is_refused() {
    // The page length is checked against the bytes left in the body
    // before anything is allocated for it: a length past the body, up to
    // one far past `MAX_FRAME`, is `Corrupt`, and so is every truncation.
    let page = vec![0xC3; 300];
    let (grant, reply) = grant_and_reply(Some(page.clone()));
    let grant_frame = read_back(&frame::encode_grant(1, &grant), FrameKind::Grant, 1);
    let reply_frame = read_back(&frame::encode_reply(1, &reply).unwrap(), FrameKind::Resp, 1);
    type Decode = dyn Fn(&FrameHeader, &[u8]) -> Option<FglError>;
    let decoders: [(&(FrameHeader, Vec<u8>), &Decode); 2] = [
        (&grant_frame, &|h, b| frame::decode_grant(h, b).err()),
        (&reply_frame, &|h, b| frame::decode_reply(h, b).err()),
    ];
    for ((h, body), decode) in decoders {
        let at = body.len() - page.len() - 4;
        assert_eq!(body[at..at + 4], (page.len() as u32).to_le_bytes());
        for hostile in [page.len() as u32 + 1, (MAX_FRAME + 1) as u32, u32::MAX] {
            let mut bad = body.clone();
            bad[at..at + 4].copy_from_slice(&hostile.to_le_bytes());
            let err = decode(h, &bad).expect("a page longer than the body must not decode");
            assert!(
                matches!(&err, FglError::Corrupt(m) if m.contains("exceeds")),
                "length {hostile}: {err:?}"
            );
        }
        // A shorter length leaves the rest of the page as trailing bytes.
        let mut short = body.clone();
        short[at..at + 4].copy_from_slice(&(page.len() as u32 - 1).to_le_bytes());
        assert!(matches!(decode(h, &short), Some(FglError::Corrupt(_))));
        for cut in 0..body.len() {
            let err = decode(h, &body[..cut]).expect("a strict prefix must not decode");
            assert!(matches!(err, FglError::Corrupt(_)), "cut {cut}: {err:?}");
        }
    }
}

#[test]
fn hello_round_trips() {
    for role in [StreamRole::Rpc, StreamRole::Events] {
        let segs = frame::encode_hello(ClientId(42), role);
        let (_, body) = read_back(&segs, FrameKind::Hello, 0);
        // Magic, version, client id and the role byte.
        assert_eq!(body.len(), 4 + 2 + 4 + 1);
        assert_eq!(
            frame::decode_hello(&body).expect("decode"),
            (ClientId(42), role)
        );
    }
    let mut body = frame::frame_bytes(&frame::encode_hello(ClientId(1), StreamRole::Events))
        [HEADER..]
        .to_vec();
    *body.last_mut().unwrap() = 2;
    let err = frame::decode_hello(&body).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

#[test]
fn hello_ack_round_trips_config() {
    // Every field deliberately non-default: a skipped or reordered field
    // in the handshake encoding fails one of the assertions below.
    let cfg = SystemConfig {
        page_size: 8192,
        client_cache_pages: 17,
        server_cache_pages: 333,
        client_log_bytes: 1 << 20,
        server_log_bytes: 3 << 20,
        granularity: LockGranularity::Adaptive,
        update_policy: UpdatePolicy::UpdateToken,
        commit_policy: CommitPolicy::ShipPagesAtCommit,
        logging_strategy: LoggingStrategyKind::Hybrid,
        client_checkpoint_every: 123,
        server_checkpoint_every: 456,
        lock_timeout: Duration::from_millis(2500),
        net_latency: Duration::from_micros(40),
        disk_latency: Duration::from_micros(400),
        server_instances: 3,
        obs_ring_entries: 512,
        transport: TransportKind::Tcp,
    };

    let segs = frame::encode_hello_ack(&cfg);
    let (_, body) = read_back(&segs, FrameKind::HelloAck, 0);
    // The version, twelve 8-byte fields and five enum codes.
    assert_eq!(body.len(), 2 + 12 * 8 + 5);
    let back = frame::decode_hello_ack(&body).expect("decode");
    assert_eq!(back.page_size, cfg.page_size);
    assert_eq!(back.client_cache_pages, cfg.client_cache_pages);
    assert_eq!(back.server_cache_pages, cfg.server_cache_pages);
    assert_eq!(back.client_log_bytes, cfg.client_log_bytes);
    assert_eq!(back.server_log_bytes, cfg.server_log_bytes);
    assert_eq!(back.granularity, cfg.granularity);
    assert_eq!(back.update_policy, cfg.update_policy);
    assert_eq!(back.commit_policy, cfg.commit_policy);
    assert_eq!(back.logging_strategy, cfg.logging_strategy);
    assert_eq!(back.transport, cfg.transport);
    assert_eq!(back.client_checkpoint_every, cfg.client_checkpoint_every);
    assert_eq!(back.server_checkpoint_every, cfg.server_checkpoint_every);
    assert_eq!(back.lock_timeout, cfg.lock_timeout);
    assert_eq!(back.net_latency, cfg.net_latency);
    assert_eq!(back.disk_latency, cfg.disk_latency);
    assert_eq!(back.server_instances, cfg.server_instances);
    assert_eq!(back.obs_ring_entries, cfg.obs_ring_entries);

    // The logging-strategy code follows the version, five 8-byte fields
    // and three enum codes. Code 3 named the retired write-behind
    // strategy; it decodes as corrupt, not as some other strategy.
    let mut retired = body.clone();
    assert_eq!(retired[2 + 5 * 8 + 3], 2);
    retired[2 + 5 * 8 + 3] = 3;
    let err = frame::decode_hello_ack(&retired).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");

    // A version-2 server still sends a shard count and the three retired
    // switches; its answer is refused by version, never decoded against
    // the shorter layout.
    let mut v2 = vec![2, 0];
    v2.extend_from_slice(&body[2..body.len() - 16]);
    v2.extend_from_slice(&4u64.to_le_bytes()); // shard count
    v2.extend_from_slice(&body[body.len() - 16..body.len() - 8]); // server_instances
    v2.extend_from_slice(&[1, 1, 1]); // batching, group commit, lazy init
    v2.extend_from_slice(&body[body.len() - 8..]); // obs_ring_entries
    let err = frame::decode_hello_ack(&v2).unwrap_err();
    assert!(
        matches!(&err, FglError::Protocol(m) if m.contains("wire version mismatch")),
        "{err:?}"
    );
}

// ---- sim-accounting identity ----------------------------------------------

#[test]
fn callback_family_matches_nominal_accounting() {
    // Callback batch: the real frame is exactly the bytes the sim fabric
    // charges for a batch of n kinds.
    let kinds = sample_callback_kinds();
    let segs = frame::encode_callback(1, &Callback::DeliverBatch(kinds.clone())).unwrap();
    assert_eq!(
        frame::frame_len(&segs),
        frame::callback_batch_len(kinds.len())
    );

    // Callback reply: the header plus each outcome's body.
    let outcomes = sample_outcomes();
    let segs =
        frame::encode_callback_reply(2, &CallbackReplyMsg::Outcomes(outcomes.clone())).unwrap();
    assert_eq!(
        frame::frame_len(&segs),
        frame::callback_reply_len(&outcomes)
    );

    // Deferred completion: kind + retentions + optional page copy.
    let retained = vec![(obj(4, 0), ObjMode::S), (obj(4, 3), ObjMode::X)];
    let page = page_buf(0xCD, 96);
    let segs = frame::encode_request(
        3,
        &Request::CallbackComplete {
            kind: CallbackKind::DeEscalatePage(PageId(4)),
            retained: retained.clone(),
            page_copy: Some(page.clone()),
        },
    )
    .unwrap();
    assert_eq!(
        frame::frame_len(&segs),
        frame::callback_complete_len(retained.len(), Some(page.len()))
    );
}

#[test]
fn ship_page_shares_the_page_buffer() {
    // The page payload must travel as the original shared buffer, not a
    // copy: the send path writes segments straight from the `Arc<[u8]>`.
    let bytes = page_buf(0x77, 256);
    let segs = frame::encode_request(
        9,
        &Request::ShipPage {
            bytes: bytes.clone(),
            replaced: false,
        },
    )
    .unwrap();
    let shared = segs
        .iter()
        .find_map(|s| match s {
            Seg::Shared(a) => Some(a.clone()),
            Seg::Owned(_) => None,
        })
        .expect("page payload travels as a shared segment");
    assert!(Arc::ptr_eq(&shared, &bytes));
}

#[test]
fn recover_pages_shares_every_base_buffer() {
    // A full replay batch: each job's base copy travels as its own shared
    // segment, in job order, never copied into the frame.
    let jobs: Vec<RecoverJob> = (0..RECOVER_BATCH_PAGES as u64).map(sample_job).collect();
    let segs = frame::encode_callback(9, &Callback::RecoverPages(jobs.clone())).unwrap();
    let shared: Vec<&Arc<[u8]>> = segs
        .iter()
        .filter_map(|s| match s {
            Seg::Shared(a) => Some(a),
            Seg::Owned(_) => None,
        })
        .collect();
    assert_eq!(shared.len(), jobs.len());
    for (seg, job) in shared.iter().zip(&jobs) {
        assert!(Arc::ptr_eq(seg, &job.base));
    }
}

// ---- the write path --------------------------------------------------------

/// Every sample frame of every family, handshakes included.
fn every_frame() -> Vec<Vec<Seg>> {
    let mut frames = vec![
        frame::encode_hello(ClientId(3), StreamRole::Events),
        frame::encode_hello_ack(&SystemConfig::default()),
    ];
    frames.extend(
        sample_requests()
            .iter()
            .map(|r| frame::encode_request(1, r).unwrap()),
    );
    frames.extend(
        sample_replies()
            .iter()
            .map(|r| frame::encode_reply(2, r).unwrap()),
    );
    frames.extend(
        sample_callbacks()
            .iter()
            .map(|c| frame::encode_callback(3, c).unwrap()),
    );
    frames.extend(
        sample_callback_replies()
            .iter()
            .map(|r| frame::encode_callback_reply(4, r).unwrap()),
    );
    frames.extend(sample_grants().iter().map(|g| frame::encode_grant(5, g)));
    frames
}

/// A writer that takes at most `per_call` bytes per call (all of them
/// when `None`), vectored or not, and counts its calls.
struct Sink {
    out: Vec<u8>,
    calls: usize,
    per_call: Option<usize>,
}

impl Sink {
    fn new(per_call: Option<usize>) -> Sink {
        Sink {
            out: Vec::new(),
            calls: 0,
            per_call,
        }
    }
}

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[std::io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        let mut budget = self.per_call.unwrap_or(usize::MAX);
        let mut took = 0;
        for b in bufs {
            let n = b.len().min(budget);
            self.out.extend_from_slice(&b[..n]);
            (budget, took) = (budget - n, took + n);
        }
        Ok(took)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_is_one_write_call() {
    let frames = every_frame();
    // The families whose page payloads travel as separate segments are
    // in the sample: the test would pass trivially without them.
    assert!(frames.iter().any(|segs| segs.len() > 2));
    for segs in &frames {
        let mut w = Sink::new(None);
        frame::write_frame(&mut w, segs).unwrap();
        assert_eq!(w.calls, 1, "{} segments", segs.len());
        assert_eq!(w.out, frame::frame_bytes(segs));
    }
}

#[test]
fn a_writer_that_takes_one_byte_per_call_gets_the_same_bytes() {
    for segs in every_frame() {
        let mut w = Sink::new(Some(1));
        frame::write_frame(&mut w, &segs).unwrap();
        let bytes = frame::frame_bytes(&segs);
        assert_eq!(w.calls, bytes.len());
        assert_eq!(w.out, bytes);
    }
}

// ---- truncation and malformed input ---------------------------------------

/// A reader that trickles one byte per `read` call: exercises the
/// short-read reassembly loops in `read_frame`.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

fn sample_frame() -> Vec<u8> {
    let segs = frame::encode_request(
        7,
        &Request::Lock {
            txn: TxnId(1),
            target: LockTarget::Object(obj(2, 3), ObjMode::X),
            cached_psn: Some(Psn(4)),
        },
    )
    .unwrap();
    frame::frame_bytes(&segs)
}

#[test]
fn one_byte_reads_reassemble_frames() {
    let bytes = sample_frame();
    let (h, body) = frame::read_frame(&mut OneByte(&bytes)).expect("read");
    assert_eq!(h.len as usize, bytes.len());
    assert_eq!(body, bytes[HEADER..]);
}

#[test]
fn eof_at_frame_boundary_is_a_clean_disconnect() {
    let err = frame::read_frame(&mut &[][..]).unwrap_err();
    assert!(
        matches!(err, FglError::Disconnected(_)),
        "clean EOF must not be Corrupt: {err:?}"
    );
}

#[test]
fn truncated_header_is_corrupt() {
    let bytes = sample_frame();
    for cut in 1..HEADER {
        let err = frame::read_frame(&mut &bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, FglError::Corrupt(_)),
            "{cut}-byte header must be Corrupt: {err:?}"
        );
    }
}

#[test]
fn truncated_body_is_corrupt() {
    let bytes = sample_frame();
    for cut in HEADER..bytes.len() {
        let err = frame::read_frame(&mut &bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, FglError::Corrupt(_)),
            "{cut}-byte frame must be Corrupt: {err:?}"
        );
    }
}

#[test]
fn out_of_range_length_prefix_is_corrupt() {
    for len in [0u32, 1, (HEADER - 1) as u32, (MAX_FRAME + 1) as u32] {
        let mut bytes = sample_frame();
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let err = frame::read_frame(&mut &bytes[..]).unwrap_err();
        assert!(
            matches!(err, FglError::Corrupt(_)),
            "length {len} must be Corrupt: {err:?}"
        );
    }
}

#[test]
fn unknown_frame_kind_is_corrupt() {
    let mut bytes = sample_frame();
    bytes[4] = 0xEE;
    let err = frame::read_frame(&mut &bytes[..]).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

#[test]
fn unknown_variant_tags_are_corrupt() {
    let bytes = sample_frame();
    let (mut h, body) = frame::read_frame(&mut &bytes[..]).unwrap();
    h.tag = 0xBEEF;
    assert!(matches!(
        frame::decode_request(&h, &body).unwrap_err(),
        FglError::Corrupt(_)
    ));
    assert!(matches!(
        frame::decode_reply(&h, &body).unwrap_err(),
        FglError::Corrupt(_)
    ));
    assert!(matches!(
        frame::decode_callback(&h, &body).unwrap_err(),
        FglError::Corrupt(_)
    ));
    assert!(matches!(
        frame::decode_callback_reply(&h, &body).unwrap_err(),
        FglError::Corrupt(_)
    ));
    assert!(matches!(
        frame::decode_grant(&h, &body).unwrap_err(),
        FglError::Corrupt(_)
    ));
}

#[test]
fn trailing_bytes_after_body_are_corrupt() {
    let bytes = sample_frame();
    let (h, mut body) = frame::read_frame(&mut &bytes[..]).unwrap();
    body.push(0x00);
    let err = frame::decode_request(&h, &body).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");

    // Fixed-size variants reject any body at all.
    let segs = frame::encode_reply(1, &Reply::Unit).unwrap();
    let (h, mut body) = frame::read_frame(&mut &frame::frame_bytes(&segs)[..]).unwrap();
    body.push(0x00);
    let err = frame::decode_reply(&h, &body).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

#[test]
fn callback_batch_body_must_be_a_multiple_of_the_kind_size() {
    let segs = frame::encode_callback(1, &Callback::DeliverBatch(sample_callback_kinds())).unwrap();
    let (h, mut body) = frame::read_frame(&mut &frame::frame_bytes(&segs)[..]).unwrap();
    body.truncate(body.len() - 1);
    let err = frame::decode_callback(&h, &body).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

#[test]
fn batched_recovery_bodies_refuse_truncation_and_trailing_bytes() {
    // Counts and lengths inside the four batched bodies are all checked
    // against the bytes actually present: no strict prefix decodes, and
    // neither does a body with a byte to spare.
    let check = |body: &[u8], decode: &dyn Fn(&[u8]) -> Option<FglError>| {
        assert!(decode(body).is_none(), "the whole body must decode");
        for cut in 0..body.len() {
            let err = decode(&body[..cut]).expect("a strict prefix must not decode");
            assert!(matches!(err, FglError::Corrupt(_)), "cut {cut}: {err:?}");
        }
        let mut longer = body.to_vec();
        longer.push(0);
        let err = decode(&longer).expect("a trailing byte must not decode");
        assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
    };
    let callbacks = [
        Callback::CallbackListsFor(vec![
            (PageId(1), ClientId(2), Lsn(3)),
            (PageId(4), ClientId(5), Lsn::NIL),
        ]),
        Callback::RecoverPages(vec![sample_job(2), sample_job(7)]),
        Callback::ShipCachedPages(vec![PageId(3), PageId(1 << 40)]),
    ];
    for cb in &callbacks {
        let segs = frame::encode_callback(1, cb).unwrap();
        let (h, body) = read_back(&segs, FrameKind::Cb, 1);
        check(&body, &|b| frame::decode_callback(&h, b).err());
    }
    let replies = [
        CallbackReplyMsg::CallbackLists(vec![vec![(obj(1, 2), Psn(3))], vec![]]),
        CallbackReplyMsg::RecoveredPages(vec![
            RecoveredPageOutcome::Done(vec![9; 40]),
            RecoveredPageOutcome::Failed("no log".into()),
        ]),
        CallbackReplyMsg::CachedPages(vec![Some(page_buf(5, 40)), None, Some(page_buf(6, 8))]),
    ];
    for r in &replies {
        let segs = frame::encode_callback_reply(1, r).unwrap();
        let (h, body) = read_back(&segs, FrameKind::CbResp, 1);
        check(&body, &|b| frame::decode_callback_reply(&h, b).err());
    }

    // A count that the body cannot hold is refused before it sizes an
    // allocation.
    let segs = frame::encode_callback(1, &Callback::RecoverPages(vec![sample_job(2)])).unwrap();
    let (h, mut body) = read_back(&segs, FrameKind::Cb, 1);
    body[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = frame::decode_callback(&h, &body).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

/// A batched pull costs a u32 count and a u64 per page asked for, and its
/// reply a u32 count, a presence byte per page and a u32 length before
/// each copy — one frame each way, whatever the page count.
#[test]
fn ship_cached_pages_frames_cost_what_they_carry() {
    for n in [0usize, 1, 7, RECOVER_BATCH_PAGES] {
        let pages: Vec<PageId> = (0..n as u64).map(|p| PageId(p * 3)).collect();
        let cb = Callback::ShipCachedPages(pages);
        let segs = frame::encode_callback(5, &cb).unwrap();
        assert_eq!(frame::frame_len(&segs), HEADER + 4 + 8 * n);
        assert_eq!(frame::callback_frame_len(&cb), HEADER + 4 + 8 * n);
        let (h, body) = read_back(&segs, FrameKind::Cb, 5);
        assert_eq!(frame::decode_callback(&h, &body).unwrap(), cb);

        // Every third page is not cached.
        let copies: Vec<Option<Arc<[u8]>>> = (0..n)
            .map(|i| (i % 3 != 2).then(|| page_buf(i as u8, 100 + i)))
            .collect();
        let expected = HEADER
            + 4
            + copies
                .iter()
                .map(|c| 1 + c.as_ref().map_or(0, |b| 4 + b.len()))
                .sum::<usize>();
        let reply = CallbackReplyMsg::CachedPages(copies);
        let segs = frame::encode_callback_reply(5, &reply).unwrap();
        assert_eq!(frame::frame_len(&segs), expected);
        assert_eq!(frame::callback_reply_frame_len(&reply), expected);
        let (h, body) = read_back(&segs, FrameKind::CbResp, 5);
        assert_eq!(frame::decode_callback_reply(&h, &body).unwrap(), reply);
    }
}

/// Hostile counts and lengths in a batched pull are refused before they
/// size an allocation: a page count or a copy length past the body, up to
/// one far past `MAX_FRAME`, is `Corrupt` and never a panic.
#[test]
fn a_hostile_cached_page_count_or_length_is_refused() {
    let exceeds = |err: FglError| matches!(&err, FglError::Corrupt(m) if m.contains("exceeds"));
    // The smallest count the body cannot hold, and two far past it.
    let hostile = |body: &[u8], min_elem: usize| {
        [
            ((body.len() - 4) / min_elem + 1) as u32,
            (MAX_FRAME + 1) as u32,
            u32::MAX,
        ]
    };

    let cb = Callback::ShipCachedPages(vec![PageId(1), PageId(2)]);
    let (h, body) = read_back(&frame::encode_callback(1, &cb).unwrap(), FrameKind::Cb, 1);
    for n in hostile(&body, 8) {
        let mut bad = body.clone();
        bad[..4].copy_from_slice(&n.to_le_bytes());
        assert!(
            exceeds(frame::decode_callback(&h, &bad).unwrap_err()),
            "count {n}"
        );
    }

    let page = page_buf(7, 300);
    let reply = CallbackReplyMsg::CachedPages(vec![None, Some(page.clone())]);
    let segs = frame::encode_callback_reply(1, &reply).unwrap();
    let (h, body) = read_back(&segs, FrameKind::CbResp, 1);
    for n in hostile(&body, 1) {
        let mut bad = body.clone();
        bad[..4].copy_from_slice(&n.to_le_bytes());
        assert!(
            exceeds(frame::decode_callback_reply(&h, &bad).unwrap_err()),
            "count {n}"
        );
    }
    // Count, the absent page's byte, the present page's byte, its length.
    let at = 4 + 1 + 1;
    assert_eq!(body[at..at + 4], (page.len() as u32).to_le_bytes());
    for n in [page.len() as u32 + 1, (MAX_FRAME + 1) as u32, u32::MAX] {
        let mut bad = body.clone();
        bad[at..at + 4].copy_from_slice(&n.to_le_bytes());
        assert!(
            exceeds(frame::decode_callback_reply(&h, &bad).unwrap_err()),
            "length {n}"
        );
    }
    // A presence byte other than 0 or 1 is corrupt too.
    let mut bad = body.clone();
    bad[4] = 2;
    let err = frame::decode_callback_reply(&h, &bad).unwrap_err();
    assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
}

#[test]
fn version_3_peers_are_refused() {
    // Version 3 still speaks the per-page `CallbackListFor`/`RecoverPage`
    // frames under the tags the batched ones took over; it is turned away
    // at the handshake, in both directions. So is version 4, whose Hello
    // has no role byte: it is refused by version, not misread as short.
    // Version 5 has the role byte, but its grants carry no page. Version 6
    // pulls one cached page per `ShipCachedPage` under the tag the batched
    // `ShipCachedPages` took over.
    // Version 7 has no page-batch frames: its restart would meet tags it
    // cannot decode. Version 8 can still name the retired write-behind
    // strategy (config code 3).
    assert_eq!(frame::WIRE_VERSION, 9);
    let hello =
        frame::frame_bytes(&frame::encode_hello(ClientId(1), StreamRole::Rpc))[HEADER..].to_vec();
    for old in [3u16, 4, 5, 6, 7, 8] {
        let role_bytes = usize::from(old >= 5);
        let mut hello = hello[..hello.len() - 1 + role_bytes].to_vec();
        hello[4..6].copy_from_slice(&old.to_le_bytes());
        let err = frame::decode_hello(&hello).unwrap_err();
        assert!(
            matches!(&err, FglError::Protocol(m) if m.contains(&format!("peer speaks {old}"))),
            "{err:?}"
        );
    }
    let ack = frame::encode_hello_ack(&SystemConfig::default());
    let mut ack = frame::frame_bytes(&ack)[HEADER..].to_vec();
    ack[..2].copy_from_slice(&3u16.to_le_bytes());
    let err = frame::decode_hello_ack(&ack).unwrap_err();
    assert!(
        matches!(&err, FglError::Protocol(m) if m.contains("server speaks 3")),
        "{err:?}"
    );
    ack[..2].copy_from_slice(&8u16.to_le_bytes());
    let err = frame::decode_hello_ack(&ack).unwrap_err();
    assert!(
        matches!(&err, FglError::Protocol(m) if m.contains("server speaks 8")),
        "{err:?}"
    );
}

#[test]
fn hello_rejects_bad_magic_and_version() {
    let good = frame::frame_bytes(&frame::encode_hello(ClientId(1), StreamRole::Rpc));
    let body = good[HEADER..].to_vec();

    let mut bad_magic = body.clone();
    bad_magic[0] ^= 0xFF;
    assert!(frame::decode_hello(&bad_magic).is_err());

    let mut bad_version = body;
    bad_version[4] = 0xFF;
    assert!(frame::decode_hello(&bad_version).is_err());
}

// ---- encoder limits --------------------------------------------------------

#[test]
fn encoders_refuse_counts_that_overflow_wire_fields() {
    // A deferred completion carries its retained count in the 8-bit aux
    // header byte.
    let too_many_retained = Request::CallbackComplete {
        kind: CallbackKind::DeEscalatePage(PageId(1)),
        retained: vec![(obj(1, 0), ObjMode::S); 256],
        page_copy: None,
    };
    let err = frame::encode_request(1, &too_many_retained).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");

    // A callback outcome carries its page length in a u16.
    let oversized_page = CallbackReplyMsg::Outcomes(vec![CallbackOutcome::Done {
        retained: vec![],
        page_copy: Some(page_buf(0, (u16::MAX as usize) + 1)),
    }]);
    let err = frame::encode_callback_reply(1, &oversized_page).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");

    // A deferred outcome carries its blocker count in a u16.
    let too_many_blockers = CallbackReplyMsg::Outcomes(vec![CallbackOutcome::Deferred {
        blockers: vec![TxnId(0); (u16::MAX as usize) + 1],
    }]);
    let err = frame::encode_callback_reply(1, &too_many_blockers).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");

    // A replay batch the reader would refuse as longer than `MAX_FRAME`
    // is refused by the encoder (one shared megabyte, named 65 times).
    let base = page_buf(0, 1 << 20);
    let jobs = (0..=(MAX_FRAME >> 20) as u64)
        .map(|p| RecoverJob {
            page: PageId(p),
            base: base.clone(),
            install_psn: Psn(0),
            callback_list: vec![],
        })
        .collect();
    let err = frame::encode_callback(1, &Callback::RecoverPages(jobs)).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");
    let recovered = vec![RecoveredPageOutcome::Done(vec![0; 1 << 20]); (MAX_FRAME >> 20) + 1];
    let err =
        frame::encode_callback_reply(1, &CallbackReplyMsg::RecoveredPages(recovered)).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");

    // So are page batches past `MAX_FRAME`, both ways.
    let ship = Request::ShipPages {
        pages: vec![base; (MAX_FRAME >> 20) + 1],
        replaced: true,
    };
    let err = frame::encode_request(1, &ship).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");
    let fetched = Reply::Pages(vec![(vec![0; 1 << 20], None); (MAX_FRAME >> 20) + 1]);
    let err = frame::encode_reply(1, &fetched).unwrap_err();
    assert!(matches!(err, FglError::Protocol(_)), "{err:?}");
}

// ---- page batches ----------------------------------------------------------

/// A page batch costs a u32 count and what each page carries: a u64 id
/// per page asked for or forced; a replaced byte, then a u32 length and
/// the frame per page shipped; and per copy fetched, its optional PSN, a
/// u32 length and the bytes — one frame each way, whatever the count.
#[test]
fn page_batch_frames_cost_what_they_carry() {
    for n in BATCH_SIZES {
        let [fetch, ship, force] = sample_page_batches(n);
        let shipped: usize = match &ship {
            Request::ShipPages { pages, .. } => pages.iter().map(|p| 4 + p.len()).sum(),
            _ => unreachable!(),
        };
        for (req, len) in [
            (&fetch, HEADER + 4 + 8 * n),
            (&ship, HEADER + 1 + 4 + shipped),
            (&force, HEADER + 4 + 8 * n),
        ] {
            let segs = frame::encode_request(9, req).unwrap();
            assert_eq!(frame::frame_len(&segs), len, "{req:?}");
            assert_eq!(frame::request_frame_len(req), len, "{req:?}");
            let (h, body) = read_back(&segs, FrameKind::Req, 9);
            assert_eq!(&frame::decode_request(&h, &body).unwrap(), req);
        }
        let reply = sample_pages_reply(n);
        let Reply::Pages(copies) = &reply else {
            unreachable!()
        };
        let len = HEADER
            + 4
            + copies
                .iter()
                .map(|(b, psn)| if psn.is_some() { 9 } else { 1 } + 4 + b.len())
                .sum::<usize>();
        let segs = frame::encode_reply(9, &reply).unwrap();
        assert_eq!(frame::frame_len(&segs), len);
        assert_eq!(frame::reply_frame_len(&reply), len);
        let (h, body) = read_back(&segs, FrameKind::Resp, 9);
        assert_eq!(frame::decode_reply(&h, &body).unwrap(), reply);
    }
}

/// A shipped batch travels as the original page buffers, one shared
/// segment per page, in order.
#[test]
fn ship_pages_shares_every_page_buffer() {
    let pages: Vec<Arc<[u8]>> = (0..5).map(|i| page_buf(i, 128)).collect();
    let req = Request::ShipPages {
        pages: pages.clone(),
        replaced: true,
    };
    let segs = frame::encode_request(3, &req).unwrap();
    let shared: Vec<&Arc<[u8]>> = segs
        .iter()
        .filter_map(|s| match s {
            Seg::Shared(a) => Some(a),
            Seg::Owned(_) => None,
        })
        .collect();
    assert_eq!(shared.len(), pages.len());
    for (seg, page) in shared.iter().zip(&pages) {
        assert!(Arc::ptr_eq(seg, page));
    }
}

/// Hostile counts and lengths in a page batch are `Corrupt` before they
/// size an allocation, up to one far past `MAX_FRAME`; no strict prefix
/// of a batch body decodes, and neither does one with a byte to spare.
#[test]
fn a_hostile_page_batch_count_or_length_is_refused() {
    let exceeds = |err: FglError| matches!(&err, FglError::Corrupt(m) if m.contains("exceeds"));
    // The smallest count the rest of the body cannot hold, and two far
    // past it; the count sits at `at`.
    let hostile = |body: &[u8], at: usize, min_elem: usize| {
        [
            ((body.len() - at - 4) / min_elem + 1) as u32,
            (MAX_FRAME + 1) as u32,
            u32::MAX,
        ]
    };
    let with = |body: &[u8], at: usize, n: u32| {
        let mut bad = body.to_vec();
        bad[at..at + 4].copy_from_slice(&n.to_le_bytes());
        bad
    };
    let [fetch, ship, force] = sample_page_batches(3);
    // Count first for the id lists; after the replaced byte for ships.
    for (req, at, min_elem) in [(&fetch, 0, 8), (&ship, 1, 4), (&force, 0, 8)] {
        let (h, body) = read_back(&frame::encode_request(1, req).unwrap(), FrameKind::Req, 1);
        for n in hostile(&body, at, min_elem) {
            let err = frame::decode_request(&h, &with(&body, at, n)).unwrap_err();
            assert!(exceeds(err), "{req:?} count {n}");
        }
        for cut in 0..body.len() {
            let err = frame::decode_request(&h, &body[..cut]).unwrap_err();
            assert!(matches!(err, FglError::Corrupt(_)), "cut {cut}: {err:?}");
        }
        let mut longer = body.clone();
        longer.push(0);
        let err = frame::decode_request(&h, &longer).unwrap_err();
        assert!(matches!(err, FglError::Corrupt(_)), "{err:?}");
    }
    // The first shipped page's length follows the count.
    let (h, body) = read_back(&frame::encode_request(1, &ship).unwrap(), FrameKind::Req, 1);
    let at = 1 + 4;
    assert_eq!(body[at..at + 4], 64u32.to_le_bytes());
    for n in [body.len() as u32, (MAX_FRAME + 1) as u32, u32::MAX] {
        let err = frame::decode_request(&h, &with(&body, at, n)).unwrap_err();
        assert!(exceeds(err), "length {n}");
    }

    let reply = sample_pages_reply(3);
    let (h, body) = read_back(&frame::encode_reply(1, &reply).unwrap(), FrameKind::Resp, 1);
    for n in hostile(&body, 0, 5) {
        let err = frame::decode_reply(&h, &with(&body, 0, n)).unwrap_err();
        assert!(exceeds(err), "count {n}");
    }
    // Count, the first copy's PSN (present), then its length.
    let at = 4 + 9;
    assert_eq!(body[at..at + 4], 64u32.to_le_bytes());
    for n in [body.len() as u32, (MAX_FRAME + 1) as u32, u32::MAX] {
        let err = frame::decode_reply(&h, &with(&body, at, n)).unwrap_err();
        assert!(exceeds(err), "length {n}");
    }
    for cut in 0..body.len() {
        let err = frame::decode_reply(&h, &body[..cut]).unwrap_err();
        assert!(matches!(err, FglError::Corrupt(_)), "cut {cut}: {err:?}");
    }
}
