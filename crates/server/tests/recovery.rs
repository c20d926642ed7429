//! Focused tests of server restart recovery (§3.4): DCT reconstruction
//! via Property 2 (replacement records matched against on-disk PSNs), and
//! the GLM rebuild from reported client lock tables.

use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_net::peer::{CallbackOutcome, ClientPeer, ClientStateReport, RecoveredPageOutcome};
use fgl_net::stats::NetSim;
use fgl_net::ServerApi;
use fgl_server::runtime::ServerCore;
use fgl_storage::disk::MemDisk;
use fgl_storage::page::Page;
use fgl_wal::records::DptEntry;
use parking_lot::Mutex;
use std::sync::Arc;

/// Scriptable peer: serves a fixed state report and replays nothing (its
/// `recover_page` returns the base unchanged).
struct ScriptedPeer {
    id: ClientId,
    report: Mutex<ClientStateReport>,
    cached_copies: Mutex<Vec<(PageId, Vec<u8>)>>,
}

impl ClientPeer for ScriptedPeer {
    fn client_id(&self) -> ClientId {
        self.id
    }
    fn deliver_callback(&self, _: CallbackKind) -> CallbackOutcome {
        CallbackOutcome::Done {
            retained: vec![],
            page_copy: None,
        }
    }
    fn notify_page_flushed(&self, _: PageId) {}
    fn report_state(&self) -> ClientStateReport {
        self.report.lock().clone()
    }
    fn callback_list_for(&self, _: PageId, _: ClientId, _: Lsn) -> Vec<(ObjectId, Psn)> {
        vec![]
    }
    fn ship_cached_page(&self, page: PageId) -> Option<std::sync::Arc<[u8]>> {
        self.cached_copies
            .lock()
            .iter()
            .find(|(p, _)| *p == page)
            .map(|(_, b)| b.as_slice().into())
    }
    fn recover_page(
        &self,
        _: PageId,
        base: Vec<u8>,
        _: Psn,
        _: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        RecoveredPageOutcome::Done(base)
    }
}

fn server() -> Arc<ServerCore> {
    let net = Arc::new(NetSim::new(std::time::Duration::ZERO));
    ServerCore::new(SystemConfig::default(), net, Arc::new(MemDisk::new()))
}

#[test]
fn property2_dct_psns_rebuilt_from_matching_replacement_record() {
    // Build real server state: a page updated by one client, flushed
    // (replacement record forced, §3.1), then crash and restart with a
    // client whose DPT still references the page but does not cache it.
    let s = server();
    let state = Arc::new(Mutex::new(ClientStateReport::default()));
    let peer = Arc::new(ScriptedPeer {
        id: ClientId(1),
        report: Mutex::new(ClientStateReport::default()),
        cached_copies: Mutex::new(vec![]),
    });
    s.register_client(peer.clone());
    let _ = state;

    // Client 1 allocates, updates and ships the page; the server forces it.
    let bytes = s
        .allocate_page(ClientId(1), TxnId::compose(ClientId(1), 1))
        .unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    let slot = copy.insert_object(b"prop2-payload").unwrap();
    let shipped_psn = copy.psn();
    let pid = copy.id();
    s.ship_page(ClientId(1), copy.as_bytes().into(), true)
        .unwrap();
    s.flush_page(pid).unwrap();

    // Crash: pool/DCT/GLM gone. The client (operational) reports a DPT
    // entry for the page and no cached copy — the §3.4 candidate set.
    s.crash();
    *peer.report.lock() = ClientStateReport {
        dpt: vec![DptEntry {
            page: pid,
            redo_lsn: Lsn(1),
        }],
        cached_pages: vec![],
        locks: vec![LockTarget::Object(ObjectId::new(pid, slot), ObjMode::X)],
    };
    let report = s.restart_recovery().unwrap();
    assert_eq!(report.pages_recovered, 1);
    assert_eq!(report.recovery_units, 1);

    // Property 2: the replacement record whose PSN matches the on-disk
    // PSN identifies the client updates present on disk — the rebuilt DCT
    // must vouch for client 1 at (at least) the shipped/merged PSN.
    let (bytes, dct_psn) = s.fetch_page(ClientId(1), pid).unwrap();
    let disk = Page::from_bytes(bytes).unwrap();
    assert_eq!(disk.read_object(slot).unwrap(), b"prop2-payload");
    let vouched = dct_psn.expect("rebuilt DCT must have a PSN for client 1");
    assert!(
        vouched >= shipped_psn,
        "Property 2 PSN {vouched:?} must cover the shipped {shipped_psn:?}"
    );
}

#[test]
fn restart_pulls_cached_dpt_pages_from_operational_clients() {
    // §3.4 step 4: pages a client still caches are simply shipped and
    // merged — no replay unit is created for them.
    let s = server();
    let peer = Arc::new(ScriptedPeer {
        id: ClientId(1),
        report: Mutex::new(ClientStateReport::default()),
        cached_copies: Mutex::new(vec![]),
    });
    s.register_client(peer.clone());
    let bytes = s
        .allocate_page(ClientId(1), TxnId::compose(ClientId(1), 1))
        .unwrap();
    let mut copy = Page::from_bytes(bytes).unwrap();
    let slot = copy.insert_object(b"cached-state").unwrap();
    let pid = copy.id();
    // The client never ships; the server crashes with a virgin pool copy.
    s.crash();
    *peer.report.lock() = ClientStateReport {
        dpt: vec![DptEntry {
            page: pid,
            redo_lsn: Lsn(1),
        }],
        cached_pages: vec![(pid, copy.psn())],
        locks: vec![LockTarget::Object(ObjectId::new(pid, slot), ObjMode::X)],
    };
    peer.cached_copies
        .lock()
        .push((pid, copy.as_bytes().to_vec()));
    let report = s.restart_recovery().unwrap();
    assert_eq!(report.recovery_units, 0, "cached pages need no replay");
    let (bytes, _) = s.fetch_page(ClientId(1), pid).unwrap();
    let merged = Page::from_bytes(bytes).unwrap();
    assert_eq!(merged.read_object(slot).unwrap(), b"cached-state");
}

#[test]
fn restart_rebuilds_glm_from_reported_lock_tables() {
    let s = server();
    let peer = Arc::new(ScriptedPeer {
        id: ClientId(1),
        report: Mutex::new(ClientStateReport::default()),
        cached_copies: Mutex::new(vec![]),
    });
    s.register_client(peer.clone());
    let bytes = s
        .allocate_page(ClientId(1), TxnId::compose(ClientId(1), 1))
        .unwrap();
    let page = Page::from_bytes(bytes).unwrap();
    let pid = page.id();
    s.ship_page(ClientId(1), page.as_bytes().into(), true)
        .unwrap();
    s.flush_page(pid).unwrap();
    s.crash();
    let obj = ObjectId::new(pid, fgl_common::SlotId(0));
    *peer.report.lock() = ClientStateReport {
        dpt: vec![],
        cached_pages: vec![],
        locks: vec![LockTarget::Object(obj, ObjMode::X)],
    };
    s.restart_recovery().unwrap();
    // A second client's conflicting request must trigger the callback
    // protocol against the reinstalled lock.
    let peer2 = Arc::new(ScriptedPeer {
        id: ClientId(2),
        report: Mutex::new(ClientStateReport::default()),
        cached_copies: Mutex::new(vec![]),
    });
    s.register_client(peer2);
    match s
        .lock(
            ClientId(2),
            TxnId::compose(ClientId(2), 1),
            LockTarget::Object(obj, ObjMode::X),
            None,
        )
        .unwrap()
    {
        fgl_server::runtime::LockResponse::Granted { .. }
        | fgl_server::runtime::LockResponse::Decided(_) => {
            // Granted only because ScriptedPeer 1 instantly complied with
            // the release callback — which proves the lock existed.
        }
        fgl_server::runtime::LockResponse::Wait(w) => {
            assert!(w.wait(std::time::Duration::from_secs(1)).is_some());
        }
    }
}
