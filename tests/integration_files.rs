//! End-to-end durability on real files: the server database on a
//! `FileDisk`, client private logs on `FileLogStore`s — and the §2 remark
//! that *"restart recovery for a crashed client may be performed by the
//! server or any other client that has access to the log of this
//! client"*: here a brand-new client process (same identity, same log
//! file) performs the recovery.

use fgl::{ClientId, FglError, System, SystemConfig};
use fgl_client::ClientCore;
use fgl_storage::disk::FileDisk;
use fgl_wal::codec::checksum;
use fgl_wal::store::{FileLogStore, LogStore, MemLogStore};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgl-it-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_system_round_trips() {
    let dir = scratch_dir("roundtrip");
    let cfg = SystemConfig::default();
    let disk = Arc::new(FileDisk::open(&dir.join("db.pages"), cfg.page_size).unwrap());
    let sys = System::build_with_disk(cfg, 1, disk).unwrap();
    let c = sys.client(0);
    let t = c.begin().unwrap();
    let page = c.create_page(t).unwrap();
    let obj = c.insert(t, page, b"on-disk-bytes").unwrap();
    c.commit(t).unwrap();
    c.harden().unwrap();
    // The payload is durable in the database file.
    let raw = std::fs::read(dir.join("db.pages")).unwrap();
    assert!(
        raw.windows(13).any(|w| w == b"on-disk-bytes"),
        "hardened object must be in the database file"
    );
    let t = c.begin().unwrap();
    assert_eq!(c.read(t, obj).unwrap(), b"on-disk-bytes");
    c.commit(t).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_recovery_by_a_fresh_process_over_the_same_log_file() {
    let dir = scratch_dir("foreign-recovery");
    let cfg = SystemConfig::default();
    let disk = Arc::new(FileDisk::open(&dir.join("db.pages"), cfg.page_size).unwrap());
    let sys = System::build_with_disk(cfg, 1, disk).unwrap();
    let log_path = dir.join("client2.wal");

    // "Client 2" runs with a file-backed private log, commits work, then
    // is dropped entirely (its process dies).
    let (page, obj) = {
        let c2 = ClientCore::with_log_store(
            ClientId(2),
            sys.server.clone(),
            sys.net.clone(),
            Box::new(FileLogStore::open(&log_path).unwrap()),
        );
        let t = c2.begin().unwrap();
        let page = c2.create_page(t).unwrap();
        let obj = c2.insert(t, page, b"survives-process-death").unwrap();
        c2.commit(t).unwrap();
        // Leave a loser in flight, durable in the log.
        let t = c2.begin().unwrap();
        c2.write(t, obj, &[0xAA; 22]).unwrap();
        c2.checkpoint().unwrap();
        // Tell the server the connection died; the old instance is gone.
        c2.crash();
        (page, obj)
    };

    // A brand-new runtime with the same identity opens the same log file
    // and performs §3.3 restart recovery.
    let c2b = ClientCore::reopen_with_log_store(
        ClientId(2),
        sys.server.clone(),
        sys.net.clone(),
        Box::new(FileLogStore::open(&log_path).unwrap()),
    )
    .unwrap();
    let report = c2b.recover().unwrap();
    // The committed txn predates the final checkpoint, so it is not in
    // the analysis window ("winners" counts commits seen in the scan);
    // its effects are still redone via the checkpointed DPT — verified by
    // the read below.
    assert!(report.losers >= 1, "the in-flight txn must be undone");
    assert!(
        report.records_applied >= 1,
        "redo must replay the committed insert"
    );

    // Committed state visible through client 1.
    let c1 = sys.client(0);
    let t = c1.begin().unwrap();
    assert_eq!(c1.read(t, obj).unwrap(), b"survives-process-death");
    c1.commit(t).unwrap();
    let _ = page;
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_database_survives_process_style_reopen() {
    let dir = scratch_dir("server-reopen");
    let cfg = SystemConfig::default();
    let db = dir.join("db.pages");
    let (page, obj);
    {
        let disk = Arc::new(FileDisk::open(&db, cfg.page_size).unwrap());
        let sys = System::build_with_disk(cfg.clone(), 1, disk).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        page = c.create_page(t).unwrap();
        obj = c.insert(t, page, b"reopened").unwrap();
        c.commit(t).unwrap();
        c.harden().unwrap();
    }
    // A second "server process" over the same database file.
    {
        let disk = Arc::new(FileDisk::open(&db, cfg.page_size).unwrap());
        let sys = System::build_with_disk(cfg, 1, disk).unwrap();
        // The page is on disk; a fresh client can read it (locks are
        // fresh too — no one holds anything).
        let c = sys.client(0);
        let t = c.begin().unwrap();
        assert_eq!(c.read(t, obj).unwrap(), b"reopened");
        c.commit(t).unwrap();
    }
    let _ = page;
    let _ = std::fs::remove_dir_all(&dir);
}

/// A private log whose record is intact (its checksum holds) but of the
/// fixed-width record layout: restart refuses it as `Corrupt`, naming the
/// record format, where it once read the log as empty and recovered
/// nothing.
#[test]
fn restart_refuses_a_log_of_another_record_format() {
    let sys = System::build(SystemConfig::default(), 1).unwrap();
    // A begin of transaction 7 of client 2 as the fixed-width layout
    // encoded it: tag 1, then the u64 transaction id.
    let body = [1, 7, 0, 0, 0, 2, 0, 0, 0];
    let mut store = MemLogStore::new();
    store.append(&(body.len() as u32).to_le_bytes()).unwrap();
    store.append(&checksum(&body).to_le_bytes()).unwrap();
    store.append(&body).unwrap();
    store.sync().unwrap();
    let c = ClientCore::reopen_with_log_store(
        ClientId(2),
        sys.server.clone(),
        sys.net.clone(),
        Box::new(store),
    )
    .unwrap();
    let err = c.recover().unwrap_err();
    assert!(
        matches!(&err, FglError::Corrupt(m) if m.contains("record format")),
        "{err:?}"
    );
}
