//! The client's implementation of the server→client half of the protocol
//! ([`ClientPeer`]): lock callbacks (§3.2), flush notifications (§3.6)
//! and the restart-recovery services of §3.4.

use crate::runtime::{ClientCore, Exit, Leaving};
use fgl_common::{ClientId, Lsn, ObjectId, PageId, Psn};
use fgl_locks::glm::{CallbackKind, CallbackReply};
use fgl_net::peer::{
    CallbackOutcome, ClientPeer, ClientStateReport, RecoverJob, RecoveredPageOutcome,
};
use fgl_wal::records::{DptEntry, RecordKind};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// What the server holds for each registered client. Weak so the
/// server↔client reference cycle cannot leak.
pub struct PeerHandle {
    core: Weak<ClientCore>,
    id: ClientId,
}

impl PeerHandle {
    pub fn new(core: &Arc<ClientCore>) -> Self {
        PeerHandle {
            core: Arc::downgrade(core),
            id: core.id(),
        }
    }

    fn core(&self) -> Option<Arc<ClientCore>> {
        self.core.upgrade()
    }
}

impl ClientPeer for PeerHandle {
    fn client_id(&self) -> ClientId {
        self.id
    }

    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        match self.core() {
            Some(core) => core.handle_server_callback(kind),
            // Client object dropped: treat as released.
            None => CallbackOutcome::Done {
                retained: vec![],
                page_copy: None,
            },
        }
    }

    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        match self.core() {
            Some(core) => core.handle_server_callback_batch(kinds),
            None => kinds
                .iter()
                .map(|_| CallbackOutcome::Done {
                    retained: vec![],
                    page_copy: None,
                })
                .collect(),
        }
    }

    fn notify_page_flushed(&self, page: PageId) {
        if let Some(core) = self.core() {
            core.handle_flush_notification(page);
        }
    }

    fn report_state(&self) -> ClientStateReport {
        self.core().map(|c| c.report_state()).unwrap_or_default()
    }

    fn callback_list_for(
        &self,
        page: PageId,
        for_client: ClientId,
        from_lsn: Lsn,
    ) -> Vec<(ObjectId, Psn)> {
        self.callback_lists_for(&[(page, for_client, from_lsn)])
            .remove(0)
    }

    fn callback_lists_for(&self, queries: &[(PageId, ClientId, Lsn)]) -> Vec<Vec<(ObjectId, Psn)>> {
        match self.core() {
            Some(core) => core.callback_lists_for(queries),
            None => vec![Vec::new(); queries.len()],
        }
    }

    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>> {
        self.ship_cached_pages(&[page]).remove(0)
    }

    fn ship_cached_pages(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        match self.core() {
            Some(core) => core.ship_cached_pages_bytes(pages),
            None => vec![None; pages.len()],
        }
    }

    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        self.recover_pages(vec![RecoverJob {
            page,
            base: base.into(),
            install_psn,
            callback_list,
        }])
        .remove(0)
    }

    fn recover_pages(&self, jobs: Vec<RecoverJob>) -> Vec<RecoveredPageOutcome> {
        match self.core() {
            Some(core) => core.recover_pages_for_server(jobs),
            None => vec![RecoveredPageOutcome::Failed("client gone".into()); jobs.len()],
        }
    }
}

impl ClientCore {
    /// Handle a lock callback from the server (§3.2). Runs on a
    /// server-driving thread.
    pub(crate) fn handle_server_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        self.handle_server_callback_batch(std::slice::from_ref(&kind))
            .pop()
            .expect("batch handler returns one outcome per kind")
    }

    /// Handle a batch of callbacks in one pass over the client state:
    /// one mutex acquisition, at most one WAL force covering every page
    /// the batch ships, at most one page copy per page, one waiter
    /// wakeup. Outcomes are parallel to `kinds`.
    pub(crate) fn handle_server_callback_batch(
        &self,
        kinds: &[CallbackKind],
    ) -> Vec<CallbackOutcome> {
        let mut st = self.st.lock();
        if st.crashed {
            // A wave the server started before it learned of the crash.
            // Defer: the callback stays outstanding and the locks stay
            // held until recovery ends (§3.3). `Done` would release an
            // exclusive lock whose committed update lives only in the log,
            // and redo — which replays only under retained exclusive
            // locks — would then skip it: a lost update.
            return kinds
                .iter()
                .map(|_| CallbackOutcome::Deferred {
                    blockers: Vec::new(),
                })
                .collect();
        }
        // Any complied callback that leaves the page visible to a
        // competitor ships the dirty copy: the requester's fetch must
        // observe our (committed or steal-protected) updates. The pages
        // leave through the gate together, under one log force.
        //
        // A copy travels in the reply, and the server absorbs it only when
        // the delivering wave applies that reply. A second wave's callback
        // for the same page can run here first, find the page clean, and
        // reply with no copy — letting the server grant + ship its stale
        // store copy before the first wave's reply lands. So the gate
        // *retains* the stash in `in_transit` after a reply-ship: any
        // racing wave re-ships the same bytes and the server absorbs them
        // before it grants (absorption is a per-slot PSN-max merge, so the
        // re-ship is idempotent). A freshly dirty cache copy always wins
        // over the stash.
        let mut leaving: Vec<Leaving> = Vec::new();
        let mut dropping: Vec<PageId> = Vec::new();
        let mut outcomes: Vec<CallbackOutcome> = kinds
            .iter()
            .map(|&kind| match st.llm.handle_callback(kind) {
                CallbackReply::Done { retained } => {
                    // A complied de-escalation replaced our page lock with
                    // object locks (§3.2) — the adaptive scheme's signature
                    // moment, so it gets its own event.
                    if let CallbackKind::DeEscalatePage(page) = kind {
                        fgl_obs::emit(fgl_obs::Event::DeEscalate {
                            client: self.id(),
                            page,
                        });
                    }
                    let page = kind.page();
                    if !leaving.iter().any(|p| p.page == page) {
                        leaving.push(Leaving::new(page));
                    }
                    // §3.2: a callback that sheds the last lock on the page
                    // drops the page, once its copy has left.
                    if !matches!(kind, CallbackKind::DeEscalatePage(_))
                        && !st.llm.holds_any_on_page(page)
                    {
                        dropping.push(page);
                    }
                    CallbackOutcome::Done {
                        retained,
                        page_copy: None,
                    }
                }
                CallbackReply::Deferred { blockers } => CallbackOutcome::Deferred { blockers },
            })
            .collect();
        // A gate that fails fills in no copy: the batch answers with none.
        let _ = self.gate(&mut st, Exit::Callback, &mut leaving);
        for (&kind, outcome) in kinds.iter().zip(&mut outcomes) {
            if let CallbackOutcome::Done { page_copy, .. } = outcome {
                // The first callback on a page carries its one copy.
                if let Some(p) = leaving.iter_mut().find(|p| p.page == kind.page()) {
                    *page_copy = p.copy.take();
                }
            }
        }
        for page in dropping {
            st.cache.remove(page);
        }
        drop(st);
        self.cv.notify_all();
        outcomes
    }

    /// §3.6 flush notification: advance the DPT entry's RedoLSN to the
    /// end-of-log remembered at ship time, or drop the entry when the
    /// page was not updated since.
    pub(crate) fn handle_flush_notification(&self, page: PageId) {
        let mut st = self.st.lock();
        if st.crashed {
            return;
        }
        match st.dpt.get_mut(&page) {
            Some(e) if e.updated_since_ship => {
                if let Some(remembered) = e.remembered.take() {
                    if remembered > e.redo_lsn {
                        e.redo_lsn = remembered;
                    }
                }
            }
            Some(_) => {
                st.dpt.remove(&page);
            }
            None => {}
        }
        drop(st);
        self.cv.notify_all();
    }

    /// §3.4: report DPT, cached pages and LLM entries for server restart.
    pub(crate) fn report_state(&self) -> ClientStateReport {
        let st = self.st.lock();
        let mut dpt: Vec<DptEntry> = st
            .dpt
            .iter()
            .map(|(p, e)| DptEntry {
                page: *p,
                redo_lsn: e.redo_lsn,
            })
            .collect();
        dpt.sort_by_key(|e| e.page.0);
        ClientStateReport {
            dpt,
            cached_pages: st.cache.cached_psns(),
            locks: st.llm.all_locks(),
        }
    }

    /// §3.4: this client's `CallBack_P` contributions — per `(page,
    /// for_client, from_lsn)` query, the callback log records it wrote
    /// for objects of `page` naming `for_client`, the latest PSN per
    /// object winning. One scan of the log answers every query: it starts
    /// at the lowest floor and files a record into each query whose own
    /// floor it has reached.
    pub(crate) fn callback_lists_for(
        &self,
        queries: &[(PageId, ClientId, Lsn)],
    ) -> Vec<Vec<(ObjectId, Psn)>> {
        let st = self.st.lock();
        let ckpt = st.wal.last_checkpoint();
        // A query's floor: the earlier of our own DPT RedoLSN for the page
        // and the asker's, never later than the last checkpoint.
        let floors: Vec<Lsn> = queries
            .iter()
            .map(|&(page, _, from_lsn)| {
                let mut from = st.dpt.get(&page).map(|e| e.redo_lsn).unwrap_or(Lsn::NIL);
                if !from_lsn.is_nil() && (from.is_nil() || from_lsn < from) {
                    from = from_lsn;
                }
                if from.is_nil() || (!ckpt.is_nil() && ckpt < from) {
                    from = ckpt;
                }
                from
            })
            .collect();
        let Some(&start) = floors.iter().min() else {
            return Vec::new();
        };
        let mut asked: HashMap<(PageId, ClientId), Vec<usize>> = HashMap::new();
        for (i, &(page, for_client, _)) in queries.iter().enumerate() {
            asked.entry((page, for_client)).or_default().push(i);
        }
        let mut maps: Vec<HashMap<ObjectId, Psn>> = vec![HashMap::new(); queries.len()];
        // A callback record is all header. A record that does not parse
        // ends the answer (this client's own restart refuses the log).
        let mut scan = st.wal.scan_from(start);
        while let Ok(Some(rec)) = scan.next_header() {
            let cb = rec.header;
            if cb.kind != RecordKind::Callback {
                continue;
            }
            for &i in asked
                .get(&(cb.object.page, cb.from_client))
                .into_iter()
                .flatten()
            {
                if rec.lsn >= floors[i] {
                    // Forward scan: later records overwrite earlier ones
                    // ("the PSN stored in the most recent one", §3.4).
                    maps[i].insert(cb.object, cb.psn);
                }
            }
        }
        maps.into_iter()
            .map(|map| {
                let mut out: Vec<(ObjectId, Psn)> = map.into_iter().collect();
                out.sort_by_key(|(o, _)| (o.page.0, o.slot.0));
                out
            })
            .collect()
    }

    /// §3.4 step 4: ship the cached copies of `pages` through the gate,
    /// one copy or `None` per page, all of them `None` when the log could
    /// not be made durable for them.
    pub(crate) fn ship_cached_pages_bytes(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        let mut leaving: Vec<Leaving> = pages.iter().map(|&page| Leaving::new(page)).collect();
        let _ = self.gate(&mut self.st.lock(), Exit::Restart, &mut leaving);
        leaving.into_iter().map(|p| p.copy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::config::LoggingStrategyKind;
    use fgl_common::{SystemConfig, TxnId};
    use fgl_net::peer::CallbackOutcome;
    use fgl_net::stats::NetSim;
    use fgl_server::runtime::ServerCore;
    use fgl_storage::disk::MemDisk;
    use fgl_storage::page::Page;

    fn build() -> Arc<ClientCore> {
        build_with(SystemConfig::default())
    }

    fn build_with(cfg: SystemConfig) -> Arc<ClientCore> {
        let net = Arc::new(NetSim::new(cfg.net_latency));
        let server = ServerCore::new(cfg, net.clone(), Arc::new(MemDisk::new()));
        ClientCore::new(ClientId(1), server, net)
    }

    /// A batch whose callbacks span several pages ships exactly one copy
    /// per distinct page — and each copy carries a PSN at least as fresh
    /// as the client's committed updates, because the copy is taken from
    /// the cache *after* the WAL force and never re-shipped within the
    /// batch (the second callback on a page finds it already clean).
    #[test]
    fn batch_reply_ships_one_copy_per_page() {
        let c = build();
        let t = c.begin().unwrap();
        let p1 = c.create_page(t).unwrap();
        let p2 = c.create_page(t).unwrap();
        let a = c.insert(t, p1, b"aaaa").unwrap();
        let b = c.insert(t, p1, b"bbbb").unwrap();
        let x = c.insert(t, p2, b"xxxx").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        c.write(t, a, b"AAAA").unwrap();
        c.write(t, b, b"BBBB").unwrap();
        c.write(t, x, b"XXXX").unwrap();
        c.commit(t).unwrap();

        // Both pages are dirty in the cache. A single batch calls back all
        // three object locks: p1 twice, p2 once.
        let outcomes = c.handle_server_callback_batch(&[
            CallbackKind::ReleaseObject(a),
            CallbackKind::ReleaseObject(b),
            CallbackKind::ReleaseObject(x),
        ]);
        let copies: Vec<Option<Psn>> = outcomes
            .iter()
            .map(|o| match o {
                CallbackOutcome::Done { page_copy, .. } => page_copy
                    .as_ref()
                    .map(|bytes| Page::from_wire(bytes, c.config().page_size).unwrap().psn()),
                CallbackOutcome::Deferred { .. } => panic!("no txn active: {o:?}"),
            })
            .collect();
        assert!(copies[0].is_some(), "first callback on p1 ships the copy");
        assert!(
            copies[1].is_none(),
            "second callback on p1 must not ship a duplicate copy"
        );
        assert!(copies[2].is_some(), "p2 ships its own copy");

        // PSN monotonicity: each shipped copy reflects all three committed
        // updates — two PSN bumps on p1, one on p2 (plus the inserts).
        let t = c.begin().unwrap();
        let (psn1, psn2) = (copies[0].unwrap(), copies[2].unwrap());
        c.abort(t).unwrap();
        assert!(
            psn1 > psn2,
            "p1 took more updates than p2: {psn1:?} vs {psn2:?}"
        );

        // A later batch on a re-dirtied page ships a strictly newer copy.
        let t = c.begin().unwrap();
        c.write(t, x, b"YYYY").unwrap();
        c.commit(t).unwrap();
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::ReleaseObject(x)]);
        match &outcomes[0] {
            CallbackOutcome::Done {
                page_copy: Some(bytes),
                ..
            } => {
                let newer = Page::from_wire(bytes, c.config().page_size).unwrap().psn();
                assert!(newer > psn2, "re-shipped copy must advance the PSN");
            }
            other => panic!("expected a fresh copy: {other:?}"),
        }
    }

    /// The WAL rule is per page: a callback reply ships its page after the
    /// log is durable past that page's own records, and another page's
    /// pending update neither forces the log nor holds the ship up.
    #[test]
    fn a_callback_ship_forces_only_for_its_own_pages_records() {
        let c = build();
        let t = c.begin().unwrap();
        let p1 = c.create_page(t).unwrap();
        let p2 = c.create_page(t).unwrap();
        let a = c.insert(t, p1, b"aaaa").unwrap();
        let b = c.insert(t, p1, b"bbbb").unwrap();
        let d = c.insert(t, p1, b"dddd").unwrap();
        let x = c.insert(t, p2, b"xxxx").unwrap();
        c.commit(t).unwrap();
        let pending = |c: &ClientCore| {
            let st = c.st.lock();
            st.wal.durable_lsn() < st.wal.end_lsn()
        };
        let shipped = |outcome: &CallbackOutcome| {
            matches!(
                outcome,
                CallbackOutcome::Done {
                    page_copy: Some(_),
                    ..
                }
            )
        };

        // p1 is dirty with durable records only; p2 has a pending update.
        let t = c.begin().unwrap();
        c.write(t, x, b"XXXX").unwrap();
        let forces = c.stats().log_forces;
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::ReleaseObject(a)]);
        assert!(shipped(&outcomes[0]), "dirty p1 ships: {outcomes:?}");
        assert_eq!(c.stats().log_forces, forces, "p1 needed no force");
        assert!(pending(&c), "p2's update must stay pending");

        // Now p1 itself has a pending (uncommitted) update: its ship
        // forces the log first.
        c.write(t, b, b"BBBB").unwrap();
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::ReleaseObject(d)]);
        assert!(shipped(&outcomes[0]), "dirty p1 ships: {outcomes:?}");
        assert_eq!(c.stats().log_forces, forces + 1, "p1's record forced");
        assert!(!pending(&c), "the force covers the whole log");
        c.commit(t).unwrap();
    }

    /// DESIGN §6.12 for deferred completions. A completion ships the dirty
    /// copy and marks the page clean, and the server absorbs that copy
    /// only when the completion arrives. A callback wave for another
    /// object of the page, running in between, must ship the same copy:
    /// answered with none, it lets the server grant on a page without the
    /// completion's updates. The other order too: a completion that finds
    /// the page clean re-ships a copy an earlier reply may still carry.
    #[test]
    fn a_wave_racing_a_completion_reships_its_copy() {
        let c = build();
        let t = c.begin().unwrap();
        let p = c.create_page(t).unwrap();
        let a = c.insert(t, p, b"aaaa").unwrap();
        let b = c.insert(t, p, b"bbbb").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        c.write(t, a, b"AAAA").unwrap();
        c.write(t, b, b"BBBB").unwrap();
        c.commit(t).unwrap();
        let holds_b = |copy: &[u8]| {
            Page::from_wire(copy, c.config().page_size)
                .unwrap()
                .read_object(b.slot)
                .unwrap()
                == b"BBBB"
        };

        // The completion for `a` ships the dirty page; `b`'s wave races it.
        let completion = c
            .page_copy_for_callback(CallbackKind::ReleaseObject(a))
            .unwrap()
            .expect("a dirty page ships with its completion");
        assert!(!c.st.lock().cache.is_dirty(p));
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::DowngradeObject(b)]);
        match &outcomes[0] {
            CallbackOutcome::Done {
                page_copy: Some(copy),
                ..
            } => {
                assert!(
                    holds_b(copy),
                    "the racing wave shipped a copy without b's update"
                );
                assert!(
                    Arc::ptr_eq(copy, &completion),
                    "one snapshot, not a second copy"
                );
            }
            other => panic!("a wave racing a completion shipped no copy: {other:?}"),
        }

        // A reply ships the re-dirtied page; a completion racing it re-ships.
        let t = c.begin().unwrap();
        c.write(t, b, b"bBbB").unwrap();
        c.commit(t).unwrap();
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::DowngradeObject(b)]);
        let CallbackOutcome::Done {
            page_copy: Some(reply),
            ..
        } = &outcomes[0]
        else {
            panic!("a dirty page ships with the reply: {:?}", outcomes[0]);
        };
        let completion = c
            .page_copy_for_callback(CallbackKind::ReleaseObject(a))
            .unwrap()
            .expect("a completion racing a reply shipped no copy");
        assert!(Arc::ptr_eq(&completion, reply));
    }

    /// The copy `ship_pages` takes through the gate before it ships it.
    fn sync_copy(c: &ClientCore, page: PageId) -> Arc<[u8]> {
        let mut one = [Leaving::new(page)];
        c.gate(&mut c.st.lock(), Exit::Sync, &mut one).unwrap();
        let [Leaving { copy, .. }] = one;
        copy.expect("a dirty page leaves through the synchronous exit")
    }

    /// The copy a synchronous exit (§3.6 reclamation, `harden`,
    /// ship-at-commit, restart hardening) takes is stashed like a reply's:
    /// a callback for another object of the page, running after the copy
    /// left and before the server absorbed it, answers with that same
    /// frame. Answered with none, it lets the server grant on a page that
    /// lacks the shipped updates.
    #[test]
    fn a_wave_racing_a_synchronous_ship_reships_its_copy() {
        let c = build();
        let t = c.begin().unwrap();
        let p = c.create_page(t).unwrap();
        let a = c.insert(t, p, b"aaaa").unwrap();
        let b = c.insert(t, p, b"bbbb").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        c.write(t, a, b"AAAA").unwrap();
        c.write(t, b, b"BBBB").unwrap();
        c.commit(t).unwrap();

        // `ship_pages` takes its copy through the gate, then ships it.
        let shipping = sync_copy(&c, p);
        assert!(!c.st.lock().cache.is_dirty(p));
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::DowngradeObject(b)]);
        match &outcomes[0] {
            CallbackOutcome::Done {
                page_copy: Some(copy),
                ..
            } => assert!(
                Arc::ptr_eq(copy, &shipping),
                "one snapshot, not a second copy"
            ),
            other => panic!("a wave racing a synchronous ship shipped no copy: {other:?}"),
        }
        // The ship lands: its own stash goes with it.
        c.ship_stashed(vec![(p, shipping)], true).unwrap();
        assert!(!c.st.lock().in_transit.contains_key(&p));
    }

    /// A synchronous exit drops its stash on return only while the stash is
    /// still its own frame: a newer copy stashed by a reply while the ship
    /// was in flight must keep answering callbacks until it lands itself.
    #[test]
    fn a_newer_stash_survives_an_earlier_ships_return() {
        let c = build();
        let t = c.begin().unwrap();
        let p = c.create_page(t).unwrap();
        let a = c.insert(t, p, b"aaaa").unwrap();
        let b = c.insert(t, p, b"bbbb").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        c.write(t, a, b"AAAA").unwrap();
        c.commit(t).unwrap();

        let earlier = sync_copy(&c, p);
        // While that ship is in flight the page is dirtied again and a
        // callback reply ships (and stashes) the newer copy.
        let t = c.begin().unwrap();
        c.write(t, b, b"BBBB").unwrap();
        c.commit(t).unwrap();
        let outcomes = c.handle_server_callback_batch(&[CallbackKind::DowngradeObject(a)]);
        let CallbackOutcome::Done {
            page_copy: Some(newer),
            ..
        } = &outcomes[0]
        else {
            panic!("a dirty page ships with the reply: {:?}", outcomes[0]);
        };
        assert!(!Arc::ptr_eq(newer, &earlier));

        c.ship_stashed(vec![(p, earlier)], true).unwrap();
        let stash = c.st.lock().in_transit.get(&p).cloned();
        assert!(
            stash.is_some_and(|s| Arc::ptr_eq(&s, newer)),
            "the earlier ship's return removed a newer stash"
        );
    }

    /// The WAL rule at every exit a page copy has. An active transaction's
    /// uncommitted update is on the page when it leaves. Under redo-only
    /// logging the update's `UndoSpill` record must be durable by then;
    /// under client ARIES the log must be durable through the page's last
    /// record. Every exit counts its copy once in `pages_shipped`.
    #[test]
    fn every_exit_makes_the_log_durable_before_the_copy_leaves() {
        type Drive = fn(&ClientCore, TxnId, PageId, ObjectId);
        let exits: [(&str, Drive); 5] = [
            ("eviction", |c, t, _, _| {
                // A cache of two pages: two new pages push `p` out.
                c.create_page(t).unwrap();
                c.create_page(t).unwrap();
            }),
            ("callback reply", |c, _, _, other| {
                c.handle_server_callback_batch(&[CallbackKind::ReleaseObject(other)]);
            }),
            ("deferred completion", |c, _, _, other| {
                c.page_copy_for_callback(CallbackKind::ReleaseObject(other))
                    .unwrap()
                    .expect("a dirty page ships with its completion");
            }),
            ("synchronous ship", |c, _, p, _| {
                c.ship_pages(&[p], true).unwrap()
            }),
            ("restart step 4", |c, _, p, _| {
                c.ship_cached_pages_bytes(&[p])[0]
                    .as_ref()
                    .expect("a cached page ships at restart");
            }),
        ];
        for strategy in [
            LoggingStrategyKind::ClientAries,
            LoggingStrategyKind::RedoOnly,
        ] {
            for (name, drive) in exits {
                let mut cfg = SystemConfig::default().with_logging_strategy(strategy);
                cfg.client_cache_pages = 2;
                let c = build_with(cfg);
                let t = c.begin().unwrap();
                let p = c.create_page(t).unwrap();
                let a = c.insert(t, p, b"aaaa").unwrap();
                let other = c.insert(t, p, b"bbbb").unwrap();
                c.commit(t).unwrap();
                let t = c.begin().unwrap();
                c.write(t, a, b"AAAA").unwrap();
                let last = c.st.lock().dpt[&p].last_lsn;
                let shipped = c.stats().pages_shipped;

                drive(&c, t, p, other);

                let st = c.st.lock();
                let durable = st.wal.durable_lsn();
                assert!(
                    durable > last,
                    "{name}/{strategy:?}: the update is not durable"
                );
                let mut spills = Vec::new();
                let mut scan = st.wal.scan_from(Lsn::NIL);
                while let Some(rec) = scan.next_header().unwrap() {
                    if rec.header.kind == RecordKind::UndoSpill {
                        spills.push((rec.lsn, rec.header.txn, rec.header.object));
                    }
                }
                match strategy {
                    LoggingStrategyKind::ClientAries => assert!(spills.is_empty(), "{name}"),
                    LoggingStrategyKind::RedoOnly => {
                        assert!(
                            matches!(spills[..], [(lsn, txn, object)]
                                if txn == t && object == a && lsn < durable),
                            "{name}: one durable spill for the pending update: {spills:?}"
                        );
                    }
                }
                drop(st);
                assert_eq!(c.stats().pages_shipped, shipped + 1, "{name}/{strategy:?}");
            }
        }
    }
}
