//! The client's implementation of the server→client half of the protocol
//! ([`ClientPeer`]): lock callbacks (§3.2), flush notifications (§3.6)
//! and the restart-recovery services of §3.4.

use crate::runtime::ClientCore;
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
        // §2: the log covering shipped state must be durable before the
        // page leaves. Each ship forces only when its page's own records
        // (undo spilled at the steal point included) are not durable yet;
        // the st mutex is held for the whole batch, so one force covers
        // every later page the batch ships.
        let mut shipped: Vec<PageId> = Vec::new();
        let mut outcomes = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            let reply = st.llm.handle_callback(kind);
            let outcome = match reply {
                CallbackReply::Done { retained } => {
                    // A complied de-escalation replaced our page lock with
                    // object locks (§3.2) — the adaptive scheme's signature
                    // moment, so it gets its own event.
                    if matches!(kind, CallbackKind::DeEscalatePage(_)) {
                        fgl_obs::emit(fgl_obs::Event::DeEscalate {
                            client: self.id(),
                            page: kind.page(),
                        });
                    }
                    let sheds = !matches!(kind, CallbackKind::DeEscalatePage(_));
                    let page = kind.page();
                    // Any complied callback that leaves the page visible
                    // to a competitor ships the dirty copy: the
                    // requester's fetch must observe our (committed or
                    // steal-protected) updates. A page already shipped by
                    // this batch is clean by construction.
                    //
                    // A copy travels in the reply, and the server absorbs
                    // it only when the delivering wave applies that reply.
                    // A second wave's callback for the same page can run
                    // here first, find the page clean, and reply with no
                    // copy — letting the server grant + ship its stale
                    // store copy before the first wave's reply lands. So
                    // the stash in `in_transit` is *retained* after a
                    // reply-ship: any racing wave re-ships the same bytes
                    // and the server absorbs them before it grants
                    // (absorption is a per-slot PSN-max merge, so the
                    // re-ship is idempotent). A freshly dirty cache copy
                    // always wins over the stash.
                    let page_copy = if shipped.contains(&page) {
                        None
                    } else if st.cache.is_dirty(page) {
                        let log_durable = self.spill_undo_for_page(&mut st, page).is_ok()
                            && st.force_for_pages(&[page]).is_ok();
                        if log_durable {
                            // One snapshot of the cache copy, shared from
                            // here on: the reply, the stash and any racing
                            // wave all alias this frame.
                            let bytes: Option<Arc<[u8]>> =
                                st.cache.peek(page).map(|p| p.to_wire().into());
                            if let Some(b) = &bytes {
                                st.cache.mark_clean(page);
                                // Remember the ship point so a later flush
                                // advances our DPT RedoLSN (§3.6).
                                let end = st.wal.end_lsn();
                                if let Some(e) = st.dpt.get_mut(&page) {
                                    e.remembered = Some(end);
                                    e.updated_since_ship = false;
                                }
                                st.in_transit.insert(page, Arc::clone(b));
                                shipped.push(page);
                            }
                            bytes
                        } else {
                            None
                        }
                    } else if let Some(bytes) = st.in_transit.get(&page).cloned() {
                        // Racing wave: re-ship the stashed frame. The clone
                        // is an Arc bump, not a page copy.
                        shipped.push(page);
                        Some(bytes)
                    } else {
                        None
                    };
                    if sheds {
                        self.drop_if_unlocked(&mut st, page);
                    }
                    CallbackOutcome::Done {
                        retained,
                        page_copy,
                    }
                }
                CallbackReply::Deferred { blockers } => CallbackOutcome::Deferred { blockers },
            };
            outcomes.push(outcome);
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

    /// §3.4 step 4: ship the cached copies of `pages`, one copy or `None`
    /// per page. The state mutex is held for the whole batch, so at most
    /// one log force after every page's undo spill covers them all (WAL).
    pub(crate) fn ship_cached_pages_bytes(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        let mut st = self.st.lock();
        let ready: Vec<bool> = pages
            .iter()
            .map(|&page| st.cache.contains(page) && self.spill_undo_for_page(&mut st, page).is_ok())
            .collect();
        let shipping = pages
            .iter()
            .zip(&ready)
            .filter_map(|(p, &r)| r.then_some(p));
        if !ready.contains(&true) || st.force_for_pages(shipping).is_err() {
            return vec![None; pages.len()];
        }
        pages
            .iter()
            .zip(ready)
            .map(|(&page, ready)| {
                st.cache
                    .peek(page)
                    .filter(|_| ready)
                    .map(|p| p.to_wire().into())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::SystemConfig;
    use fgl_net::peer::CallbackOutcome;
    use fgl_net::stats::NetSim;
    use fgl_server::runtime::ServerCore;
    use fgl_storage::disk::MemDisk;
    use fgl_storage::page::Page;

    fn build() -> Arc<ClientCore> {
        let cfg = SystemConfig::default();
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
}
