//! The client-side partition router for the multi-server page service.
//!
//! A system with `SystemConfig::server_instances = N` runs N independent
//! page servers, instance `k` owning pages in the residue class
//! `PageId % N == k`. Clients keep exactly one handle — a
//! [`PartitionedServer`] implementing [`ServerApi`] over one inner
//! `Arc<dyn ServerApi>` per partition — so the client runtime, the sim
//! fabric and the socket transport all compose unchanged. `N = 1` systems
//! route through it too, over their one backend, so there is one client
//! routing path whatever the instance count.
//!
//! Routing rules:
//!
//! * **Page-addressed requests** (`lock`, `callback_complete`,
//!   `fetch_page`, `force_page`, `recovery_fetch`, `recover_client_page`)
//!   go to the page's owner. Shipped frames (`ship_page`,
//!   `install_recovered`) peek the page id out of the frame header.
//! * **Page batches** (`fetch_pages`, `ship_pages`, `force_pages`) split
//!   by residue: one call per instance the batch touches, each carrying
//!   that instance's pages in input order. Fetched copies come back in
//!   the order the caller asked for them.
//! * **Allocation** round-robins across partitions; each instance's space
//!   maps hand out ids in its own residue class, so placement balances
//!   without coordination.
//! * **Client-lifecycle requests** (`register_client`, `cancel_wait`,
//!   `client_crashed`, `client_recovery_end`) fan out to every partition
//!   — each holds an independent slice of the client's state. The §3.3
//!   recovery handshake merges per-partition answers (locks and DCT
//!   views concatenate; the DCT is complete only if every partition says
//!   so), and `poll_recovery_needs` concatenates.
//! * **`commit_ship_log`** (the §4.1 server-logging baseline) lands on
//!   every partition the transaction **touched**, **in parallel** via
//!   [`fgl_sched::fanout`]: under client-based logging there are no 2PC
//!   log records, but the baseline's commit durability must cover every
//!   server the transaction touched, so the ship fans out to the owners
//!   of the touched pages and the commit waits for all of them — max,
//!   not sum, of the per-partition forces. A partition-local transaction
//!   therefore pays exactly one serialized force, which is what lets the
//!   aggregate §4.1 commit capacity scale with the instance count. An
//!   empty hint is conservative: ship everywhere.
//! * **Local handles** (`config`, `config_shared`, `metrics`,
//!   `server_logging`, `fetch_client_log`) resolve at partition 0; the
//!   configuration and metrics registry are shared system-wide.

use crate::api::{FetchedPage, RecoverPagePlan, RecoveryHandshake, ServerApi};
use crate::peer::ClientPeer;
use fgl_common::{ClientId, FglError, PageId, Psn, Result, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::LockTarget;
use fgl_obs::Metrics;
use fgl_storage::page::Page;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One `ServerApi` handle per partition, routing by `PageId % N`.
pub struct PartitionedServer {
    parts: Vec<Arc<dyn ServerApi>>,
    /// Round-robin cursor for fresh-page allocation.
    alloc_next: AtomicU64,
}

impl PartitionedServer {
    /// Wrap one backend handle per partition, in instance order.
    pub fn new(parts: Vec<Arc<dyn ServerApi>>) -> Arc<Self> {
        assert!(!parts.is_empty(), "a partitioned server needs >= 1 backend");
        Arc::new(PartitionedServer {
            parts,
            alloc_next: AtomicU64::new(0),
        })
    }

    /// The partition index owning `page`.
    pub fn partition_of(&self, page: PageId) -> usize {
        (page.0 % self.parts.len() as u64) as usize
    }

    fn owner(&self, page: PageId) -> &Arc<dyn ServerApi> {
        &self.parts[self.partition_of(page)]
    }

    /// Deal a batch to the partitions owning its pages: per partition the
    /// batch touches, in order of first touch, the input positions and
    /// the items, both in input order.
    fn by_owner<T>(
        &self,
        items: impl IntoIterator<Item = (PageId, T)>,
    ) -> Vec<(usize, Vec<usize>, Vec<T>)> {
        let mut groups: Vec<(usize, Vec<usize>, Vec<T>)> = Vec::new();
        for (i, (page, item)) in items.into_iter().enumerate() {
            let k = self.partition_of(page);
            match groups.iter_mut().find(|(owner, ..)| *owner == k) {
                Some((_, at, group)) => {
                    at.push(i);
                    group.push(item);
                }
                None => groups.push((k, vec![i], vec![item])),
            }
        }
        groups
    }
}

impl ServerApi for PartitionedServer {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
        for part in &self.parts {
            part.register_client(peer.clone());
        }
    }

    fn lock(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<crate::api::LockResponse> {
        self.owner(target.page())
            .lock(client, txn, target, cached_psn)
    }

    fn cancel_wait(&self, client: ClientId, txn: TxnId) {
        // The caller does not know which partition the txn queued on;
        // non-owning partitions no-op.
        for part in &self.parts {
            part.cancel_wait(client, txn);
        }
    }

    fn callback_complete(
        &self,
        client: ClientId,
        kind: CallbackKind,
        retained: Vec<(fgl_common::ObjectId, fgl_locks::ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    ) -> Result<()> {
        self.owner(kind.page())
            .callback_complete(client, kind, retained, page_copy)
    }

    fn fetch_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        self.owner(page).fetch_page(client, page)
    }

    fn allocate_page(&self, client: ClientId, txn: TxnId) -> Result<Vec<u8>> {
        let idx =
            (self.alloc_next.fetch_add(1, Ordering::Relaxed) % self.parts.len() as u64) as usize;
        self.parts[idx].allocate_page(client, txn)
    }

    fn ship_page(&self, client: ClientId, bytes: Arc<[u8]>, replaced: bool) -> Result<()> {
        let page = Page::peek_id(&bytes)?;
        self.owner(page).ship_page(client, bytes, replaced)
    }

    fn force_page(&self, client: ClientId, page: PageId) -> Result<()> {
        self.owner(page).force_page(client, page)
    }

    fn fetch_pages(&self, client: ClientId, pages: &[PageId]) -> Result<Vec<FetchedPage>> {
        let mut out: Vec<Option<FetchedPage>> = pages.iter().map(|_| None).collect();
        for (k, at, group) in self.by_owner(pages.iter().map(|&p| (p, p))) {
            let copies = self.parts[k].fetch_pages(client, &group)?;
            if copies.len() != group.len() {
                return Err(FglError::Protocol(format!(
                    "partition {k} answered {} of {} pages",
                    copies.len(),
                    group.len()
                )));
            }
            for (i, copy) in at.into_iter().zip(copies) {
                out[i] = Some(copy);
            }
        }
        Ok(out.into_iter().flatten().collect())
    }

    fn ship_pages(&self, client: ClientId, pages: Vec<Arc<[u8]>>, replaced: bool) -> Result<()> {
        let routed = pages
            .into_iter()
            .map(|bytes| Ok((Page::peek_id(&bytes)?, bytes)))
            .collect::<Result<Vec<_>>>()?;
        for (k, _, group) in self.by_owner(routed) {
            self.parts[k].ship_pages(client, group, replaced)?;
        }
        Ok(())
    }

    fn force_pages(&self, client: ClientId, pages: &[PageId]) -> Result<()> {
        for (k, _, group) in self.by_owner(pages.iter().map(|&p| (p, p))) {
            self.parts[k].force_pages(client, &group)?;
        }
        Ok(())
    }

    fn commit_ship_log(
        &self,
        client: ClientId,
        records: Vec<u8>,
        touched: Vec<PageId>,
    ) -> Result<()> {
        let owners: Vec<usize> = if touched.is_empty() {
            (0..self.parts.len()).collect()
        } else {
            let mut want = vec![false; self.parts.len()];
            for p in &touched {
                want[self.partition_of(*p)] = true;
            }
            (0..self.parts.len()).filter(|k| want[*k]).collect()
        };
        // One owner runs inline: no scheduling detour for the common
        // partition-local case.
        fgl_sched::fan_out(owners, |k| {
            self.parts[k].commit_ship_log(client, records.clone(), touched.clone())
        })
        .into_iter()
        .collect()
    }

    fn fetch_client_log(&self, client: ClientId) -> Result<Vec<u8>> {
        self.parts[0].fetch_client_log(client)
    }

    fn server_logging(&self) -> bool {
        self.parts[0].server_logging()
    }

    fn client_crashed(&self, client: ClientId) {
        for part in &self.parts {
            part.client_crashed(client);
        }
    }

    fn client_recovery_begin(
        &self,
        client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        let mut locks = Vec::new();
        let mut pages = Vec::new();
        let mut dct_complete = true;
        for part in &self.parts {
            let (l, p, complete) = part.client_recovery_begin(client, peer.clone())?;
            locks.extend(l);
            pages.extend(p);
            dct_complete &= complete;
        }
        Ok((locks, pages, dct_complete))
    }

    fn client_recovery_end(&self, client: ClientId) -> Result<()> {
        for part in &self.parts {
            part.client_recovery_end(client)?;
        }
        Ok(())
    }

    fn recovery_fetch(
        &self,
        client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        self.owner(page).recovery_fetch(client, page, need)
    }

    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        self.owner(page).recover_client_page(client, page)
    }

    fn poll_recovery_needs(&self, provider: ClientId) -> Vec<(PageId, Psn)> {
        self.parts
            .iter()
            .flat_map(|part| part.poll_recovery_needs(provider))
            .collect()
    }

    fn install_recovered(&self, client: ClientId, bytes: Vec<u8>) -> Result<()> {
        let page = Page::peek_id(&bytes)?;
        self.owner(page).install_recovered(client, bytes)
    }

    fn config(&self) -> &SystemConfig {
        self.parts[0].config()
    }

    fn config_shared(&self) -> Arc<SystemConfig> {
        self.parts[0].config_shared()
    }

    fn metrics(&self) -> Arc<Metrics> {
        self.parts[0].metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::LockResponse;
    use crate::peer::{CallbackOutcome, ClientStateReport, RecoveredPageOutcome};
    use fgl_common::{Lsn, ObjectId, SlotId};
    use fgl_locks::mode::ObjMode;
    use fgl_storage::page::Page;
    use parking_lot::Mutex;

    /// A stub backend that records which methods reached it.
    struct RecordingServer {
        calls: Mutex<Vec<&'static str>>,
        /// The pages each batch call carried, in call order.
        batches: Mutex<Vec<Vec<PageId>>>,
        cfg: Arc<SystemConfig>,
        metrics: Arc<Metrics>,
    }

    impl RecordingServer {
        fn new() -> Arc<Self> {
            Arc::new(RecordingServer {
                calls: Mutex::new(Vec::new()),
                batches: Mutex::new(Vec::new()),
                cfg: Arc::new(SystemConfig::default()),
                metrics: Arc::new(Metrics::new()),
            })
        }

        fn note(&self, what: &'static str) {
            self.calls.lock().push(what);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut self.calls.lock())
        }
    }

    impl ServerApi for RecordingServer {
        fn register_client(&self, _peer: Arc<dyn ClientPeer>) {
            self.note("register_client");
        }
        fn lock(
            &self,
            _client: ClientId,
            _txn: TxnId,
            target: LockTarget,
            _cached_psn: Option<Psn>,
        ) -> Result<LockResponse> {
            self.note("lock");
            Ok(LockResponse::Granted {
                target,
                first_exclusive_on_page: false,
                evidence: None,
            })
        }
        fn cancel_wait(&self, _client: ClientId, _txn: TxnId) {
            self.note("cancel_wait");
        }
        fn callback_complete(
            &self,
            _client: ClientId,
            _kind: CallbackKind,
            _retained: Vec<(ObjectId, ObjMode)>,
            _page_copy: Option<Arc<[u8]>>,
        ) -> Result<()> {
            self.note("callback_complete");
            Ok(())
        }
        fn fetch_page(&self, _client: ClientId, _page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
            self.note("fetch_page");
            Ok((Vec::new(), None))
        }
        fn allocate_page(&self, _client: ClientId, _txn: TxnId) -> Result<Vec<u8>> {
            self.note("allocate_page");
            Ok(Vec::new())
        }
        fn ship_page(&self, _client: ClientId, _bytes: Arc<[u8]>, _replaced: bool) -> Result<()> {
            self.note("ship_page");
            Ok(())
        }
        fn force_page(&self, _client: ClientId, _page: PageId) -> Result<()> {
            self.note("force_page");
            Ok(())
        }
        /// Each copy is its page id, so the caller can check the order.
        fn fetch_pages(&self, _client: ClientId, pages: &[PageId]) -> Result<Vec<FetchedPage>> {
            self.note("fetch_pages");
            self.batches.lock().push(pages.to_vec());
            Ok(pages
                .iter()
                .map(|p| (p.0.to_le_bytes().to_vec(), Some(Psn(p.0))))
                .collect())
        }
        fn ship_pages(
            &self,
            _client: ClientId,
            pages: Vec<Arc<[u8]>>,
            _replaced: bool,
        ) -> Result<()> {
            self.note("ship_pages");
            let ids = pages.iter().map(|b| Page::peek_id(b).unwrap()).collect();
            self.batches.lock().push(ids);
            Ok(())
        }
        fn force_pages(&self, _client: ClientId, pages: &[PageId]) -> Result<()> {
            self.note("force_pages");
            self.batches.lock().push(pages.to_vec());
            Ok(())
        }
        fn commit_ship_log(
            &self,
            _client: ClientId,
            _records: Vec<u8>,
            _touched: Vec<PageId>,
        ) -> Result<()> {
            self.note("commit_ship_log");
            Ok(())
        }
        fn fetch_client_log(&self, _client: ClientId) -> Result<Vec<u8>> {
            self.note("fetch_client_log");
            Ok(Vec::new())
        }
        fn server_logging(&self) -> bool {
            self.note("server_logging");
            false
        }
        fn client_crashed(&self, _client: ClientId) {
            self.note("client_crashed");
        }
        fn client_recovery_begin(
            &self,
            _client: ClientId,
            _peer: Arc<dyn ClientPeer>,
        ) -> Result<RecoveryHandshake> {
            self.note("client_recovery_begin");
            Ok((Vec::new(), Vec::new(), true))
        }
        fn client_recovery_end(&self, _client: ClientId) -> Result<()> {
            self.note("client_recovery_end");
            Ok(())
        }
        fn recovery_fetch(
            &self,
            _client: ClientId,
            _page: PageId,
            _need: Option<(ClientId, Psn)>,
        ) -> Result<(Vec<u8>, Option<Psn>)> {
            self.note("recovery_fetch");
            Ok((Vec::new(), None))
        }
        fn recover_client_page(&self, _client: ClientId, _page: PageId) -> Result<RecoverPagePlan> {
            self.note("recover_client_page");
            Ok((Vec::new(), Psn(0), Vec::new()))
        }
        fn poll_recovery_needs(&self, _provider: ClientId) -> Vec<(PageId, Psn)> {
            self.note("poll_recovery_needs");
            Vec::new()
        }
        fn install_recovered(&self, _client: ClientId, _bytes: Vec<u8>) -> Result<()> {
            self.note("install_recovered");
            Ok(())
        }
        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn config_shared(&self) -> Arc<SystemConfig> {
            self.cfg.clone()
        }
        fn metrics(&self) -> Arc<Metrics> {
            self.metrics.clone()
        }
    }

    struct NullPeer;
    impl ClientPeer for NullPeer {
        fn client_id(&self) -> ClientId {
            ClientId(1)
        }
        fn deliver_callback(&self, _kind: CallbackKind) -> CallbackOutcome {
            CallbackOutcome::Done {
                retained: Vec::new(),
                page_copy: None,
            }
        }
        fn notify_page_flushed(&self, _page: PageId) {}
        fn report_state(&self) -> ClientStateReport {
            ClientStateReport {
                dpt: Vec::new(),
                cached_pages: Vec::new(),
                locks: Vec::new(),
            }
        }
        fn callback_list_for(
            &self,
            _page: PageId,
            _for_client: ClientId,
            _from_lsn: Lsn,
        ) -> Vec<(ObjectId, Psn)> {
            Vec::new()
        }
        fn ship_cached_page(&self, _page: PageId) -> Option<Arc<[u8]>> {
            None
        }
        fn recover_page(
            &self,
            _page: PageId,
            base: Vec<u8>,
            _install_psn: Psn,
            _callback_list: Vec<(ObjectId, Psn)>,
        ) -> RecoveredPageOutcome {
            RecoveredPageOutcome::Done(base)
        }
    }

    fn routed() -> (Arc<PartitionedServer>, Vec<Arc<RecordingServer>>) {
        let backends: Vec<Arc<RecordingServer>> = (0..3).map(|_| RecordingServer::new()).collect();
        let router = PartitionedServer::new(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn ServerApi>)
                .collect(),
        );
        (router, backends)
    }

    /// Assert that exactly the partitions in `want` (index → expected
    /// calls) saw traffic since the last drain.
    fn assert_calls(backends: &[Arc<RecordingServer>], want: &[(usize, &[&'static str])]) {
        for (i, b) in backends.iter().enumerate() {
            let got = b.take();
            let expect: &[&'static str] = want
                .iter()
                .find(|(k, _)| *k == i)
                .map(|(_, c)| *c)
                .unwrap_or(&[]);
            assert_eq!(got, expect, "partition {i}");
        }
    }

    #[test]
    fn page_addressed_requests_reach_only_the_owner() {
        let (router, backends) = routed();
        let c = ClientId(1);
        let t = TxnId::compose(c, 1);
        // Pages in residue classes 0, 1, 2 of three partitions.
        for k in 0..3u64 {
            let page = PageId(30 + k); // 30+k ≡ k (mod 3)
            let obj = ObjectId {
                page,
                slot: SlotId(0),
            };
            router
                .lock(c, t, LockTarget::Object(obj, ObjMode::S), None)
                .unwrap();
            router
                .callback_complete(c, CallbackKind::ReleasePage(page), Vec::new(), None)
                .unwrap();
            router.fetch_page(c, page).unwrap();
            router.force_page(c, page).unwrap();
            router.recovery_fetch(c, page, None).unwrap();
            router.recover_client_page(c, page).unwrap();
            assert_calls(
                &backends,
                &[(
                    k as usize,
                    &[
                        "lock",
                        "callback_complete",
                        "fetch_page",
                        "force_page",
                        "recovery_fetch",
                        "recover_client_page",
                    ],
                )],
            );
        }
    }

    #[test]
    fn shipped_frames_route_by_the_page_header() {
        let (router, backends) = routed();
        let c = ClientId(1);
        let page = Page::format(256, PageId(7), Psn(1)); // 7 % 3 == 1
        let bytes: Arc<[u8]> = Arc::from(page.to_wire());
        router.ship_page(c, bytes.clone(), false).unwrap();
        router.install_recovered(c, bytes.to_vec()).unwrap();
        assert_calls(&backends, &[(1, &["ship_page", "install_recovered"])]);
        // A frame too short to carry a header is rejected, not misrouted.
        assert!(router.ship_page(c, Arc::from(&b"xx"[..]), false).is_err());
        assert_calls(&backends, &[]);
    }

    /// A batch over pages of every residue makes one call per partition,
    /// each carrying its own pages in input order, and the fetched copies
    /// come back in the order they were asked for.
    #[test]
    fn a_mixed_residue_batch_makes_one_call_per_partition() {
        let (router, backends) = routed();
        let c = ClientId(1);
        // Residues 1, 0, 2, 1, 0 of three partitions; partition 2 once.
        let pages: Vec<PageId> = [7, 3, 5, 10, 9].into_iter().map(PageId).collect();
        let copies = router.fetch_pages(c, &pages).unwrap();
        let got: Vec<u64> = copies
            .iter()
            .map(|(b, _)| u64::from_le_bytes(b[..8].try_into().unwrap()))
            .collect();
        assert_eq!(got, vec![7, 3, 5, 10, 9]);
        router.force_pages(c, &pages).unwrap();
        let frames: Vec<Arc<[u8]>> = pages
            .iter()
            .map(|&p| Arc::from(Page::format(256, p, Psn(1)).to_wire()))
            .collect();
        router.ship_pages(c, frames, true).unwrap();
        let batch: &[&'static str] = &["fetch_pages", "force_pages", "ship_pages"];
        assert_calls(&backends, &[(0, batch), (1, batch), (2, batch)]);
        let want: [&[u64]; 3] = [&[3, 9], &[7, 10], &[5]];
        for (k, ids) in want.iter().enumerate() {
            let ids: Vec<PageId> = ids.iter().copied().map(PageId).collect();
            assert_eq!(
                *backends[k].batches.lock(),
                vec![ids.clone(), ids.clone(), ids],
                "partition {k}"
            );
        }
        // A batch that touches one partition reaches no other, and an
        // unreadable frame fails the ship before anything is sent.
        router.force_pages(c, &[PageId(4), PageId(1)]).unwrap();
        assert_calls(&backends, &[(1, &["force_pages"])]);
        let bad: Vec<Arc<[u8]>> = vec![
            Arc::from(Page::format(256, PageId(6), Psn(1)).to_wire()),
            Arc::from(&b"xx"[..]),
        ];
        assert!(router.ship_pages(c, bad, false).is_err());
        assert_calls(&backends, &[]);
    }

    #[test]
    fn lifecycle_and_commit_ship_fan_out_to_every_partition() {
        let (router, backends) = routed();
        let c = ClientId(1);
        let t = TxnId::compose(c, 1);
        router.register_client(Arc::new(NullPeer));
        router.cancel_wait(c, t);
        router.client_crashed(c);
        router.client_recovery_begin(c, Arc::new(NullPeer)).unwrap();
        router.client_recovery_end(c).unwrap();
        router.poll_recovery_needs(c);
        // No touched-page hint: the commit ship is conservative and
        // covers every partition.
        router
            .commit_ship_log(c, vec![1, 2, 3], Vec::new())
            .unwrap();
        let all: &[&'static str] = &[
            "register_client",
            "cancel_wait",
            "client_crashed",
            "client_recovery_begin",
            "client_recovery_end",
            "poll_recovery_needs",
            "commit_ship_log",
        ];
        assert_calls(&backends, &[(0, all), (1, all), (2, all)]);
    }

    /// The touched-page hint narrows the §4.1 commit ship to the owning
    /// partitions only: a partition-local transaction forces one log, a
    /// cross-partition one forces exactly the owners it touched.
    #[test]
    fn commit_ship_routes_by_the_touched_page_hint() {
        let (router, backends) = routed();
        let c = ClientId(1);
        // Pages 4 and 7 both live on partition 1 (mod 3) — one ship.
        router
            .commit_ship_log(c, vec![9], vec![PageId(4), PageId(7)])
            .unwrap();
        assert_calls(&backends, &[(1, &["commit_ship_log"])]);
        // Pages 2 and 6 straddle partitions 2 and 0 — both ship, 1 idle.
        router
            .commit_ship_log(c, vec![9], vec![PageId(2), PageId(6)])
            .unwrap();
        assert_calls(
            &backends,
            &[(0, &["commit_ship_log"]), (2, &["commit_ship_log"])],
        );
    }

    #[test]
    fn allocation_round_robins_across_partitions() {
        let (router, backends) = routed();
        let c = ClientId(1);
        let t = TxnId::compose(c, 1);
        for _ in 0..2 {
            for expect in 0..3usize {
                router.allocate_page(c, t).unwrap();
                assert_calls(&backends, &[(expect, &["allocate_page"])]);
            }
        }
    }

    #[test]
    fn shared_handles_resolve_at_partition_zero() {
        let (router, backends) = routed();
        let c = ClientId(1);
        router.fetch_client_log(c).unwrap();
        router.server_logging();
        assert_calls(&backends, &[(0, &["fetch_client_log", "server_logging"])]);
    }
}
