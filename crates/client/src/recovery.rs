//! Client-side restart recovery.
//!
//! Two distinct duties live here:
//!
//! * [`ClientCore::recover`] — recovery **from the client's own crash**
//!   (§3.3): reinstall exclusive locks, ARIES analysis over the private
//!   log from the last complete checkpoint, a redo pass *filtered by the
//!   server's DCT* (Property 1 — only pages with a DCT entry need work)
//!   with PSN-conditional application, an undo pass rolling back the
//!   loser transactions with CLRs, and final hardening (ship + force the
//!   recovered pages so every lock can be released).
//!
//! * `ClientCore::recover_pages_for_server` — the client's part of
//!   **server restart recovery** (§3.4): scan the private log once for
//!   the pages the server names, then replay each page's records against
//!   the base copy the server supplies, applying records for called-back
//!   objects only when their PSN clears the merged `CallBack_P`
//!   threshold, fetching partially recovered state from other recovering
//!   clients when a foreign callback record interposes, and feeding
//!   partial results back so parallel recoveries can make progress.

use crate::peer::PeerHandle;
use crate::runtime::{ClientCore, DptState};
use crate::txn::{TxnState, TxnStatus};
use fgl_common::{FglError, Lsn, ObjectId, PageId, Psn, Result, TxnId};
use fgl_net::peer::{RecoverJob, RecoveredPageOutcome};
use fgl_obs::{emit, Event, LogOwner, RecoveryPhase};
use fgl_storage::merge::merge_pages;
use fgl_storage::page::Page;
use fgl_wal::envelope::StrategyRecord;
use fgl_wal::records::LogPayload;
use fgl_wal::LogRecordEntry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-transaction spilled before-images recovered from the log
/// ([`UndoSpillRecord`](fgl_wal::envelope::UndoSpillRecord)s), in append
/// order.
type SpillMap = HashMap<TxnId, Vec<(ObjectId, Option<Vec<u8>>)>>;

/// Outcome of a client-crash restart (§3.3); experiment E4 reports these.
#[derive(Clone, Debug, Default)]
pub struct ClientRecoveryReport {
    /// Transactions found committed (their effects were redone).
    pub winners: usize,
    /// Active transactions rolled back.
    pub losers: usize,
    /// Pages touched by the redo pass.
    pub pages_recovered: usize,
    /// Pages fetched from the server during recovery.
    pub pages_fetched: usize,
    /// Log records scanned (analysis + redo).
    pub records_scanned: usize,
    /// Update/CLR records actually re-applied.
    pub records_applied: usize,
    pub elapsed: Duration,
    /// ARIES analysis pass wall time.
    pub analysis: Duration,
    /// DCT-filtered redo pass wall time.
    pub redo: Duration,
    /// Loser-rollback pass wall time.
    pub undo: Duration,
    /// Ship + force + checkpoint (hardening) wall time.
    pub harden: Duration,
}

#[derive(Clone, Debug)]
struct AttEntry {
    last_lsn: Lsn,
    first_lsn: Lsn,
    committed: bool,
    ended: bool,
    /// The transaction logged redo-only (its loser rollback runs from
    /// spilled before-images, not the log chain).
    ext: bool,
}

impl AttEntry {
    fn at(lsn: Lsn) -> Self {
        AttEntry {
            last_lsn: lsn,
            first_lsn: lsn,
            committed: false,
            ended: false,
            ext: false,
        }
    }
}

/// Knobs for [`ClientCore::recover`] — the ablation surface of E4.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// Apply Property 1: skip pages without a DCT entry (§3.3). Turning
    /// this off redoes every page in the log-derived DPT — correct but
    /// wasteful; E4 measures the difference.
    pub use_dct_filter: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            use_dct_filter: true,
        }
    }
}

impl ClientCore {
    /// Restart recovery after this client's crash (§3.3). The paper notes
    /// restart may run anywhere with access to the private log; here it
    /// runs in the restarted client process.
    pub fn recover(self: &Arc<Self>) -> Result<ClientRecoveryReport> {
        self.recover_with(RecoveryOptions::default())
    }

    /// [`recover`](Self::recover) with explicit options. Dispatches to
    /// the active `LoggingStrategy`'s recovery
    /// procedure (3-pass ARIES for the physical strategies, single-pass
    /// for the redo-only ones).
    pub fn recover_with(
        self: &Arc<Self>,
        options: RecoveryOptions,
    ) -> Result<ClientRecoveryReport> {
        // Recovery appends to the WAL and bumps counters, so the client
        // joins the active set even if it never ran a transaction here.
        self.touch();
        self.strategy.recover(self, options)
    }

    /// The paper's 3-pass client restart (§3.3): analysis from the last
    /// complete checkpoint, DCT-filtered redo, chain-walk undo.
    pub(crate) fn recover_aries(
        self: &Arc<Self>,
        options: RecoveryOptions,
    ) -> Result<ClientRecoveryReport> {
        let start = Instant::now();
        let mut report = ClientRecoveryReport::default();

        // Reconnect and receive the exclusive locks held before the crash
        // plus the DCT view of our pages (Property 1 filter + install
        // PSNs).
        let peer = Arc::new(PeerHandle::new(self));
        let (locks, dct_entries, dct_complete) =
            self.server.client_recovery_begin(self.id(), peer)?;
        let dct: HashMap<PageId, Option<Psn>> = dct_entries.into_iter().collect();
        {
            let mut st = self.st.lock();
            st.crashed = false;
            st.llm.reinstall_exclusive(&locks);
        }

        // ---- analysis pass ---------------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Analysis,
        });
        let analysis_start = Instant::now();
        let (att, dpt, max_seq, scanned) = {
            let st = self.st.lock();
            let mut att: HashMap<TxnId, AttEntry> = HashMap::new();
            let mut dpt: HashMap<PageId, Lsn> = HashMap::new();
            let mut max_seq = 0u32;
            let mut scanned = 0usize;
            // Seed from the last complete checkpoint, then scan forward
            // from its anchor (the shared checkpoint-anchored iterator).
            if let Some(entry) = st.wal.checkpoint_entry() {
                if let LogPayload::ClientCheckpoint {
                    active_txns,
                    dpt: ck_dpt,
                } = entry.payload
                {
                    for (t, l) in active_txns {
                        att.insert(t, AttEntry::at(l));
                        max_seq = max_seq.max(t.local_seq());
                    }
                    for e in ck_dpt {
                        dpt.insert(e.page, e.redo_lsn);
                    }
                }
            }
            for entry in st.wal.scan_from_checkpoint(Lsn::NIL) {
                scanned += 1;
                let lsn = entry.lsn;
                match &entry.payload {
                    LogPayload::Begin { txn } => {
                        max_seq = max_seq.max(txn.local_seq());
                        att.insert(*txn, AttEntry::at(lsn));
                    }
                    LogPayload::Update(u) => {
                        max_seq = max_seq.max(u.txn.local_seq());
                        let e = att.entry(u.txn).or_insert_with(|| AttEntry::at(lsn));
                        e.last_lsn = lsn;
                        dpt.entry(u.object.page).or_insert(lsn);
                    }
                    LogPayload::Clr(c) => {
                        max_seq = max_seq.max(c.txn.local_seq());
                        let e = att.entry(c.txn).or_insert_with(|| AttEntry::at(lsn));
                        e.last_lsn = lsn;
                        dpt.entry(c.object.page).or_insert(lsn);
                    }
                    LogPayload::Commit { txn, .. } => {
                        if let Some(e) = att.get_mut(txn) {
                            e.committed = true;
                            e.ended = true;
                        }
                    }
                    LogPayload::Abort { txn, .. } => {
                        if let Some(e) = att.get_mut(txn) {
                            e.ended = true;
                        }
                    }
                    _ => {}
                }
            }
            (att, dpt, max_seq, scanned)
        };
        report.records_scanned += scanned;
        report.winners = att.values().filter(|e| e.committed).count();
        report.analysis = analysis_start.elapsed();

        // ---- redo pass -----------------------------------------------------
        // Plain client crash: Property 1 lets us skip pages without a DCT
        // entry. After a server restart (§3.5) the rebuilt DCT cannot be
        // trusted to cover us, so every page in the log-derived
        // ("augmented") DPT is recovered, via the §3.4 replay machinery.
        if !dct_complete {
            return self.recover_after_server_restart(
                start,
                report,
                att,
                dpt,
                max_seq,
                SpillMap::new(),
            );
        }
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Redo,
        });
        let redo_pass_start = Instant::now();
        let redo_dpt: HashMap<PageId, Lsn> = dpt
            .iter()
            .filter(|(p, _)| !options.use_dct_filter || dct.contains_key(*p))
            .map(|(p, l)| (*p, *l))
            .collect();
        report.pages_recovered = redo_dpt.len();
        let redo_start = redo_dpt.values().copied().min().unwrap_or(Lsn::NIL);
        if !redo_dpt.is_empty() {
            let records: Vec<_> = {
                let st = self.st.lock();
                st.wal
                    .scan_from(redo_start)
                    .filter(|e| matches!(e.payload, LogPayload::Update(_) | LogPayload::Clr(_)))
                    .collect()
            };
            let mut fetched: HashSet<PageId> = HashSet::new();
            for entry in records {
                report.records_scanned += 1;
                let (object, psn_before, after) = match &entry.payload {
                    LogPayload::Update(u) => (u.object, u.psn_before, u.after.clone()),
                    LogPayload::Clr(c) => (c.object, c.psn_before, c.after.clone()),
                    _ => continue,
                };
                let Some(&page_redo) = redo_dpt.get(&object.page) else {
                    continue;
                };
                if entry.lsn < page_redo {
                    continue;
                }
                // Fetch the page once, installing the DCT PSN (§3.3).
                if !fetched.contains(&object.page) {
                    let (bytes, dct_psn) = self.server.fetch_page(self.id(), object.page)?;
                    let mut page = Page::from_bytes(bytes)?;
                    if let Some(Some(psn)) = dct.get(&object.page) {
                        page.set_psn(*psn);
                    } else if let Some(psn) = dct_psn {
                        page.set_psn(psn);
                    }
                    let evicted = {
                        let mut st = self.st.lock();
                        st.dpt.entry(object.page).or_insert(DptState {
                            redo_lsn: page_redo,
                            remembered: None,
                            updated_since_ship: true,
                        });
                        st.cache.install_exact(page, true)
                    };
                    // Evictions cannot be shipped mid-recovery without
                    // perturbing the DCT; the cache is sized for recovery.
                    if evicted.is_some() {
                        return Err(FglError::Protocol(
                            "client cache too small for recovery working set".into(),
                        ));
                    }
                    fetched.insert(object.page);
                    report.pages_fetched += 1;
                }
                // Apply only updates to exclusively locked objects whose
                // PSN clears the page PSN (§3.3).
                let mut st = self.st.lock();
                let x_locked = st
                    .llm
                    .cached_mode(object)
                    .map(|m| m == fgl_locks::mode::ObjMode::X)
                    .unwrap_or(false);
                if !x_locked {
                    continue;
                }
                let p = st
                    .cache
                    .get_mut(object.page)
                    .ok_or(FglError::PageNotFound(object.page))?;
                if psn_before >= p.psn() {
                    p.install_object(object.slot, after.as_deref(), psn_before.next())?;
                    p.set_psn(psn_before.next());
                    report.records_applied += 1;
                }
            }
        }

        report.redo = redo_pass_start.elapsed();

        // ---- undo pass ---------------------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Undo,
        });
        let undo_start = Instant::now();
        {
            let mut st = self.st.lock();
            st.next_seq = st.next_seq.max(max_seq);
            for (txn, e) in &att {
                if !e.ended {
                    let mut t = TxnState::new(*txn);
                    t.last_lsn = e.last_lsn;
                    t.first_lsn = e.first_lsn;
                    st.txns.insert(*txn, t);
                }
            }
        }
        let losers: Vec<TxnId> = att
            .iter()
            .filter(|(_, e)| !e.ended)
            .map(|(t, _)| *t)
            .collect();
        report.losers = losers.len();
        for txn in losers {
            self.rollback_loser(txn)?;
        }
        report.undo = undo_start.elapsed();

        // ---- harden and release --------------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Harden,
        });
        let harden_start = Instant::now();
        let dirty: Vec<PageId> = {
            let st = self.st.lock();
            st.cache.dirty_ids()
        };
        for page in &dirty {
            self.ship_page_copy(*page, true)?;
            self.server.force_page(self.id(), *page)?;
        }
        self.checkpoint()?;
        self.server.client_recovery_end(self.id())?;
        {
            let mut st = self.st.lock();
            // Pre-crash transactions are all resolved; the server released
            // our locks — mirror that locally.
            st.llm.clear();
            st.txns.clear();
        }
        self.cv.notify_all();
        report.harden = harden_start.elapsed();
        report.elapsed = start.elapsed();
        self.finish_recovery_report(&report);
        Ok(report)
    }

    /// §3.5: recovery of a crashed client after the server itself
    /// restarted. Every page of the augmented (log-derived) DPT is
    /// replayed through the §3.4 machinery: the server supplies the base
    /// copy, the vouched-for PSN and the merged `CallBack_P` list; the
    /// replayed copy is shipped back and hardened.
    fn recover_after_server_restart(
        self: &Arc<Self>,
        start: Instant,
        mut report: ClientRecoveryReport,
        att: HashMap<TxnId, AttEntry>,
        dpt: HashMap<PageId, Lsn>,
        max_seq: u32,
        spills: SpillMap,
    ) -> Result<ClientRecoveryReport> {
        report.analysis = start.elapsed();
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Replay,
        });
        let redo_pass_start = Instant::now();
        report.pages_recovered = dpt.len();
        // Redo-only losers are skipped during replay; their shipped
        // updates are undone from the spilled before-images afterwards.
        let skip_txns: HashSet<TxnId> = att
            .iter()
            .filter(|(_, e)| !e.ended && e.ext)
            .map(|(t, _)| *t)
            .collect();
        let skip = &skip_txns;
        let records = self.page_records(dpt.iter().map(|(&p, &l)| (p, Some(l))));
        let records = &records;
        // Pages replay in parallel: a replay blocked on another crashed
        // client's progress (recovery_fetch) must not stall this client's
        // remaining pages — they are what *other* recoveries wait on.
        let recovered_pages: Vec<Result<(PageId, Lsn, Page)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = dpt
                .iter()
                .map(|(&page, &redo_lsn)| {
                    scope.spawn(move || -> Result<(PageId, Lsn, Page)> {
                        let (base, install_psn, list) =
                            self.server.recover_client_page(self.id(), page)?;
                        let bytes = self.replay_records(
                            page,
                            base,
                            install_psn,
                            list,
                            records.get(&page).map(Vec::as_slice).unwrap_or_default(),
                            skip,
                        )?;
                        Ok((page, redo_lsn, Page::from_bytes(bytes)?))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in recovered_pages {
            let (page, redo_lsn, recovered) = r?;
            report.pages_fetched += 1;
            let mut st = self.st.lock();
            st.dpt.entry(page).or_insert(crate::runtime::DptState {
                redo_lsn,
                remembered: None,
                updated_since_ship: true,
            });
            if st.cache.install_exact(recovered, true).is_some() {
                return Err(FglError::Protocol(
                    "client cache too small for recovery working set".into(),
                ));
            }
        }
        report.redo = redo_pass_start.elapsed();
        // Undo losers (their pages are now cached).
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Undo,
        });
        let undo_start = Instant::now();
        {
            let mut st = self.st.lock();
            st.next_seq = st.next_seq.max(max_seq);
            for (txn, e) in &att {
                if !e.ended {
                    let mut t = TxnState::new(*txn);
                    t.last_lsn = e.last_lsn;
                    t.first_lsn = e.first_lsn;
                    st.txns.insert(*txn, t);
                }
            }
        }
        let mut losers: Vec<TxnId> = att
            .iter()
            .filter(|(_, e)| !e.ended)
            .map(|(t, _)| *t)
            .collect();
        losers.sort();
        report.losers = losers.len();
        for txn in losers {
            if skip_txns.contains(&txn) {
                self.rollback_spilled(txn, spills.get(&txn).map_or(&[], |v| v.as_slice()))?;
            } else {
                self.rollback_loser(txn)?;
            }
        }
        report.undo = undo_start.elapsed();
        // Harden: ship and force every recovered page.
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Harden,
        });
        let harden_start = Instant::now();
        let dirty: Vec<PageId> = {
            let st = self.st.lock();
            st.cache.dirty_ids()
        };
        for page in &dirty {
            self.ship_page_copy(*page, true)?;
            self.server.force_page(self.id(), *page)?;
        }
        self.checkpoint()?;
        self.server.client_recovery_end(self.id())?;
        {
            let mut st = self.st.lock();
            st.llm.clear();
            st.txns.clear();
        }
        self.cv.notify_all();
        report.harden = harden_start.elapsed();
        report.elapsed = start.elapsed();
        self.finish_recovery_report(&report);
        Ok(report)
    }

    /// Emit the terminal recovery event and fold the phase timings into
    /// the shared metrics registry — both the legacy flat counters and
    /// per-strategy phase histograms (`recovery_phase_us_<strategy>_*`).
    fn finish_recovery_report(&self, report: &ClientRecoveryReport) {
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Done,
        });
        let strategy = self.strategy.kind().name();
        for (phase, took) in [
            ("analysis", report.analysis),
            ("redo", report.redo),
            ("undo", report.undo),
            ("harden", report.harden),
        ] {
            self.metrics.observe_named(
                &format!("recovery_phase_us_{strategy}_{phase}"),
                took.as_micros() as u64,
            );
        }
        self.metrics.add("client_recoveries", 1);
        self.metrics.add(
            "client_recovery_analysis_us",
            report.analysis.as_micros() as u64,
        );
        self.metrics
            .add("client_recovery_redo_us", report.redo.as_micros() as u64);
        self.metrics
            .add("client_recovery_undo_us", report.undo.as_micros() as u64);
        self.metrics.add(
            "client_recovery_harden_us",
            report.harden.as_micros() as u64,
        );
        self.metrics.add(
            "client_recovery_records_scanned",
            report.records_scanned as u64,
        );
        self.metrics
            .add("client_recovery_pages", report.pages_recovered as u64);
    }

    /// Undo one loser transaction during restart (§3.3: "transaction
    /// rollback is done by executing the ARIES undo pass").
    fn rollback_loser(&self, txn: TxnId) -> Result<()> {
        self.rollback_chain_public(txn)?;
        let mut st = self.st.lock();
        let prev = st.txns.get(&txn).map(|t| t.last_lsn).unwrap_or(Lsn::NIL);
        self.append_critical(
            &mut st,
            &LogPayload::Abort {
                txn,
                prev_lsn: prev,
            },
        )?;
        if let Some(t) = st.txns.get_mut(&txn) {
            t.status = TxnStatus::Aborted;
        }
        st.txns.remove(&txn);
        Ok(())
    }

    /// Single-pass restart for the redo-only strategies (after Sauer &
    /// Härder, arXiv 1409.3682): one scan from the low-water mark buffers
    /// the ATT, the redo candidates and the spilled before-images; loser
    /// records are skipped outright during redo (their shipped effects
    /// are undone from the spills, their unshipped ones died with the
    /// cache); no separate analysis scan or chain-walk undo runs.
    ///
    /// Scanning from the low-water mark rather than the last checkpoint
    /// is what makes one pass sufficient: the §3.6 reclamation floor
    /// never passes an active transaction's first record or a DPT redo
    /// point, so every record recovery can need — spills included — sits
    /// above it.
    pub(crate) fn recover_single_pass(
        self: &Arc<Self>,
        options: RecoveryOptions,
    ) -> Result<ClientRecoveryReport> {
        let start = Instant::now();
        let mut report = ClientRecoveryReport::default();
        let peer = Arc::new(PeerHandle::new(self));
        let (locks, dct_entries, dct_complete) =
            self.server.client_recovery_begin(self.id(), peer)?;
        let dct: HashMap<PageId, Option<Psn>> = dct_entries.into_iter().collect();
        {
            let mut st = self.st.lock();
            st.crashed = false;
            st.llm.reinstall_exclusive(&locks);
        }

        // ---- the single pass -----------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Analysis,
        });
        let analysis_start = Instant::now();
        type RedoCandidate = (Lsn, TxnId, ObjectId, Psn, Option<Vec<u8>>);
        let (att, dpt, max_seq, redo_records, spills) = {
            let st = self.st.lock();
            let mut att: HashMap<TxnId, AttEntry> = HashMap::new();
            let mut dpt: HashMap<PageId, Lsn> = HashMap::new();
            let mut redo: Vec<RedoCandidate> = Vec::new();
            let mut spills = SpillMap::new();
            let mut max_seq = 0u32;
            for entry in st.wal.scan_from(Lsn::NIL) {
                report.records_scanned += 1;
                let lsn = entry.lsn;
                match &entry.payload {
                    LogPayload::Begin { txn } => {
                        max_seq = max_seq.max(txn.local_seq());
                        att.insert(*txn, AttEntry::at(lsn));
                    }
                    LogPayload::Update(u) => {
                        max_seq = max_seq.max(u.txn.local_seq());
                        let e = att.entry(u.txn).or_insert_with(|| AttEntry::at(lsn));
                        e.last_lsn = lsn;
                        dpt.entry(u.object.page).or_insert(lsn);
                        redo.push((lsn, u.txn, u.object, u.psn_before, u.after.clone()));
                    }
                    LogPayload::Clr(c) => {
                        max_seq = max_seq.max(c.txn.local_seq());
                        let e = att.entry(c.txn).or_insert_with(|| AttEntry::at(lsn));
                        e.last_lsn = lsn;
                        dpt.entry(c.object.page).or_insert(lsn);
                        redo.push((lsn, c.txn, c.object, c.psn_before, c.after.clone()));
                    }
                    LogPayload::Ext(ext) => match StrategyRecord::decode(ext)? {
                        StrategyRecord::RedoUpdate(ru) => {
                            max_seq = max_seq.max(ru.txn.local_seq());
                            let e = att.entry(ru.txn).or_insert_with(|| AttEntry::at(lsn));
                            e.last_lsn = lsn;
                            e.ext = true;
                            dpt.entry(ru.object.page).or_insert(lsn);
                            redo.push((lsn, ru.txn, ru.object, ru.psn_before, ru.after));
                        }
                        StrategyRecord::UndoSpill(s) => {
                            dpt.entry(s.object.page).or_insert(lsn);
                            spills.entry(s.txn).or_default().push((s.object, s.before));
                        }
                    },
                    LogPayload::Commit { txn, .. } => {
                        if let Some(e) = att.get_mut(txn) {
                            e.committed = true;
                            e.ended = true;
                        }
                    }
                    LogPayload::Abort { txn, .. } => {
                        if let Some(e) = att.get_mut(txn) {
                            e.ended = true;
                        }
                    }
                    _ => {}
                }
            }
            (att, dpt, max_seq, redo, spills)
        };
        report.analysis = analysis_start.elapsed();
        report.winners = att.values().filter(|e| e.committed).count();

        // A server restart invalidates the DCT filter: replay every page
        // of the log-derived DPT through the §3.4 machinery instead.
        if !dct_complete {
            return self.recover_after_server_restart(start, report, att, dpt, max_seq, spills);
        }

        // ---- redo (losers skipped) -------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Redo,
        });
        let redo_pass_start = Instant::now();
        let losers: HashSet<TxnId> = att
            .iter()
            .filter(|(_, e)| !e.ended)
            .map(|(t, _)| *t)
            .collect();
        let redo_dpt: HashMap<PageId, Lsn> = dpt
            .iter()
            .filter(|(p, _)| !options.use_dct_filter || dct.contains_key(*p))
            .map(|(p, l)| (*p, *l))
            .collect();
        report.pages_recovered = redo_dpt.len();
        // Fetch every page redo or undo will touch, installing the DCT
        // PSN (§3.3). Spill pages are always covered: the spill was
        // forced before the page shipped, so the server has a DCT entry.
        let mut to_fetch: Vec<PageId> = redo_dpt.keys().copied().collect();
        for (txn, sp) in &spills {
            if losers.contains(txn) {
                for (o, _) in sp {
                    if !redo_dpt.contains_key(&o.page) {
                        to_fetch.push(o.page);
                    }
                }
            }
        }
        to_fetch.sort_by_key(|p| p.0);
        to_fetch.dedup();
        for page in to_fetch {
            let (bytes, dct_psn) = self.server.fetch_page(self.id(), page)?;
            let mut p = Page::from_bytes(bytes)?;
            if let Some(Some(psn)) = dct.get(&page) {
                p.set_psn(*psn);
            } else if let Some(psn) = dct_psn {
                p.set_psn(psn);
            }
            let redo_lsn = dpt.get(&page).copied().unwrap_or(Lsn::NIL);
            let evicted = {
                let mut st = self.st.lock();
                st.dpt.entry(page).or_insert(DptState {
                    redo_lsn,
                    remembered: None,
                    updated_since_ship: true,
                });
                st.cache.install_exact(p, true)
            };
            if evicted.is_some() {
                return Err(FglError::Protocol(
                    "client cache too small for recovery working set".into(),
                ));
            }
            report.pages_fetched += 1;
        }
        // Apply ended transactions' work PSN-conditionally to exclusively
        // locked objects; loser records are not replayed at all — the PSN
        // test tolerates the gaps because later records carry the higher
        // pre-update PSNs the skipped ones produced.
        for (lsn, txn, object, psn_before, after) in &redo_records {
            if losers.contains(txn) {
                continue;
            }
            let Some(&page_redo) = redo_dpt.get(&object.page) else {
                continue;
            };
            if *lsn < page_redo {
                continue;
            }
            let mut st = self.st.lock();
            let x_locked = st
                .llm
                .cached_mode(*object)
                .map(|m| m == fgl_locks::mode::ObjMode::X)
                .unwrap_or(false);
            if !x_locked {
                continue;
            }
            let p = st
                .cache
                .get_mut(object.page)
                .ok_or(FglError::PageNotFound(object.page))?;
            if *psn_before >= p.psn() {
                p.install_object(object.slot, after.as_deref(), psn_before.next())?;
                p.set_psn(psn_before.next());
                report.records_applied += 1;
            }
        }
        report.redo = redo_pass_start.elapsed();

        // ---- undo ------------------------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Undo,
        });
        let undo_start = Instant::now();
        {
            let mut st = self.st.lock();
            st.next_seq = st.next_seq.max(max_seq);
            for (txn, e) in &att {
                if !e.ended {
                    let mut t = TxnState::new(*txn);
                    t.last_lsn = e.last_lsn;
                    t.first_lsn = e.first_lsn;
                    st.txns.insert(*txn, t);
                }
            }
        }
        let mut loser_list: Vec<TxnId> = losers.iter().copied().collect();
        loser_list.sort();
        report.losers = loser_list.len();
        for txn in loser_list {
            if att.get(&txn).is_some_and(|e| e.ext) {
                self.rollback_spilled(txn, spills.get(&txn).map_or(&[], |v| v.as_slice()))?;
            } else {
                self.rollback_loser(txn)?;
            }
        }
        report.undo = undo_start.elapsed();

        // ---- harden and release ----------------------------------------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Harden,
        });
        let harden_start = Instant::now();
        let dirty: Vec<PageId> = {
            let st = self.st.lock();
            st.cache.dirty_ids()
        };
        for page in &dirty {
            self.ship_page_copy(*page, true)?;
            self.server.force_page(self.id(), *page)?;
        }
        self.checkpoint()?;
        self.server.client_recovery_end(self.id())?;
        {
            let mut st = self.st.lock();
            st.llm.clear();
            st.txns.clear();
        }
        self.cv.notify_all();
        report.harden = harden_start.elapsed();
        report.elapsed = start.elapsed();
        self.finish_recovery_report(&report);
        Ok(report)
    }

    /// Undo one redo-only loser from its spilled before-images: every
    /// shipped first-touch value is reinstalled under a real CLR (the
    /// restored image must be redoable and its PSN bump observable by
    /// merges); updates that never shipped need no undo — they died with
    /// the cache. Ends the transaction with an abort record.
    fn rollback_spilled(&self, txn: TxnId, spills: &[(ObjectId, Option<Vec<u8>>)]) -> Result<()> {
        for (object, before) in spills.iter().rev() {
            let mut st = self.st.lock();
            let psn_before = st
                .cache
                .peek(object.page)
                .ok_or(FglError::PageNotFound(object.page))?
                .psn();
            let prev = st.txns.get(&txn).map(|t| t.last_lsn).unwrap_or(Lsn::NIL);
            let clr = LogPayload::Clr(fgl_wal::records::ClrRecord {
                txn,
                prev_lsn: prev,
                undo_next: Lsn::NIL,
                object: *object,
                psn_before,
                after: before.clone(),
            });
            let clr_lsn = self.append_critical(&mut st, &clr)?;
            {
                let p = st
                    .cache
                    .get_mut(object.page)
                    .ok_or(FglError::PageNotFound(object.page))?;
                ClientCore::undo_install(p, object.slot, before.as_deref())?;
            }
            self.after_update(&mut st, txn, *object, clr_lsn);
        }
        let mut st = self.st.lock();
        let prev = st.txns.get(&txn).map(|t| t.last_lsn).unwrap_or(Lsn::NIL);
        self.append_critical(
            &mut st,
            &LogPayload::Abort {
                txn,
                prev_lsn: prev,
            },
        )?;
        if let Some(t) = st.txns.get_mut(&txn) {
            t.status = TxnStatus::Aborted;
        }
        st.txns.remove(&txn);
        Ok(())
    }

    /// §3.4, client side: replay the private log against the base copies
    /// the server supplied. The log is scanned once for the whole batch;
    /// each page then replays from its own bucket of records.
    pub(crate) fn recover_pages_for_server(
        &self,
        jobs: Vec<RecoverJob>,
    ) -> Vec<RecoveredPageOutcome> {
        let records = self.page_records(jobs.iter().map(|j| (j.page, None)));
        let no_skips = HashSet::new();
        jobs.into_iter()
            .map(|j| {
                let recs = records.get(&j.page).map(Vec::as_slice).unwrap_or_default();
                match self.replay_records(
                    j.page,
                    j.base.to_vec(),
                    j.install_psn,
                    j.callback_list,
                    recs,
                    &no_skips,
                ) {
                    Ok(bytes) => RecoveredPageOutcome::Done(bytes),
                    Err(e) => RecoveredPageOutcome::Failed(e.to_string()),
                }
            })
            .collect()
    }

    /// One scan of the private log, bucketed per page: every record
    /// naming one of `pages` at or above that page's scan floor. The
    /// floor is the given RedoLSN, else our DPT RedoLSN for the page
    /// (§3.4), else the last complete checkpoint. Replay is windowed, not
    /// PSN-guarded, so a record below its page's floor must be dropped
    /// here even though the scan (which starts at the lowest floor of
    /// the set) passes over it.
    fn page_records(
        &self,
        pages: impl Iterator<Item = (PageId, Option<Lsn>)>,
    ) -> HashMap<PageId, Vec<LogRecordEntry>> {
        let st = self.st.lock();
        let ckpt = st.wal.last_checkpoint();
        let mut buckets: HashMap<PageId, (Lsn, Vec<LogRecordEntry>)> = pages
            .map(|(page, redo_lsn)| {
                let mut from = redo_lsn
                    .unwrap_or_else(|| st.dpt.get(&page).map(|e| e.redo_lsn).unwrap_or(Lsn::NIL));
                if from.is_nil() {
                    from = ckpt;
                }
                (page, (from, Vec::new()))
            })
            .collect();
        let Some(start) = buckets.values().map(|(floor, _)| *floor).min() else {
            return HashMap::new();
        };
        for entry in st.wal.scan_from(start) {
            if let Some((floor, recs)) = entry.payload.page().and_then(|p| buckets.get_mut(&p)) {
                if entry.lsn >= *floor {
                    recs.push(entry);
                }
            }
        }
        buckets
            .into_iter()
            .map(|(page, (_, recs))| (page, recs))
            .collect()
    }

    /// Replay `records` — one page's bucket from
    /// [`page_records`](Self::page_records) — against `base`. Records of
    /// transactions in `skip_txns` (redo-only losers) are not replayed:
    /// their updates are either absent from the base copy or undone
    /// afterwards from spilled before-images.
    fn replay_records(
        &self,
        page: PageId,
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
        records: &[LogRecordEntry],
        skip_txns: &HashSet<TxnId>,
    ) -> Result<Vec<u8>> {
        let mut work = Page::from_bytes(base)?;
        work.set_psn(install_psn);
        let thresholds: HashMap<ObjectId, Psn> = callback_list.into_iter().collect();

        let mut processed = 0usize;
        for entry in records {
            match &entry.payload {
                LogPayload::Update(u) => {
                    self.replay_apply(
                        &mut work,
                        u.object,
                        u.psn_before,
                        u.after.as_deref(),
                        &thresholds,
                    )?;
                }
                LogPayload::Clr(c) => {
                    self.replay_apply(
                        &mut work,
                        c.object,
                        c.psn_before,
                        c.after.as_deref(),
                        &thresholds,
                    )?;
                }
                LogPayload::Ext(ext) => {
                    if let StrategyRecord::RedoUpdate(ru) = StrategyRecord::decode(ext)? {
                        if !skip_txns.contains(&ru.txn) {
                            self.replay_apply(
                                &mut work,
                                ru.object,
                                ru.psn_before,
                                ru.after.as_deref(),
                                &thresholds,
                            )?;
                        }
                    }
                    // UndoSpill records carry no redo work.
                }
                LogPayload::Callback(cb) => {
                    if thresholds.contains_key(&cb.object) {
                        // §3.4 step 3: in the list — skip.
                    } else {
                        // Foreign callback: we need the state of the
                        // responding client up to the recorded PSN. Ship
                        // our partial progress first (breaks mutual-wait
                        // cycles), then fetch the merged copy.
                        self.server
                            .install_recovered(self.id(), work.as_bytes().to_vec())?;
                        let (bytes, _) = self.server.recovery_fetch(
                            self.id(),
                            page,
                            Some((cb.from_client, cb.psn)),
                        )?;
                        let incoming = Page::from_bytes(bytes)?;
                        let (merged, _) = merge_pages(&work, &incoming)?;
                        work = merged;
                    }
                }
                _ => {}
            }
            processed += 1;
            if processed.is_multiple_of(4) {
                // Serve partial-state needs from parallel recoveries.
                for (npage, _psn) in self.server.poll_recovery_needs(self.id()) {
                    if npage == page {
                        self.server
                            .install_recovered(self.id(), work.as_bytes().to_vec())?;
                    }
                }
            }
        }
        Ok(work.into_bytes())
    }

    /// Apply one replayed record to the working copy, honouring the
    /// `CallBack_P` thresholds (§3.4).
    fn replay_apply(
        &self,
        work: &mut Page,
        object: ObjectId,
        psn_before: Psn,
        after: Option<&[u8]>,
        thresholds: &HashMap<ObjectId, Psn>,
    ) -> Result<()> {
        if let Some(&thresh) = thresholds.get(&object) {
            // Apply only when the record's PSN is >= the threshold: older
            // updates were superseded by the other client's state already
            // present in the base copy.
            if psn_before < thresh {
                return Ok(());
            }
        }
        work.install_object(object.slot, after, psn_before.next())?;
        if psn_before.next() > work.psn() {
            work.set_psn(psn_before.next());
        }
        Ok(())
    }
}
