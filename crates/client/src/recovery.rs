//! Client-side restart recovery.
//!
//! Two distinct duties live here:
//!
//! * [`ClientCore::recover`] — recovery **from the client's own crash**
//!   (§3.3, and §3.5 when the server restarted too), one driver of five
//!   steps under every logging strategy: the *handshake* reinstalls the
//!   exclusive locks held before the crash; *analysis* scans the private
//!   log for the transaction table, the log-derived DPT and any spilled
//!   before-images; *redo* recovers each page from its own bucket of
//!   records — against a fetched copy, filtered by the server's DCT
//!   (Property 1) and PSN-conditional, or through the §3.4 replay when a
//!   server restart left the DCT unable to vouch for us; *undo* rolls
//!   the losers back with CLRs; *hardening* ships and forces the
//!   recovered pages so every lock can be released.
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
use crate::txn::TxnState;
use fgl_common::{FglError, IdMap, LoggingStrategyKind, Lsn, ObjectId, PageId, Psn, Result, TxnId};
use fgl_locks::mode::ObjMode;
use fgl_net::peer::{RecoverJob, RecoveredPageOutcome, RECOVER_BATCH_PAGES};
use fgl_obs::{emit, Event, LogOwner, RecoveryPhase};
use fgl_storage::merge::merge_pages;
use fgl_storage::page::Page;
use fgl_wal::records::LogPayload;
use fgl_wal::LogRecordEntry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-transaction spilled before-images recovered from the log
/// ([`UndoSpillRecord`](fgl_wal::UndoSpillRecord)s), in append order.
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
    /// Log records read by analysis, plus those redo examined (the
    /// records naming a page to redo at or above its RedoLSN).
    pub records_scanned: usize,
    /// Update/CLR records actually re-applied.
    pub records_applied: usize,
    pub elapsed: Duration,
    /// Analysis pass wall time.
    pub analysis: Duration,
    /// Redo pass wall time (local redo or §3.5 replay).
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
    /// The transaction logged redo-only: redo skips it while it is a
    /// loser, and its rollback runs from spilled before-images, not the
    /// log chain.
    redo_only: bool,
}

impl AttEntry {
    fn at(lsn: Lsn) -> Self {
        AttEntry {
            last_lsn: lsn,
            first_lsn: lsn,
            committed: false,
            ended: false,
            redo_only: false,
        }
    }
}

/// What the analysis pass learns from the private log. Keyed by ids this
/// client minted and logged itself, and looked up once per record, hence
/// [`IdMap`] (as are the [`page_records`](ClientCore::page_records)
/// buckets).
#[derive(Default)]
struct Analysis {
    att: IdMap<TxnId, AttEntry>,
    /// Log-derived DPT: per page, its RedoLSN — the checkpoint's, else
    /// its first record in the scanned window.
    dpt: IdMap<PageId, Lsn>,
    max_seq: u32,
    spills: SpillMap,
}

impl Analysis {
    /// Account one redoable record of `txn` on `page`.
    fn update(&mut self, txn: TxnId, page: PageId, lsn: Lsn) -> &mut AttEntry {
        self.max_seq = self.max_seq.max(txn.local_seq());
        self.dpt.entry(page).or_insert(lsn);
        let e = self.att.entry(txn).or_insert_with(|| AttEntry::at(lsn));
        e.last_lsn = lsn;
        e
    }

    /// The transactions the crash caught active, in id order.
    fn losers(&self) -> Vec<(TxnId, &AttEntry)> {
        let mut losers: Vec<_> = self
            .att
            .iter()
            .filter(|(_, e)| !e.ended)
            .map(|(t, e)| (*t, e))
            .collect();
        losers.sort_by_key(|(t, _)| *t);
        losers
    }
}

/// The redo half of a log record: the image `txn` left in `object` when
/// the page stood at `psn_before`.
struct RedoImage<'a> {
    txn: TxnId,
    object: ObjectId,
    psn_before: Psn,
    /// `None` means "object deleted".
    after: Option<&'a [u8]>,
}

impl<'a> RedoImage<'a> {
    /// `None` for a record that carries no redo work.
    fn of(payload: &'a LogPayload) -> Option<Self> {
        match payload {
            LogPayload::Update(u) => Some(RedoImage {
                txn: u.txn,
                object: u.object,
                psn_before: u.psn_before,
                after: u.after.as_deref(),
            }),
            LogPayload::Clr(c) => Some(RedoImage {
                txn: c.txn,
                object: c.object,
                psn_before: c.psn_before,
                after: c.after.as_deref(),
            }),
            LogPayload::RedoUpdate(u) => Some(RedoImage {
                txn: u.txn,
                object: u.object,
                psn_before: u.psn_before,
                after: u.after.as_deref(),
            }),
            _ => None,
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

    /// [`recover`](Self::recover) with explicit options. One procedure
    /// for every logging strategy and for both states the server can be
    /// in: what differs is read from the log (a redo-only loser is
    /// skipped by redo and undone from its spills) and from the handshake
    /// (after a server restart redo runs through the §3.4 replay).
    pub fn recover_with(
        self: &Arc<Self>,
        options: RecoveryOptions,
    ) -> Result<ClientRecoveryReport> {
        // Recovery appends to the WAL and bumps counters, so the client
        // joins the active set even if it never ran a transaction here.
        self.touch();
        let start = Instant::now();
        let mut report = ClientRecoveryReport::default();
        let (dct, dct_complete) = self.handshake()?;

        let phase = self.enter(RecoveryPhase::Analysis);
        let log = self.analyse(&mut report)?;
        report.analysis = phase.elapsed();

        let phase = self.enter(if dct_complete {
            RecoveryPhase::Redo
        } else {
            RecoveryPhase::Replay
        });
        self.redo(&log, &dct, dct_complete, options, &mut report)?;
        report.redo = phase.elapsed();

        let phase = self.enter(RecoveryPhase::Undo);
        report.losers = self.undo_losers(&log)?;
        report.undo = phase.elapsed();

        let phase = self.enter(RecoveryPhase::Harden);
        self.harden_and_release()?;
        report.harden = phase.elapsed();

        report.elapsed = start.elapsed();
        self.finish_recovery_report(&report);
        Ok(report)
    }

    /// Announce a restart phase and start its clock.
    fn enter(&self, phase: RecoveryPhase) -> Instant {
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase,
        });
        Instant::now()
    }

    /// Reconnect and receive the exclusive locks held before the crash
    /// plus the DCT view of our pages (the Property 1 filter and the
    /// install PSNs), and whether that view is complete.
    fn handshake(self: &Arc<Self>) -> Result<(HashMap<PageId, Option<Psn>>, bool)> {
        let peer = Arc::new(PeerHandle::new(self));
        let (locks, dct_entries, dct_complete) =
            self.server.client_recovery_begin(self.id(), peer)?;
        let mut st = self.st.lock();
        st.crashed = false;
        st.llm.reinstall_exclusive(&locks);
        Ok((dct_entries.into_iter().collect(), dct_complete))
    }

    /// One scan of the private log: the transaction table, the
    /// log-derived DPT and the spilled before-images. A strategy that can
    /// log redo-only (and so spill) scans from the low-water mark — the
    /// §3.6 reclamation floor never passes an active transaction's first
    /// record or a DPT redo point, so every spill a loser needs sits
    /// above it (after Sauer & Härder, arXiv 1409.3682); a physical log
    /// is seeded from its last complete checkpoint and scanned from
    /// there (§3.3).
    fn analyse(&self, report: &mut ClientRecoveryReport) -> Result<Analysis> {
        let st = self.st.lock();
        let mut log = Analysis::default();
        let scan = if self.config().logging_strategy != LoggingStrategyKind::ClientAries {
            st.wal.scan_from(Lsn::NIL)
        } else {
            if let Some(LogPayload::ClientCheckpoint { active_txns, dpt }) =
                st.wal.checkpoint_entry().map(|e| e.payload)
            {
                for (t, l) in active_txns {
                    log.att.insert(t, AttEntry::at(l));
                    log.max_seq = log.max_seq.max(t.local_seq());
                }
                log.dpt
                    .extend(dpt.into_iter().map(|e| (e.page, e.redo_lsn)));
            }
            st.wal.scan_from_checkpoint(Lsn::NIL)
        };
        for entry in scan {
            report.records_scanned += 1;
            let lsn = entry.lsn;
            match entry.payload {
                LogPayload::Begin { txn } => {
                    log.max_seq = log.max_seq.max(txn.local_seq());
                    log.att.insert(txn, AttEntry::at(lsn));
                }
                LogPayload::Update(u) => drop(log.update(u.txn, u.object.page, lsn)),
                LogPayload::Clr(c) => drop(log.update(c.txn, c.object.page, lsn)),
                LogPayload::RedoUpdate(u) => {
                    log.update(u.txn, u.object.page, lsn).redo_only = true;
                }
                LogPayload::UndoSpill(s) => {
                    log.dpt.entry(s.object.page).or_insert(lsn);
                    log.spills
                        .entry(s.txn)
                        .or_default()
                        .push((s.object, s.before));
                }
                LogPayload::Commit { txn, .. } => {
                    if let Some(e) = log.att.get_mut(&txn) {
                        e.committed = true;
                        e.ended = true;
                    }
                }
                LogPayload::Abort { txn, .. } => {
                    if let Some(e) = log.att.get_mut(&txn) {
                        e.ended = true;
                    }
                }
                _ => {}
            }
        }
        report.winners = log.att.values().filter(|e| e.committed).count();
        Ok(log)
    }

    /// Recover the pages of the log-derived DPT, each from its own bucket
    /// of records, and cache them dirty. With a complete DCT, Property 1
    /// lets redo skip pages that have no entry, and the rest are fetched
    /// and redone here (§3.3). After a server restart the rebuilt DCT
    /// cannot be trusted to cover us, so it filters nothing: for every
    /// page the server supplies the base copy, the PSN it can vouch for
    /// and the merged `CallBack_P` list, and the bucket replays through
    /// the §3.4 machinery (§3.5).
    ///
    /// A redo-only loser's records are not replayed at all: its shipped
    /// updates are undone from the spilled before-images afterwards, its
    /// unshipped ones died with the cache, and the PSN test tolerates the
    /// gaps because later records carry the higher pre-update PSNs the
    /// skipped ones produced.
    fn redo(
        &self,
        log: &Analysis,
        dct: &HashMap<PageId, Option<Psn>>,
        dct_complete: bool,
        options: RecoveryOptions,
        report: &mut ClientRecoveryReport,
    ) -> Result<()> {
        let skip: HashSet<TxnId> = log
            .losers()
            .into_iter()
            .filter(|(_, e)| e.redo_only)
            .map(|(t, _)| t)
            .collect();
        // A page a skipped loser spilled must be cached for its undo even
        // when redo has nothing to do there.
        let undo_pages: HashSet<PageId> = skip
            .iter()
            .flat_map(|t| log.spills.get(t).into_iter().flatten())
            .map(|(o, _)| o.page)
            .collect();
        let filtered = dct_complete && options.use_dct_filter;
        let to_redo = |page: &PageId| !filtered || dct.contains_key(page);
        let mut pages: Vec<(PageId, Lsn)> = log
            .dpt
            .iter()
            .map(|(p, l)| (*p, *l))
            .filter(|(p, _)| to_redo(p) || undo_pages.contains(p))
            .collect();
        pages.sort_unstable();
        let mut records = self.page_records(
            pages
                .iter()
                .filter(|(p, _)| to_redo(p))
                .map(|&(p, l)| (p, Some(l))),
        );
        report.pages_recovered = records.len();
        report.records_scanned += records.values().map(Vec::len).sum::<usize>();
        report.pages_fetched = pages.len();
        // A page's unit of work owns its bucket (empty where only undo
        // needs the page) and frees it as soon as the page is done.
        let units: Vec<(PageId, Lsn, Vec<LogRecordEntry>)> = pages
            .into_iter()
            .map(|(page, redo_lsn)| (page, redo_lsn, records.remove(&page).unwrap_or_default()))
            .collect();

        if dct_complete {
            // The pages arrive `RECOVER_BATCH_PAGES` to a fetch, so a frame
            // stays far below the transport's limit at any page size.
            let mut units = units.into_iter().peekable();
            while units.peek().is_some() {
                let batch: Vec<_> = units.by_ref().take(RECOVER_BATCH_PAGES).collect();
                let ids: Vec<PageId> = batch.iter().map(|(page, ..)| *page).collect();
                let fetched = self.server.fetch_pages(self.id(), &ids)?;
                if fetched.len() != ids.len() {
                    return Err(FglError::Protocol(format!(
                        "fetched {} of {} pages",
                        fetched.len(),
                        ids.len()
                    )));
                }
                for ((page, redo_lsn, bucket), (bytes, fetched_psn)) in
                    batch.into_iter().zip(fetched)
                {
                    let mut work = Page::from_bytes(bytes)?;
                    // Install the PSN the DCT remembers for us (§3.3).
                    if let Some(psn) = dct.get(&page).copied().flatten().or(fetched_psn) {
                        work.set_psn(psn);
                    }
                    report.records_applied += self.redo_records(&mut work, &bucket, &skip)?;
                    self.install_redone(work, redo_lsn)?;
                }
            }
        } else {
            // Pages replay in parallel: a replay blocked on another
            // crashed client's progress (recovery_fetch) must not stall
            // this client's remaining pages — they are what *other*
            // recoveries wait on.
            let replay = |(page, redo_lsn, bucket): (_, _, Vec<_>)| -> Result<(Page, Lsn)> {
                let (base, install_psn, list) = self.server.recover_client_page(self.id(), page)?;
                let bytes = self.replay_records(page, base, install_psn, list, &bucket, &skip)?;
                Ok((Page::from_bytes(bytes)?, redo_lsn))
            };
            for replayed in fgl_sched::fan_out(units, replay) {
                let (page, redo_lsn) = replayed?;
                self.install_redone(page, redo_lsn)?;
            }
        }
        Ok(())
    }

    /// §3.3 redo of one fetched page from its bucket, in log order: apply
    /// only updates to exclusively locked objects whose PSN clears the
    /// page PSN. Returns the number applied.
    fn redo_records(
        &self,
        work: &mut Page,
        records: &[LogRecordEntry],
        skip_txns: &HashSet<TxnId>,
    ) -> Result<usize> {
        let st = self.st.lock();
        let mut applied = 0;
        for entry in records {
            let Some(r) = RedoImage::of(&entry.payload) else {
                continue;
            };
            if skip_txns.contains(&r.txn) || st.llm.cached_mode(r.object) != Some(ObjMode::X) {
                continue;
            }
            if r.psn_before >= work.psn() {
                work.install_object(r.object.slot, r.after, r.psn_before.next())?;
                work.set_psn(r.psn_before.next());
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Cache one recovered page, dirty, under a DPT entry at its RedoLSN.
    fn install_redone(&self, page: Page, redo_lsn: Lsn) -> Result<()> {
        let mut st = self.st.lock();
        st.dpt.entry(page.id()).or_insert(DptState {
            redo_lsn,
            remembered: None,
            updated_since_ship: true,
            last_lsn: Lsn::NIL,
        });
        // Evictions cannot be shipped mid-recovery without perturbing the
        // DCT; the cache is sized for recovery.
        if st.cache.install_exact(page, true).is_some() {
            return Err(FglError::Protocol(
                "client cache too small for recovery working set".into(),
            ));
        }
        Ok(())
    }

    /// Roll every loser back (their pages are cached by now) and end it
    /// with an abort record: a redo-only loser from its spilled
    /// before-images, any other by the ARIES undo pass over its log chain
    /// (§3.3). Returns the number of losers.
    fn undo_losers(&self, log: &Analysis) -> Result<usize> {
        let losers = log.losers();
        {
            let mut st = self.st.lock();
            st.next_seq = st.next_seq.max(log.max_seq);
            for (txn, e) in &losers {
                let mut t = TxnState::new(*txn);
                t.last_lsn = e.last_lsn;
                t.first_lsn = e.first_lsn;
                st.txns.insert(*txn, t);
            }
        }
        for &(txn, e) in &losers {
            if e.redo_only {
                self.undo_from_spills(txn, log.spills.get(&txn).map_or(&[], Vec::as_slice))?;
            } else {
                self.rollback_chain_public(txn)?;
            }
            let mut st = self.st.lock();
            let prev_lsn = st.txns.get(&txn).map_or(Lsn::NIL, |t| t.last_lsn);
            self.append_critical(&mut st, &LogPayload::Abort { txn, prev_lsn })?;
            st.txns.remove(&txn);
        }
        Ok(losers.len())
    }

    /// Undo one redo-only loser from its spilled before-images: every
    /// shipped first-touch value is reinstalled under a real CLR (the
    /// restored image must be redoable and its PSN bump observable by
    /// merges); updates that never shipped need no undo — they died with
    /// the cache.
    fn undo_from_spills(&self, txn: TxnId, spills: &[(ObjectId, Option<Vec<u8>>)]) -> Result<()> {
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
        Ok(())
    }

    /// Ship and force every recovered page — one ship and one force per
    /// `RECOVER_BATCH_PAGES` pages — checkpoint, and tell the server we
    /// are done: pre-crash transactions are all resolved and the server
    /// releases our locks — mirror that locally.
    fn harden_and_release(&self) -> Result<()> {
        let dirty: Vec<PageId> = self.st.lock().cache.dirty_ids();
        for batch in dirty.chunks(RECOVER_BATCH_PAGES) {
            self.ship_pages(batch, true)?;
            self.server.force_pages(self.id(), batch)?;
        }
        self.checkpoint()?;
        self.server.client_recovery_end(self.id())?;
        {
            let mut st = self.st.lock();
            st.llm.clear();
            st.txns.clear();
        }
        self.cv.notify_all();
        Ok(())
    }

    /// Emit the terminal recovery event and fold the phase timings into
    /// the shared metrics registry — both the flat counters and the
    /// per-strategy phase histograms (`recovery_phase_us_<strategy>_*`).
    fn finish_recovery_report(&self, report: &ClientRecoveryReport) {
        emit(Event::RecoveryPhase {
            owner: LogOwner::Client(self.id()),
            phase: RecoveryPhase::Done,
        });
        let strategy = self.config().logging_strategy.name();
        for (phase, took) in [
            ("analysis", report.analysis),
            ("redo", report.redo),
            ("undo", report.undo),
            ("harden", report.harden),
        ] {
            let micros = took.as_micros() as u64;
            self.metrics
                .observe_named(&format!("recovery_phase_us_{strategy}_{phase}"), micros);
            self.metrics
                .add(&format!("client_recovery_{phase}_us"), micros);
        }
        self.metrics.add("client_recoveries", 1);
        self.metrics.add(
            "client_recovery_records_scanned",
            report.records_scanned as u64,
        );
        self.metrics
            .add("client_recovery_pages", report.pages_recovered as u64);
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
                let bucket = records.get(&j.page).map(Vec::as_slice).unwrap_or_default();
                match self.replay_records(
                    j.page,
                    j.base.to_vec(),
                    j.install_psn,
                    j.callback_list,
                    bucket,
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
    ) -> IdMap<PageId, Vec<LogRecordEntry>> {
        let st = self.st.lock();
        let ckpt = st.wal.last_checkpoint();
        let mut buckets: IdMap<PageId, (Lsn, Vec<LogRecordEntry>)> = pages
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
            return IdMap::default();
        };
        for mut entry in st.wal.scan_from(start) {
            if let Some((floor, recs)) = entry.payload.page().and_then(|p| buckets.get_mut(&p)) {
                if entry.lsn >= *floor {
                    // Neither redo nor replay reads a before-image: let
                    // it go while the scan is still on it, so the
                    // buckets hold, and later free, half as much.
                    if let LogPayload::Update(u) = &mut entry.payload {
                        u.before = None;
                    }
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
    /// [`page_records`](Self::page_records) — against `base` (§3.4).
    /// Records of transactions in `skip_txns` (redo-only losers) are not
    /// replayed: their updates are either absent from the base copy or
    /// undone afterwards from spilled before-images.
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
            if let LogPayload::Callback(cb) = &entry.payload {
                // §3.4 step 3: a callback for an object in the list is
                // skipped. A foreign one needs the state of the
                // responding client up to the recorded PSN: ship our
                // partial progress first (breaks mutual-wait cycles),
                // then fetch the merged copy.
                if !thresholds.contains_key(&cb.object) {
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
            } else if let Some(r) = RedoImage::of(&entry.payload) {
                // Apply only when the record's PSN is >= the object's
                // `CallBack_P` threshold: older updates were superseded
                // by the other client's state already in the base copy.
                let superseded = thresholds
                    .get(&r.object)
                    .is_some_and(|thresh| r.psn_before < *thresh);
                if !superseded && !skip_txns.contains(&r.txn) {
                    let psn = r.psn_before.next();
                    work.install_object(r.object.slot, r.after, psn)?;
                    if psn > work.psn() {
                        work.set_psn(psn);
                    }
                }
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
}
