//! Client-side restart recovery.
//!
//! Two distinct duties live here:
//!
//! * [`ClientCore::recover`] — recovery **from the client's own crash**
//!   (§3.3, and §3.5 when the server restarted too), one driver of five
//!   steps under every logging strategy: the *handshake* reinstalls the
//!   exclusive locks held before the crash; *analysis* is one forward scan
//!   of the private log that fills the transaction table, the log-derived
//!   DPT and the spilled before-images, and files into each page's bucket
//!   only the records redo can apply (after Sauer & Härder's single-pass
//!   restart, arXiv 1409.3682); *redo* recovers each page from its bucket
//!   — against a fetched copy, filtered by the server's DCT (Property 1)
//!   and PSN-conditional, or through the §3.4 replay when a server restart
//!   left the DCT unable to vouch for us — in windows no larger than the
//!   cache, each shipped and forced before the next; *undo* rolls the
//!   losers back with CLRs; *hardening* ships and forces what is left so
//!   every lock can be released.
//!
//! * `ClientCore::recover_pages_for_server` — the client's part of
//!   **server restart recovery** (§3.4): scan the private log once for
//!   the pages the server names (the same bucketing scan), then replay
//!   each page's records against the base copy the server supplies,
//!   applying records for called-back objects only when their PSN clears
//!   the merged `CallBack_P` threshold, fetching partially recovered
//!   state from other recovering clients when a foreign callback record
//!   interposes, and feeding partial results back so parallel recoveries
//!   can make progress.

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
use fgl_wal::{LogManager, LogRecordEntry};
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
    /// Pages of the log-derived DPT the redo pass considered (Property 1
    /// leaves out the rest).
    pub pages_recovered: usize,
    /// Pages fetched from the server during redo: those with records to
    /// apply or a loser to undo.
    pub pages_fetched: usize,
    /// Log records the one restart scan read.
    pub records_scanned: usize,
    /// Update/CLR records actually re-applied.
    pub records_applied: usize,
    pub elapsed: Duration,
    /// Analysis pass wall time.
    pub analysis: Duration,
    /// Redo pass wall time (local redo or §3.5 replay), less the hardening
    /// of its windows.
    pub redo: Duration,
    /// Loser-rollback pass wall time.
    pub undo: Duration,
    /// Ship + force (every window's) + checkpoint wall time.
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
    /// Pages its records in the scanned log name, until it ends: redo
    /// fetches a loser's pages for its undo even when they hold nothing
    /// to redo.
    pages: Vec<PageId>,
}

impl AttEntry {
    fn at(lsn: Lsn) -> Self {
        AttEntry {
            last_lsn: lsn,
            first_lsn: lsn,
            committed: false,
            ended: false,
            redo_only: false,
            pages: Vec::new(),
        }
    }

    fn touch(&mut self, page: PageId) {
        if self.pages.last() != Some(&page) {
            self.pages.push(page);
        }
    }

    /// The transaction's outcome is in the log: it needs no undo.
    fn end(&mut self, committed: bool) {
        self.committed = committed;
        self.ended = true;
        self.pages = Vec::new();
    }
}

/// What the one restart scan learns from the private log. Keyed by ids
/// this client minted and logged itself, and looked up once per record,
/// hence [`IdMap`].
#[derive(Default)]
struct Analysis {
    att: IdMap<TxnId, AttEntry>,
    /// Log-derived DPT: per page, its RedoLSN — the checkpoint's, else
    /// its first record in the scanned window.
    dpt: IdMap<PageId, Lsn>,
    max_seq: u32,
    spills: SpillMap,
    /// Per page, in log order, the records at or above its RedoLSN that
    /// redo (or the §3.5 replay) will read.
    buckets: IdMap<PageId, Vec<LogRecordEntry>>,
}

impl Analysis {
    /// Account one redoable record of `txn` on `page`. A record below the
    /// checkpoint (`current` false) only adds to the pages of a
    /// transaction the checkpoint found active: the checkpoint already
    /// holds the rest of what it would say.
    fn update(
        &mut self,
        txn: TxnId,
        page: PageId,
        lsn: Lsn,
        current: bool,
    ) -> Option<&mut AttEntry> {
        let e = if current {
            self.max_seq = self.max_seq.max(txn.local_seq());
            self.dpt.entry(page).or_insert(lsn);
            let e = self.att.entry(txn).or_insert_with(|| AttEntry::at(lsn));
            e.last_lsn = lsn;
            e
        } else {
            self.att.get_mut(&txn)?
        };
        e.touch(page);
        Some(e)
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
        let mut log = self.analyse(&dct, dct_complete, options, &mut report);
        report.analysis = phase.elapsed();

        let phase = self.enter(if dct_complete {
            RecoveryPhase::Redo
        } else {
            RecoveryPhase::Replay
        });
        let plan = plan_redo(&mut log, &dct, dct_complete, options, &mut report);
        self.redo(plan.units, &plan.skip, &dct, dct_complete, &mut report)?;
        report.redo = phase.elapsed().saturating_sub(report.harden);

        let phase = self.enter(RecoveryPhase::Undo);
        report.losers = self.undo_losers(&log)?;
        report.undo = phase.elapsed();

        let phase = self.enter(RecoveryPhase::Harden);
        self.harden_and_release(plan.force_only)?;
        report.harden += phase.elapsed();

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
    fn handshake(self: &Arc<Self>) -> Result<(DctView, bool)> {
        let peer = Arc::new(PeerHandle::new(self));
        let (locks, dct_entries, dct_complete) =
            self.server.client_recovery_begin(self.id(), peer)?;
        let mut st = self.st.lock();
        st.crashed = false;
        st.llm.reinstall_exclusive(&locks);
        Ok((dct_entries.into_iter().collect(), dct_complete))
    }

    /// The one forward scan of restart. A strategy that can log redo-only
    /// (and so spill) scans from the low-water mark — the §3.6
    /// reclamation floor never passes an active transaction's first
    /// record or a DPT redo point, so every spill a loser needs sits above
    /// it; a physical log is seeded from its last complete checkpoint and
    /// scanned from the lower of the checkpoint and the lowest RedoLSN in
    /// its DPT (§3.3). Records at or above the checkpoint fill the
    /// transaction table, the DPT and the spills; each record at or above
    /// its page's RedoLSN is offered to that page's bucket.
    ///
    /// With a complete DCT a bucket keeps only what redo can apply. The
    /// scan drops a record on a page Property 1 leaves out, on an object
    /// not held X, or below the PSN the DCT remembers for the page — redo
    /// starts the page at that PSN and only moves it up, so it would skip
    /// the record too. After a server restart the §3.5 replay reads every
    /// record of a page, callbacks included.
    fn analyse(
        &self,
        dct: &DctView,
        dct_complete: bool,
        options: RecoveryOptions,
        report: &mut ClientRecoveryReport,
    ) -> Analysis {
        let st = self.st.lock();
        let mut log = Analysis::default();
        let (mut ckpt, mut from) = (Lsn::NIL, Lsn::NIL);
        if self.config().logging_strategy == LoggingStrategyKind::ClientAries {
            if let Some(LogRecordEntry {
                lsn,
                payload: LogPayload::ClientCheckpoint { active_txns, dpt },
                ..
            }) = st.wal.checkpoint_entry()
            {
                for (t, l) in active_txns {
                    log.att.insert(t, AttEntry::at(l));
                    log.max_seq = log.max_seq.max(t.local_seq());
                }
                ckpt = lsn;
                from = dpt.iter().map(|e| e.redo_lsn).fold(ckpt, Lsn::min);
                log.dpt
                    .extend(dpt.into_iter().map(|e| (e.page, e.redo_lsn)));
            }
        }
        let (buckets, scanned) = bucket_scan(&st.wal, from, |entry| {
            let lsn = entry.lsn;
            let current = lsn >= ckpt;
            match &mut entry.payload {
                LogPayload::Begin { txn } if current => {
                    log.max_seq = log.max_seq.max(txn.local_seq());
                    log.att.insert(*txn, AttEntry::at(lsn));
                }
                LogPayload::Update(u) => drop(log.update(u.txn, u.object.page, lsn, current)),
                LogPayload::Clr(c) => drop(log.update(c.txn, c.object.page, lsn, current)),
                LogPayload::RedoUpdate(u) => {
                    if let Some(e) = log.update(u.txn, u.object.page, lsn, current) {
                        e.redo_only = true;
                    }
                }
                LogPayload::UndoSpill(s) if current => {
                    log.dpt.entry(s.object.page).or_insert(lsn);
                    log.spills
                        .entry(s.txn)
                        .or_default()
                        .push((s.object, s.before.take()));
                }
                LogPayload::Commit { txn, .. } if current => {
                    if let Some(e) = log.att.get_mut(txn) {
                        e.end(true);
                    }
                }
                LogPayload::Abort { txn, .. } if current => {
                    if let Some(e) = log.att.get_mut(txn) {
                        e.end(false);
                    }
                }
                _ => {}
            }
            let page = entry.payload.page()?;
            if lsn < *log.dpt.get(&page)? {
                return None;
            }
            if !dct_complete {
                return Some(page);
            }
            let r = RedoImage::of(&entry.payload)?;
            let remembered = dct.get(&page);
            let redoable = (remembered.is_some() || !options.use_dct_filter)
                && st.llm.cached_mode(r.object) == Some(ObjMode::X)
                && remembered
                    .copied()
                    .flatten()
                    .is_none_or(|psn| r.psn_before >= psn);
            redoable.then_some(page)
        });
        log.buckets = buckets;
        report.records_scanned = scanned;
        report.winners = log.att.values().filter(|e| e.committed).count();
        log
    }

    /// Recover the planned pages, each from its own bucket, in windows of
    /// at most the cache's worth of pages (and `RECOVER_BATCH_PAGES`, so a
    /// frame stays far below the transport's limit at any page size). A
    /// window is fetched in one request and redone; every window but the
    /// last is then shipped and forced, leaving its pages clean for the
    /// next window to replace. The last window's pages stay dirty in the
    /// cache for undo and harden with its work. Exclusive locks stay held
    /// throughout.
    ///
    /// With a complete DCT a page is redone against the fetched copy from
    /// the PSN the DCT remembers for us (§3.3). After a server restart the
    /// rebuilt DCT cannot be trusted to cover us: for every page the
    /// server supplies the base copy, the PSN it can vouch for and the
    /// merged `CallBack_P` list, and the bucket replays through the §3.4
    /// machinery (§3.5).
    ///
    /// A redo-only loser's records are not replayed at all: its shipped
    /// updates are undone from the spilled before-images afterwards, its
    /// unshipped ones died with the cache, and the PSN test tolerates the
    /// gaps because later records carry the higher pre-update PSNs the
    /// skipped ones produced.
    fn redo(
        &self,
        units: Vec<RedoUnit>,
        skip: &HashSet<TxnId>,
        dct: &DctView,
        dct_complete: bool,
        report: &mut ClientRecoveryReport,
    ) -> Result<()> {
        let window = self.config().client_cache_pages.min(RECOVER_BATCH_PAGES);
        let windows = units.len().div_ceil(window);
        let mut units = units.into_iter();
        for w in 1..=windows {
            let batch: Vec<RedoUnit> = units.by_ref().take(window).collect();
            let ids: Vec<PageId> = batch.iter().map(|(page, ..)| *page).collect();
            if dct_complete {
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
                    let mut work = Page::from_wire(&bytes, self.config().page_size)?;
                    // Install the PSN the DCT remembers for us (§3.3).
                    if let Some(psn) = dct.get(&page).copied().flatten().or(fetched_psn) {
                        work.set_psn(psn);
                    }
                    report.records_applied += redo_records(&mut work, &bucket, skip)?;
                    self.install_redone(work, redo_lsn)?;
                }
            } else {
                // Pages replay in parallel: a replay blocked on another
                // crashed client's progress (recovery_fetch) must not stall
                // this client's remaining pages — they are what *other*
                // recoveries wait on.
                let replay = |(page, redo_lsn, bucket): RedoUnit| -> Result<(Page, Lsn)> {
                    let (base, install_psn, list) =
                        self.server.recover_client_page(self.id(), page)?;
                    let work =
                        self.replay_records(page, &base, install_psn, list, &bucket, skip)?;
                    Ok((work, redo_lsn))
                };
                for replayed in fgl_sched::fan_out(batch, replay) {
                    let (page, redo_lsn) = replayed?;
                    self.install_redone(page, redo_lsn)?;
                }
            }
            if w < windows {
                let started = Instant::now();
                self.harden_pages(&ids)?;
                report.harden += started.elapsed();
            }
        }
        Ok(())
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
        // A window fits the cache and the windows before it left their
        // pages clean, so nothing dirty can fall out here; shipping one
        // mid-window would perturb the DCT the window was planned from.
        if st.cache.install_exact(page, true).is_some() {
            return Err(FglError::Protocol(
                "a recovery window evicted a dirty page".into(),
            ));
        }
        Ok(())
    }

    /// Roll every loser back and end it with an abort record: a redo-only
    /// loser from its spilled before-images, any other by the ARIES undo
    /// pass over its log chain (§3.3). A page an earlier window hardened
    /// and let go is fetched again, as forward processing would, and its
    /// CLRs reach the log before it ships again (WAL). Returns the number
    /// of losers.
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
            self.ensure_page_present(object.page)?;
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

    /// Ship the dirty pages among `pages` and have the server force all
    /// of them: one ship and one force per `RECOVER_BATCH_PAGES` pages.
    fn harden_pages(&self, pages: &[PageId]) -> Result<()> {
        for batch in pages.chunks(RECOVER_BATCH_PAGES) {
            self.ship_pages(batch, true)?;
            self.server.force_pages(self.id(), batch)?;
        }
        Ok(())
    }

    /// Harden what recovery left dirty — the last redo window and undo's
    /// pages — together with `force_only` (pages the server's buffer
    /// already holds right), checkpoint, and tell the server we are done:
    /// pre-crash transactions are all resolved and the server releases
    /// our locks — mirror that locally.
    fn harden_and_release(&self, force_only: Vec<(PageId, Lsn)>) -> Result<()> {
        let mut pages = {
            let mut st = self.st.lock();
            // The server sends a recovering client no flush notices, so
            // every page restart hardens keeps its DPT entry, shipped or
            // not: a forced-only page gets the entry a shipped one has.
            let shipped_at = st.wal.end_lsn();
            for &(page, redo_lsn) in &force_only {
                st.dpt.entry(page).or_insert(DptState {
                    redo_lsn,
                    remembered: Some(shipped_at),
                    updated_since_ship: false,
                    last_lsn: Lsn::NIL,
                });
            }
            st.cache.dirty_ids()
        };
        pages.extend(force_only.into_iter().map(|(page, _)| page));
        pages.sort_unstable();
        pages.dedup();
        self.harden_pages(&pages)?;
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

    /// Emit the terminal recovery event and record the phase timings into
    /// the per-strategy phase histograms (`recovery_phase_us_<strategy>_*`).
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
            self.metrics.observe_named(
                &format!("recovery_phase_us_{strategy}_{phase}"),
                took.as_micros() as u64,
            );
        }
    }

    /// §3.4, client side: replay the private log against the base copies
    /// the server supplied. The log is scanned once for the whole batch
    /// ([`bucket_scan`], as restart scans it); each page then replays
    /// from its own bucket of records.
    pub(crate) fn recover_pages_for_server(
        &self,
        jobs: Vec<RecoverJob>,
    ) -> Vec<RecoveredPageOutcome> {
        let records = {
            let st = self.st.lock();
            let ckpt = st.wal.last_checkpoint();
            // A page's floor: our DPT RedoLSN for it, else the last
            // complete checkpoint. Replay is windowed, not PSN-guarded, so
            // it keeps every record of the page at or above the floor and
            // drops the ones below it that the scan, which starts at the
            // lowest floor of the batch, passes over.
            let floors: IdMap<PageId, Lsn> = jobs
                .iter()
                .map(|j| {
                    let redo_lsn = st.dpt.get(&j.page).map(|e| e.redo_lsn);
                    (j.page, redo_lsn.filter(|l| !l.is_nil()).unwrap_or(ckpt))
                })
                .collect();
            let from = floors.values().copied().min().unwrap_or(st.wal.end_lsn());
            bucket_scan(&st.wal, from, |e| {
                e.payload
                    .page()
                    .filter(|p| floors.get(p).is_some_and(|floor| e.lsn >= *floor))
            })
            .0
        };
        let no_skips = HashSet::new();
        jobs.into_iter()
            .map(|j| {
                let bucket = records.get(&j.page).map(Vec::as_slice).unwrap_or_default();
                match self.replay_records(
                    j.page,
                    &j.base,
                    j.install_psn,
                    j.callback_list,
                    bucket,
                    &no_skips,
                ) {
                    Ok(work) => RecoveredPageOutcome::Done(work.to_wire()),
                    Err(e) => RecoveredPageOutcome::Failed(e.to_string()),
                }
            })
            .collect()
    }

    /// Replay `records` — one page's bucket from [`bucket_scan`] —
    /// against `base`, a wire-form copy (§3.4).
    /// Records of transactions in `skip_txns` (redo-only losers) are not
    /// replayed: their updates are either absent from the base copy or
    /// undone afterwards from spilled before-images.
    fn replay_records(
        &self,
        page: PageId,
        base: &[u8],
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
        records: &[LogRecordEntry],
        skip_txns: &HashSet<TxnId>,
    ) -> Result<Page> {
        let mut work = Page::from_wire(base, self.config().page_size)?;
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
                    self.server.install_recovered(self.id(), work.to_wire())?;
                    let (bytes, _) = self.server.recovery_fetch(
                        self.id(),
                        page,
                        Some((cb.from_client, cb.psn)),
                    )?;
                    let incoming = Page::from_wire(&bytes, self.config().page_size)?;
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
                        self.server.install_recovered(self.id(), work.to_wire())?;
                    }
                }
            }
        }
        Ok(work)
    }
}

/// The server's DCT view of our pages from the restart handshake: per
/// page, the PSN it remembers for us, if any (§3.3).
type DctView = IdMap<PageId, Option<Psn>>;

/// One page's unit of redo work: the page, its RedoLSN and its bucket
/// (empty where only undo needs the page), freed once the page is done.
type RedoUnit = (PageId, Lsn, Vec<LogRecordEntry>);

/// What redo does with the log-derived DPT.
struct RedoPlan {
    /// Pages to fetch (or replay) and redo, in page order.
    units: Vec<RedoUnit>,
    /// Pages with nothing to redo and no loser: the server's buffer
    /// already holds every update of ours, so restart only has them
    /// forced. Each with its RedoLSN.
    force_only: Vec<(PageId, Lsn)>,
    /// Redo-only losers, whose records redo skips.
    skip: HashSet<TxnId>,
}

/// Split the log-derived DPT into redo's units of work and the pages it
/// only forces. With `use_dct_filter`, Property 1 leaves out a page the
/// DCT does not name; undo fetches it if a loser needs it. A page whose
/// bucket the scan left empty and that no loser's record names is not
/// fetched: redo would only ship the fetched copy back. A loser's page is
/// fetched with the rest, so its CLRs build on the copy redo produced.
fn plan_redo(
    log: &mut Analysis,
    dct: &DctView,
    dct_complete: bool,
    options: RecoveryOptions,
    report: &mut ClientRecoveryReport,
) -> RedoPlan {
    let losers = log.losers();
    let skip: HashSet<TxnId> = losers
        .iter()
        .filter(|(_, e)| e.redo_only)
        .map(|(t, _)| *t)
        .collect();
    let loser_pages: HashSet<PageId> = losers
        .iter()
        .flat_map(|(_, e)| e.pages.iter().copied())
        .collect();
    let filtered = dct_complete && options.use_dct_filter;
    let mut pages: Vec<(PageId, Lsn)> = log.dpt.iter().map(|(p, l)| (*p, *l)).collect();
    pages.sort_unstable();
    let mut plan = RedoPlan {
        units: Vec::new(),
        force_only: Vec::new(),
        skip,
    };
    for (page, redo_lsn) in pages {
        if filtered && !dct.contains_key(&page) {
            continue;
        }
        report.pages_recovered += 1;
        let bucket = log.buckets.remove(&page).unwrap_or_default();
        if dct_complete && bucket.is_empty() && !loser_pages.contains(&page) {
            plan.force_only.push((page, redo_lsn));
        } else {
            plan.units.push((page, redo_lsn, bucket));
        }
    }
    report.pages_fetched = plan.units.len();
    plan
}

/// §3.3 redo of one fetched page from its bucket, in log order. The scan
/// kept only updates to exclusively locked objects at or above the PSN
/// the DCT remembers; apply each whose PSN clears the page PSN, skipping
/// redo-only losers. Returns the number applied.
fn redo_records(
    work: &mut Page,
    records: &[LogRecordEntry],
    skip_txns: &HashSet<TxnId>,
) -> Result<usize> {
    let mut applied = 0;
    for entry in records {
        let Some(r) = RedoImage::of(&entry.payload) else {
            continue;
        };
        if !skip_txns.contains(&r.txn) && r.psn_before >= work.psn() {
            work.install_object(r.object.slot, r.after, r.psn_before.next())?;
            work.set_psn(r.psn_before.next());
            applied += 1;
        }
    }
    Ok(applied)
}

/// The forward scan both restarts bucket the private log with: every
/// record from `from` to the end goes to `visit`, and one it files under a
/// page joins that page's bucket, in log order, without its before-image
/// (neither redo nor replay reads one, so the buckets hold, and later
/// free, half as much). Returns the buckets and the number of records
/// read.
fn bucket_scan(
    wal: &LogManager,
    from: Lsn,
    mut visit: impl FnMut(&mut LogRecordEntry) -> Option<PageId>,
) -> (IdMap<PageId, Vec<LogRecordEntry>>, usize) {
    let mut buckets: IdMap<PageId, Vec<LogRecordEntry>> = IdMap::default();
    let mut scanned = 0;
    for mut entry in wal.scan_from(from) {
        scanned += 1;
        if let Some(page) = visit(&mut entry) {
            if let LogPayload::Update(u) = &mut entry.payload {
                u.before = None;
            }
            buckets.entry(page).or_default().push(entry);
        }
    }
    (buckets, scanned)
}
