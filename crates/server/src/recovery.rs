//! Server restart recovery (§3.4) and the complex-crash variant (§3.5).
//!
//! After a server crash the buffer pool, GLM, DCT and the un-forced log
//! tail are gone; the database disk and the forced prefix of the server
//! log (replacement records + checkpoints) survive. Restart must
//!
//! (a) determine the pages requiring recovery,
//! (b) identify the clients involved,
//! (c) reconstruct the DCT, and
//! (d) coordinate the recovery among the involved clients,
//!
//! exactly the four duties §3.4 lists. Clients recover *their own*
//! updates to the affected pages by replaying their private logs —
//! private logs are never merged — and multiple clients may recover the
//! same page **in parallel**, coordinated through the `CallBack_P` lists
//! and the partial-state requests of §3.4 step 3.

use crate::runtime::ServerCore;
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result};
use fgl_net::api::ServerApi;
use fgl_net::peer::{ClientPeer, RecoverJob, RecoveredPageOutcome, RECOVER_BATCH_PAGES};
use fgl_net::stats::MsgKind;
use fgl_obs::{emit, Event, LogOwner, RecoveryPhase};
use fgl_sched::fan_out;
use fgl_wal::records::LogPayload;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What restart recovery did (experiment E5 reports these).
#[derive(Clone, Debug, Default)]
pub struct RestartReport {
    /// Pages that needed client log replay.
    pub pages_recovered: usize,
    /// Clients that participated in page recovery.
    pub clients_involved: usize,
    /// (page, client) replay units executed.
    pub recovery_units: usize,
    /// Server log records scanned during DCT reconstruction.
    pub records_scanned: usize,
    /// Wall-clock duration of the whole restart.
    pub elapsed: Duration,
    /// Phase (a)+(b): gathering client states, rebuilding the GLM.
    pub gather: Duration,
    /// Phase (c), step 2: reading the DPT pages from disk.
    pub disk_read: Duration,
    /// Phase (c), steps 1 and 3: seeding the DCT from the DPTs and the
    /// checkpoint, and scanning the replacement records.
    pub scan: Duration,
    /// Phase (c), step 4: pulling and merging cached DPT pages.
    pub pull: Duration,
    /// Phase (d): coordinated per-(page, client) log replay.
    pub replay: Duration,
}

/// One page a client is to replay, with its merged `CallBack_P` list.
type RecoverPlan = (PageId, Vec<(ObjectId, Psn)>);

impl ServerCore {
    /// Run §3.4 restart recovery against the currently registered
    /// (operational) clients. Crashed clients (complex crash, §3.5)
    /// simply aren't registered; their DCT entries are rebuilt from the
    /// surviving server log so their own client-crash recovery can run
    /// afterwards.
    pub fn restart_recovery(&self) -> Result<RestartReport> {
        let start = Instant::now();
        let peers = self.all_peers();
        let crashed = self.crashed_set();

        // ---- (a)+(b): gather client states, rebuild the GLM ----------------
        emit(Event::RecoveryPhase {
            owner: LogOwner::Server,
            phase: RecoveryPhase::Gather,
        });
        // One interrogation per client, all clients at once.
        let reports = fan_out(peers.iter().collect(), |peer| {
            self.net.msg(MsgKind::Recovery, 16);
            let report = peer.report_state();
            self.net.msg(MsgKind::Recovery, 64 + 24 * report.dpt.len());
            report
        });
        let mut dpt_by_client: HashMap<ClientId, Vec<(PageId, Lsn)>> = HashMap::new();
        let mut cached_by_client: HashMap<ClientId, HashMap<PageId, Psn>> = HashMap::new();
        // Clients report their full state; a restarting *partition* of a
        // multi-server system keeps only the slice in its residue class —
        // locks, DPT entries and cached copies on other instances' pages
        // are those servers' concern, and they kept serving throughout.
        for (peer, report) in peers.iter().zip(reports) {
            let id = peer.client_id();
            {
                let mut glm = self.glm.lock();
                for lock in report.locks.iter().filter(|l| self.owns_page(l.page())) {
                    glm.install_holder(id, *lock);
                }
            }
            dpt_by_client.insert(
                id,
                report
                    .dpt
                    .iter()
                    .filter(|e| self.owns_page(e.page))
                    .map(|e| (e.page, e.redo_lsn))
                    .collect(),
            );
            cached_by_client.insert(
                id,
                report
                    .cached_pages
                    .into_iter()
                    .filter(|(p, _)| self.owns_page(*p))
                    .collect(),
            );
        }

        // Units of replay, client by client: a page in a client's DPT but
        // not in its cache.
        let mut units: Vec<(PageId, ClientId)> = Vec::new();
        for peer in &peers {
            let id = peer.client_id();
            let cached = &cached_by_client[&id];
            units.extend(
                dpt_by_client[&id]
                    .iter()
                    .filter(|(page, _)| !cached.contains_key(page))
                    .map(|(page, _)| (*page, id)),
            );
        }
        let pages: HashSet<PageId> = units.iter().map(|(page, _)| *page).collect();

        // ---- (c): reconstruct the DCT ---------------------------------------
        let gather = start.elapsed();
        emit(Event::RecoveryPhase {
            owner: LogOwner::Server,
            phase: RecoveryPhase::DctRebuild,
        });
        let dct_start = Instant::now();
        // Step 1: <PID, CID, NULL, NULL> for all DPT pages of operational
        // clients.
        for (client, dpt) in &dpt_by_client {
            for (page, _) in dpt {
                self.dct.lock().insert(*page, *client, None);
            }
        }
        // Step 2: read every distinct DPT page from disk once, with no
        // server lock held and in parallel — dealt into one chunk per
        // client, the width of every other restart round — and install
        // each copy clean, so the step-4 merges and the replay bases are
        // pool hits. Candidate pages remember their on-disk PSNs.
        let read_start = Instant::now();
        let mut dpt_pages: Vec<PageId> = dpt_by_client
            .values()
            .flatten()
            .map(|(page, _)| *page)
            .collect();
        dpt_pages.sort_unstable_by_key(|p| p.0);
        dpt_pages.dedup();
        let per_chunk = dpt_pages.len().div_ceil(peers.len().max(1)).max(1);
        let disk = self.store.lock().disk_handle();
        let reads = fan_out(dpt_pages.chunks(per_chunk).collect(), |chunk| {
            chunk
                .iter()
                .map(|&page| Ok((page, disk.read_page(page)?)))
                .collect::<Result<Vec<_>>>()
        });
        let mut disk_psn: HashMap<PageId, Psn> = HashMap::new();
        for chunk in reads {
            for (page, copy) in chunk? {
                let Some(copy) = copy else { continue };
                if pages.contains(&page) {
                    disk_psn.insert(page, copy.psn());
                }
                self.install_read(page, Some(copy))?;
            }
        }
        let disk_read = read_start.elapsed();
        // Step 3: reload the checkpoint DCT, then scan forward through
        // the shared checkpoint-anchored iterator — the floor is the
        // checkpointed DCT's minimum RedoLSN (or the low-water mark when
        // the checkpoint is unusable).
        let (scan_floor, ckpt_dct) = {
            let slog = self.slog_mut();
            match slog.checkpoint_entry() {
                Some(entry) => match entry.payload {
                    LogPayload::ServerCheckpoint { dct } => {
                        let min_redo = dct
                            .iter()
                            .filter_map(|e| e.redo_lsn)
                            .min()
                            .unwrap_or(Lsn::NIL);
                        (min_redo, dct)
                    }
                    _ => (slog.low_water(), Vec::new()),
                },
                None => (slog.low_water(), Vec::new()),
            }
        };
        // §3.5: checkpointed entries (which may reference crashed
        // clients' pages) seed the table.
        for e in ckpt_dct {
            self.dct.lock().install(e);
        }
        let replacement_records: Vec<(Lsn, LogPayload)> = {
            let slog = self.slog_mut();
            slog.scan_from_checkpoint(scan_floor)
                .map(|e| (e.lsn, e.payload))
                .collect()
        };
        let records_scanned = replacement_records.len();
        for (lsn, payload) in replacement_records {
            if let LogPayload::Replacement(r) = payload {
                let mut dct = self.dct.lock();
                for (cid, _) in &r.clients {
                    dct.insert(r.page, *cid, None);
                }
                dct.note_replacement_record(r.page, lsn);
                // Property 2: the replacement record matching the
                // on-disk PSN tells exactly which client updates the
                // disk copy holds.
                if disk_psn.get(&r.page) == Some(&r.psn) {
                    for (cid, psn) in &r.clients {
                        dct.set_psn(r.page, *cid, *psn);
                    }
                }
            }
        }
        // Step 4: pull cached DPT pages from operational clients and merge
        // them (their updates are in those copies) — the clients in
        // parallel, each shipping its pages [`RECOVER_BATCH_PAGES`] to a
        // message.
        let pull_start = Instant::now();
        let pulls = fan_out(peers.iter().collect(), |peer| -> Result<()> {
            let id = peer.client_id();
            let cached = &cached_by_client[&id];
            let wanted: Vec<PageId> = dpt_by_client[&id]
                .iter()
                .map(|(page, _)| *page)
                .filter(|page| cached.contains_key(page))
                .collect();
            for batch in wanted.chunks(RECOVER_BATCH_PAGES) {
                self.net.msg(MsgKind::Recovery, 16 + 8 * batch.len());
                let copies = peer.ship_cached_pages(batch);
                let shipped = copies.iter().flatten().map(|b| b.len()).sum();
                self.net.msg(MsgKind::PageShip, shipped);
                for bytes in copies.iter().flatten() {
                    self.absorb_page(id, bytes, false)?;
                }
            }
            Ok(())
        });
        pulls.into_iter().collect::<Result<()>>()?;
        let pull = pull_start.elapsed();

        // ---- (d): coordinate per-client replay -------------------------------
        let dct_rebuild = dct_start.elapsed();
        let scan = dct_rebuild.saturating_sub(disk_read + pull);
        emit(Event::RecoveryPhase {
            owner: LogOwner::Server,
            phase: RecoveryPhase::Replay,
        });
        let replay_start = Instant::now();
        // The `CallBack_P` round: every client is asked once, for every
        // unit it is not itself the replayer of, and answers from one
        // scan of its log. The per-unit lists merge by highest PSN.
        let answers = fan_out(peers.iter().collect(), |peer| {
            let id = peer.client_id();
            let own_redo: HashMap<PageId, Lsn> = dpt_by_client[&id].iter().copied().collect();
            let queries: Vec<(PageId, ClientId, Lsn)> = units
                .iter()
                .filter(|(_, c)| *c != id)
                .map(|&(page, c)| (page, c, own_redo.get(&page).copied().unwrap_or(Lsn::NIL)))
                .collect();
            if queries.is_empty() {
                return (queries, Vec::new());
            }
            self.net.msg(MsgKind::Recovery, 16 * queries.len());
            let lists = peer.callback_lists_for(&queries);
            self.net.msg(
                MsgKind::Recovery,
                lists.iter().map(|l| 16 + 24 * l.len()).sum(),
            );
            (queries, lists)
        });
        let mut merged: HashMap<(PageId, ClientId), HashMap<ObjectId, Psn>> = HashMap::new();
        for (queries, lists) in answers {
            for ((page, c, _), list) in queries.into_iter().zip(lists) {
                let unit = merged.entry((page, c)).or_default();
                for (obj, psn) in list {
                    let e = unit.entry(obj).or_insert(psn);
                    if psn > *e {
                        *e = psn;
                    }
                }
            }
        }

        // Replay: each involved client recovers *its* pages from *its* log,
        // the clients in parallel (§3.4), a client's pages in batches it
        // answers from one log scan each. Cross-client dependencies
        // resolve via recovery_fetch/poll_recovery_needs.
        let replayers: Vec<&Arc<dyn ClientPeer>> = peers
            .iter()
            .filter(|peer| units.iter().any(|(_, c)| *c == peer.client_id()))
            .collect();
        let clients_involved = replayers.len();
        let replays = fan_out(replayers, |peer| {
            let c = peer.client_id();
            let plans = units.iter().filter(|(_, uc)| *uc == c).map(|&(page, _)| {
                let mut list: Vec<(ObjectId, Psn)> = merged
                    .get(&(page, c))
                    .map(|m| m.iter().map(|(o, p)| (*o, *p)).collect())
                    .unwrap_or_default();
                list.sort_by_key(|(o, _)| (o.page.0, o.slot.0));
                (page, list)
            });
            self.replay_client(&**peer, &plans.collect::<Vec<RecoverPlan>>())
        });
        replays.into_iter().collect::<Result<()>>()?;

        // Clients that were down across this restart must recover via the
        // §3.5 path (the rebuilt DCT cannot be trusted to cover them).
        self.mark_dct_incomplete(&crashed);
        // Fresh checkpoint so the next crash starts from the rebuilt DCT.
        self.mark_up();
        self.checkpoint()?;
        let replay = replay_start.elapsed();
        emit(Event::RecoveryPhase {
            owner: LogOwner::Server,
            phase: RecoveryPhase::Done,
        });
        let report = RestartReport {
            pages_recovered: pages.len(),
            clients_involved,
            recovery_units: units.len(),
            records_scanned,
            elapsed: start.elapsed(),
            gather,
            disk_read,
            scan,
            pull,
            replay,
        };
        let metrics = self.metrics();
        let strategy = self.config().logging_strategy.name();
        for (phase, took) in [
            ("gather", gather),
            ("dct_rebuild", dct_rebuild),
            ("replay", replay),
        ] {
            metrics.observe_named(
                &format!("recovery_phase_us_{strategy}_server_{phase}"),
                took.as_micros() as u64,
            );
        }
        Ok(report)
    }

    /// Have one client replay its pages, [`RECOVER_BATCH_PAGES`] to a
    /// message, and absorb what comes back. A batch's base copies are
    /// read when it is sent, so they already hold the client's earlier
    /// batches.
    fn replay_client(&self, peer: &dyn ClientPeer, plans: &[RecoverPlan]) -> Result<()> {
        let c = peer.client_id();
        for batch in plans.chunks(RECOVER_BATCH_PAGES) {
            let mut jobs = Vec::with_capacity(batch.len());
            for (page, callback_list) in batch {
                // Base copy: the server's current merged view.
                let (base, psn) = self.with_page(*page, true, |p| (p.to_wire(), p.psn()))?;
                let install_psn = self.dct.lock().psn_of(*page, c).unwrap_or(psn);
                jobs.push(RecoverJob {
                    page: *page,
                    base: base.into(),
                    install_psn,
                    callback_list: callback_list.clone(),
                });
            }
            self.net.msg(
                MsgKind::Recovery,
                jobs.iter().map(|j| 32 + 24 * j.callback_list.len()).sum(),
            );
            self.net
                .msg(MsgKind::PageShip, jobs.iter().map(|j| j.base.len()).sum());
            let outcomes = peer.recover_pages(jobs);
            if outcomes.len() != batch.len() {
                return Err(FglError::Protocol(format!(
                    "client {c} answered {} of {} pages to recover",
                    outcomes.len(),
                    batch.len()
                )));
            }
            let mut shipped = 0;
            for ((page, _), outcome) in batch.iter().zip(outcomes) {
                match outcome {
                    RecoveredPageOutcome::Done(bytes) => {
                        shipped += bytes.len();
                        self.absorb_page(c, &bytes, false)?;
                    }
                    RecoveredPageOutcome::Failed(msg) => {
                        return Err(FglError::Protocol(format!(
                            "client {c} failed to recover {page}: {msg}"
                        )))
                    }
                }
            }
            self.net.msg(MsgKind::PageShip, shipped);
        }
        Ok(())
    }
}
