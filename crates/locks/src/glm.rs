//! The server's **global lock manager** (GLM).
//!
//! The GLM grants locks to *clients* (inter-transaction lock caching, §2):
//! once a client holds a lock, its LLM re-grants it locally until the
//! server calls it back. Conflicts therefore turn into **callback
//! actions** sent to the holding clients (callback locking \[11, 13\]):
//!
//! * object-level conflict, S requested → holder *downgrades* X→S (§3.2);
//! * object-level conflict, X requested → holders *release* (§3.2);
//! * page-level conflict → holders **de-escalate** their page locks into
//!   object locks for the objects their transactions actually use (§3.2);
//! * page-granularity configurations use release/downgrade of page locks
//!   instead (the \[17\]-style baseline).
//!
//! A callback may be *deferred* when the holder's transaction is still
//! using the lock (strict two-phase locking); the deferral reply names the
//! blocking transactions, which feed the **waits-for graph** used for
//! distributed deadlock detection. Victims are the youngest transactions
//! in a cycle.
//!
//! The GLM is a pure state machine: every entry point returns the list of
//! [`GlmEvent`]s (callbacks to send, grants to deliver, victims to abort)
//! for the server runtime to act on.

use crate::mode::{LockTarget, Mode, ObjMode};
use crate::waitgraph::WaitGraph;
use fgl_common::{ClientId, ObjectId, PageId, SlotId, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A callback request the server must send to a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CallbackAction {
    pub to: ClientId,
    pub kind: CallbackKind,
}

/// What the called-back client is asked to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CallbackKind {
    /// Release an object lock entirely (conflicting X request).
    ReleaseObject(ObjectId),
    /// Downgrade an object X lock to S (conflicting S request).
    DowngradeObject(ObjectId),
    /// Release a page lock (page-granularity X request).
    ReleasePage(PageId),
    /// Downgrade a page X lock to S (page-granularity S request).
    DowngradePage(PageId),
    /// Replace a page lock by object locks for the objects in use (§3.2).
    DeEscalatePage(PageId),
}

impl CallbackKind {
    pub fn page(&self) -> PageId {
        match self {
            CallbackKind::ReleaseObject(o) | CallbackKind::DowngradeObject(o) => o.page,
            CallbackKind::ReleasePage(p)
            | CallbackKind::DowngradePage(p)
            | CallbackKind::DeEscalatePage(p) => *p,
        }
    }
}

/// A client's answer to a callback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallbackReply {
    /// The client complied. For de-escalation, `retained` lists the object
    /// locks it kept for its in-progress transactions.
    Done { retained: Vec<(ObjectId, ObjMode)> },
    /// The lock is in use by the named transactions; the client will
    /// comply when they terminate.
    Deferred { blockers: Vec<TxnId> },
}

/// Immediate outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// Granted synchronously. `first_exclusive_on_page` is true when this
    /// grant is the client's first exclusive lock touching the page — the
    /// §3.2 trigger for inserting a DCT entry.
    Granted { first_exclusive_on_page: bool },
    /// Queued; a later [`GlmEvent::Grant`] will deliver it.
    Queued,
}

/// Asynchronous effects for the server runtime to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlmEvent {
    /// Send a callback request to a client.
    SendCallback(CallbackAction),
    /// A queued request is now granted.
    Grant {
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        first_exclusive_on_page: bool,
    },
    /// Deadlock: tell this client to abort this transaction.
    AbortTxn { client: ClientId, txn: TxnId },
}

#[derive(Clone, Debug)]
struct Waiter {
    client: ClientId,
    txn: TxnId,
    target: LockTarget,
}

#[derive(Default)]
struct PageLocks {
    /// One page-level mode per client (lub of page lock and object
    /// intents).
    page_holders: HashMap<ClientId, Mode>,
    /// Object-level holders per slot.
    object_holders: HashMap<SlotId, HashMap<ClientId, ObjMode>>,
    waiters: VecDeque<Waiter>,
    /// Callbacks already sent and not yet answered (dedup).
    outstanding: HashSet<CallbackAction>,
}

impl PageLocks {
    fn is_empty(&self) -> bool {
        self.page_holders.is_empty()
            && self.object_holders.values().all(|m| m.is_empty())
            && self.waiters.is_empty()
            && self.outstanding.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conflict {
    /// Another client's page-level lock conflicts.
    PageLevel(ClientId, Mode),
    /// Another client's object lock conflicts.
    ObjLevel(ClientId, SlotId, ObjMode),
}

/// The global lock manager — one per server instance.
#[derive(Default)]
pub struct GlmCore {
    pages: HashMap<PageId, PageLocks>,
    /// Waits-for graph (deferral + queue edges). The server hands in the
    /// graph its cross-instance coordinator reads; a standalone
    /// `GlmCore::new()` owns a private one.
    graph: Arc<WaitGraph>,
    /// Clients currently marked crashed (their callbacks queue at the
    /// server runtime; the GLM only needs it to skip S-lock grants held
    /// by ghosts).
    crashed: HashSet<ClientId>,
}

impl GlmCore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A lock table feeding the given waits-for graph.
    pub fn with_graph(graph: Arc<WaitGraph>) -> Self {
        GlmCore {
            graph,
            ..Self::default()
        }
    }

    // ---- conflict computation -------------------------------------------

    /// The page-level mode a target occupies while *held*.
    fn held_page_mode(target: &LockTarget) -> Mode {
        match target {
            LockTarget::Object(_, m) => m.intent(),
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => m.as_page_mode(),
        }
    }

    fn conflicts_for(
        &self,
        entry: &PageLocks,
        client: ClientId,
        target: &LockTarget,
    ) -> Vec<Conflict> {
        let mut out = Vec::new();
        // The mode the client's page entry would take if granted: its
        // current holding folded with the request (e.g. IX + page-S =
        // SIX). Conflicts are judged against this effective mode.
        let own = entry.page_holders.get(&client).copied();
        match target {
            LockTarget::Object(o, m) => {
                let intent = match own {
                    Some(pm) => pm.lub(m.intent()),
                    None => m.intent(),
                };
                for (&h, &pm) in &entry.page_holders {
                    if h != client && !pm.compatible(intent) {
                        out.push(Conflict::PageLevel(h, pm));
                    }
                }
                if let Some(holders) = entry.object_holders.get(&o.slot) {
                    for (&h, &om) in holders {
                        if h != client && !om.compatible(*m) {
                            out.push(Conflict::ObjLevel(h, o.slot, om));
                        }
                    }
                }
            }
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => {
                let pm_req = match own {
                    Some(pm) => pm.lub(m.as_page_mode()),
                    None => m.as_page_mode(),
                };
                for (&h, &pm) in &entry.page_holders {
                    if h != client && !pm.compatible(pm_req) {
                        out.push(Conflict::PageLevel(h, pm));
                    }
                }
                for (&slot, holders) in &entry.object_holders {
                    for (&h, &om) in holders {
                        if h != client && !pm_req.compatible(om.intent()) {
                            out.push(Conflict::ObjLevel(h, slot, om));
                        }
                    }
                }
            }
        }
        out
    }

    /// Map conflicts to the callback actions that would clear them.
    fn callbacks_for(target: &LockTarget, conflicts: &[Conflict]) -> Vec<CallbackAction> {
        let page = target.page();
        let mode = target.mode();
        let mut out = Vec::new();
        for c in conflicts {
            let action = match (target, c) {
                // Fine-granularity: page-level conflicts de-escalate (§3.2).
                (LockTarget::Object(..), Conflict::PageLevel(h, _)) => CallbackAction {
                    to: *h,
                    kind: CallbackKind::DeEscalatePage(page),
                },
                (LockTarget::Object(o, m), Conflict::ObjLevel(h, _, _)) => CallbackAction {
                    to: *h,
                    kind: if *m == ObjMode::X {
                        CallbackKind::ReleaseObject(*o)
                    } else {
                        CallbackKind::DowngradeObject(*o)
                    },
                },
                // Page-granularity requests.
                (
                    LockTarget::Page(..) | LockTarget::PageAdaptive(..),
                    Conflict::PageLevel(h, pm),
                ) => CallbackAction {
                    to: *h,
                    kind: if mode == ObjMode::S && *pm == Mode::X {
                        CallbackKind::DowngradePage(page)
                    } else {
                        CallbackKind::ReleasePage(page)
                    },
                },
                (
                    LockTarget::Page(..) | LockTarget::PageAdaptive(..),
                    Conflict::ObjLevel(h, slot, om),
                ) => {
                    let obj = ObjectId::new(page, *slot);
                    CallbackAction {
                        to: *h,
                        kind: if mode == ObjMode::S && *om == ObjMode::X {
                            CallbackKind::DowngradeObject(obj)
                        } else {
                            CallbackKind::ReleaseObject(obj)
                        },
                    }
                }
            };
            out.push(action);
        }
        out.sort_by_key(|a| (a.to.0, format!("{:?}", a.kind)));
        out.dedup();
        out
    }

    // ---- grants ----------------------------------------------------------

    fn do_grant(&mut self, client: ClientId, target: &LockTarget) -> bool {
        let page_id = target.page();
        let had_exclusive = self.client_has_exclusive_on_page(client, page_id);
        let entry = self.pages.entry(page_id).or_default();
        match target {
            LockTarget::Object(o, m) => {
                let holders = entry.object_holders.entry(o.slot).or_default();
                let cur = holders.get(&client).copied();
                let newm = match cur {
                    Some(existing) if existing.covers(*m) => existing,
                    _ => *m,
                };
                holders.insert(client, newm);
                let pm = entry.page_holders.entry(client).or_insert(Mode::IS);
                *pm = pm.lub(m.intent());
            }
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => {
                let pm = entry.page_holders.entry(client).or_insert(Mode::IS);
                *pm = pm.lub(m.as_page_mode());
            }
        }
        let has_exclusive = self.client_has_exclusive_on_page(client, page_id);
        !had_exclusive && has_exclusive
    }

    /// Does the client hold any exclusive lock touching the page (object X
    /// or page X)? §3.2 uses this for DCT insertion/removal.
    pub fn client_has_exclusive_on_page(&self, client: ClientId, page: PageId) -> bool {
        let Some(entry) = self.pages.get(&page) else {
            return false;
        };
        if entry.page_holders.get(&client) == Some(&Mode::X) {
            return true;
        }
        entry
            .object_holders
            .values()
            .any(|h| h.get(&client) == Some(&ObjMode::X))
    }

    // ---- public entry points ----------------------------------------------

    /// Request a lock for `txn` at `client`. Returns the immediate
    /// outcome, the *effective* target (adaptive requests convert to their
    /// embedded object lock on conflict), and the events to act on.
    pub fn lock(
        &mut self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
    ) -> (LockOutcome, LockTarget, Vec<GlmEvent>) {
        let page = target.page();
        self.pages.entry(page).or_default();
        let conflicts = {
            let e = self.pages.get(&page).unwrap();
            self.conflicts_for(e, client, &target)
        };
        // Adaptive: fall back to the embedded object lock on any conflict.
        let effective = match (&target, conflicts.is_empty()) {
            (LockTarget::PageAdaptive(_, m, o), false) => LockTarget::Object(*o, *m),
            _ => target,
        };
        let conflicts = {
            let e = self.pages.get(&page).unwrap();
            self.conflicts_for(e, client, &effective)
        };
        // FIFO fairness: do not overtake an earlier queued waiter whose
        // target conflicts with ours.
        let blocked_by_waiter = self
            .pages
            .get(&page)
            .unwrap()
            .waiters
            .iter()
            .any(|w| w.client != client && Self::targets_conflict(&w.target, &effective));
        if conflicts.is_empty() && !blocked_by_waiter {
            let first_x = self.do_grant(client, &effective);
            return (
                LockOutcome::Granted {
                    first_exclusive_on_page: first_x,
                },
                effective,
                Vec::new(),
            );
        }
        let callbacks = Self::callbacks_for(&effective, &conflicts);
        let entry = self.pages.get_mut(&page).unwrap();
        entry.waiters.push_back(Waiter {
            client,
            txn,
            target: effective,
        });
        let mut events = Vec::new();
        for cb in callbacks {
            if entry.outstanding.insert(cb) {
                events.push(GlmEvent::SendCallback(cb));
            }
        }
        self.publish_queue_edges(page);
        // Queue-order edges may have closed a cycle right away.
        if let Some(victim) = self.find_deadlock_victim(txn) {
            events.push(GlmEvent::AbortTxn {
                client: victim.client(),
                txn: victim,
            });
            events.extend(self.cancel_wait(victim));
            if victim == txn {
                return (
                    LockOutcome::Queued,
                    effective,
                    self.suppress_crashed(events),
                );
            }
        }
        (
            LockOutcome::Queued,
            effective,
            self.suppress_crashed(events),
        )
    }

    /// Drop `SendCallback` events addressed to crashed clients: they stay
    /// outstanding and are delivered via [`Self::pending_callbacks_for`]
    /// once the client recovers (§3.3: callbacks queue until recovery).
    fn suppress_crashed(&self, events: Vec<GlmEvent>) -> Vec<GlmEvent> {
        if self.crashed.is_empty() {
            return events;
        }
        events
            .into_iter()
            .filter(|e| match e {
                GlmEvent::SendCallback(cb) => !self.crashed.contains(&cb.to),
                _ => true,
            })
            .collect()
    }

    fn targets_conflict(a: &LockTarget, b: &LockTarget) -> bool {
        if a.page() != b.page() {
            return false;
        }
        match (a, b) {
            (LockTarget::Object(oa, ma), LockTarget::Object(ob, mb)) => {
                if oa.slot == ob.slot {
                    !ma.compatible(*mb)
                } else {
                    false
                }
            }
            _ => !Self::held_page_mode(a).compatible(Self::held_page_mode(b)),
        }
    }

    /// Process a client's reply to a callback.
    pub fn callback_reply(
        &mut self,
        from: ClientId,
        kind: CallbackKind,
        reply: CallbackReply,
    ) -> Vec<GlmEvent> {
        let page = kind.page();
        let action = CallbackAction { to: from, kind };
        let mut events = Vec::new();
        match reply {
            CallbackReply::Done { retained } => {
                if let Some(entry) = self.pages.get_mut(&page) {
                    entry.outstanding.remove(&action);
                }
                self.apply_done(from, kind, &retained);
                events.extend(self.re_evaluate(page));
            }
            CallbackReply::Deferred { blockers } => {
                // The callback stays outstanding; record waits-for edges
                // for every waiter whose pending callback set contains
                // this action, then look for cycles.
                let waiting: Vec<(TxnId, ClientId)> = {
                    let Some(entry) = self.pages.get(&page) else {
                        return events;
                    };
                    entry
                        .waiters
                        .iter()
                        .filter(|w| {
                            let conflicts = self.conflicts_for(entry, w.client, &w.target);
                            Self::callbacks_for(&w.target, &conflicts).contains(&action)
                        })
                        .map(|w| (w.txn, w.client))
                        .collect()
                };
                for (wtxn, _) in &waiting {
                    self.graph.add_deferrals(*wtxn, &blockers);
                }
                for (wtxn, _) in &waiting {
                    if let Some(victim) = self.find_deadlock_victim(*wtxn) {
                        let victim_client = victim.client();
                        events.push(GlmEvent::AbortTxn {
                            client: victim_client,
                            txn: victim,
                        });
                        events.extend(self.cancel_wait(victim));
                    }
                }
            }
        }
        self.suppress_crashed(events)
    }

    /// Process one client's merged reply to a callback batch in a single
    /// pass: every `Done` outcome applies its state change first, then
    /// each touched page re-evaluates once, then `Deferred` outcomes
    /// record their waits-for edges against the post-batch state. A grant
    /// blocked on N holders of one page thus resolves from one merged
    /// reply instead of N interleaved re-evaluations.
    pub fn callback_reply_batch(
        &mut self,
        from: ClientId,
        replies: Vec<(CallbackKind, CallbackReply)>,
    ) -> Vec<GlmEvent> {
        let mut events = Vec::new();
        let mut touched: Vec<PageId> = Vec::new();
        let mut deferred: Vec<(CallbackKind, Vec<TxnId>)> = Vec::new();
        for (kind, reply) in replies {
            match reply {
                CallbackReply::Done { retained } => {
                    let page = kind.page();
                    let action = CallbackAction { to: from, kind };
                    if let Some(entry) = self.pages.get_mut(&page) {
                        entry.outstanding.remove(&action);
                    }
                    self.apply_done(from, kind, &retained);
                    if !touched.contains(&page) {
                        touched.push(page);
                    }
                }
                CallbackReply::Deferred { blockers } => deferred.push((kind, blockers)),
            }
        }
        for page in touched {
            events.extend(self.re_evaluate(page));
        }
        for (kind, blockers) in deferred {
            events.extend(self.callback_reply(from, kind, CallbackReply::Deferred { blockers }));
        }
        self.suppress_crashed(events)
    }

    fn apply_done(&mut self, from: ClientId, kind: CallbackKind, retained: &[(ObjectId, ObjMode)]) {
        let page = kind.page();
        let Some(entry) = self.pages.get_mut(&page) else {
            return;
        };
        match kind {
            CallbackKind::ReleaseObject(o) => {
                if let Some(h) = entry.object_holders.get_mut(&o.slot) {
                    h.remove(&from);
                }
            }
            CallbackKind::DowngradeObject(o) => {
                // Precondition-checked: a stale reply (the holder lost or
                // changed the lock since the callback was sent) must not
                // rewrite the current state.
                if let Some(h) = entry.object_holders.get_mut(&o.slot) {
                    if let Some(m) = h.get_mut(&from) {
                        if *m == ObjMode::X {
                            *m = ObjMode::S;
                        }
                    }
                }
            }
            CallbackKind::ReleasePage(_) => {
                entry.page_holders.remove(&from);
                for h in entry.object_holders.values_mut() {
                    h.remove(&from);
                }
            }
            CallbackKind::DowngradePage(_) => {
                // Same precondition rule: only a real page X downgrades.
                if let Some(m) = entry.page_holders.get_mut(&from) {
                    if *m == Mode::X {
                        *m = Mode::S;
                    }
                }
            }
            CallbackKind::DeEscalatePage(_) => {
                // Only the page-level lock de-escalates. Object locks the
                // client acquired explicitly (and still caches in its LLM)
                // must survive, or the two lock tables diverge — the
                // client would keep granting locally against locks the
                // server no longer tracks. `retained` adds the object
                // locks that had been covered implicitly by the page lock.
                entry.page_holders.remove(&from);
                for (o, m) in retained {
                    let e = entry
                        .object_holders
                        .entry(o.slot)
                        .or_default()
                        .entry(from)
                        .or_insert(*m);
                    if *m > *e {
                        *e = *m;
                    }
                }
            }
        }
        self.recompute_intent(page, from);
    }

    /// Recompute a client's page-holder mode from its object locks (after
    /// releases/downgrades), unless it holds a real page lock.
    fn recompute_intent(&mut self, page: PageId, client: ClientId) {
        let Some(entry) = self.pages.get_mut(&page) else {
            return;
        };
        let real = matches!(
            entry.page_holders.get(&client),
            Some(Mode::S) | Some(Mode::X)
        );
        if real {
            return;
        }
        let mut intent: Option<Mode> = None;
        for holders in entry.object_holders.values() {
            if let Some(m) = holders.get(&client) {
                let i = m.intent();
                intent = Some(match intent {
                    None => i,
                    Some(prev) => prev.lub(i),
                });
            }
        }
        match intent {
            Some(i) => {
                entry.page_holders.insert(client, i);
            }
            None => {
                entry.page_holders.remove(&client);
            }
        }
        if self.pages.get(&page).map(|e| e.is_empty()).unwrap_or(false) {
            self.pages.remove(&page);
        }
    }

    /// Re-check waiters of a page after any state change.
    fn re_evaluate(&mut self, page: PageId) -> Vec<GlmEvent> {
        let mut events = Vec::new();
        loop {
            let Some(entry) = self.pages.get(&page) else {
                return events;
            };
            // Find the first grantable waiter respecting FIFO fairness.
            let mut grant_idx = None;
            for (i, w) in entry.waiters.iter().enumerate() {
                let conflicts = self.conflicts_for(entry, w.client, &w.target);
                let blocked_by_earlier = entry
                    .waiters
                    .iter()
                    .take(i)
                    .any(|w2| Self::targets_conflict(&w2.target, &w.target));
                if conflicts.is_empty() && !blocked_by_earlier {
                    grant_idx = Some(i);
                    break;
                }
            }
            match grant_idx {
                Some(i) => {
                    let w = self
                        .pages
                        .get_mut(&page)
                        .unwrap()
                        .waiters
                        .remove(i)
                        .unwrap();
                    self.graph.remove_waiter_row(w.txn);
                    let first_x = self.do_grant(w.client, &w.target);
                    events.push(GlmEvent::Grant {
                        client: w.client,
                        txn: w.txn,
                        target: w.target,
                        first_exclusive_on_page: first_x,
                    });
                }
                None => break,
            }
        }
        // Send any callbacks still needed by the remaining waiters.
        let Some(entry) = self.pages.get(&page) else {
            return events;
        };
        let mut to_send = Vec::new();
        for w in &entry.waiters {
            let conflicts = self.conflicts_for(entry, w.client, &w.target);
            for cb in Self::callbacks_for(&w.target, &conflicts) {
                to_send.push(cb);
            }
        }
        let entry = self.pages.get_mut(&page).unwrap();
        for cb in to_send {
            if entry.outstanding.insert(cb) {
                events.push(GlmEvent::SendCallback(cb));
            }
        }
        if entry.is_empty() {
            self.pages.remove(&page);
        }
        self.publish_queue_edges(page);
        events
    }

    /// Remove a waiter (timeout, abort, deadlock victim).
    pub fn cancel_wait(&mut self, txn: TxnId) -> Vec<GlmEvent> {
        self.graph.forget_txn(txn);
        let mut touched = Vec::new();
        for (pid, entry) in self.pages.iter_mut() {
            let before = entry.waiters.len();
            entry.waiters.retain(|w| w.txn != txn);
            if entry.waiters.len() != before {
                touched.push(*pid);
            }
        }
        let mut events = Vec::new();
        for pid in touched {
            events.extend(self.re_evaluate(pid));
        }
        self.suppress_crashed(events)
    }

    // ---- deadlock detection ------------------------------------------------

    /// Republish this page's **queue edges** to the shared waits-for
    /// graph: a waiter behind an earlier conflicting waiter waits for
    /// that waiter's transaction. Without the queue edges, cycles that
    /// thread through FIFO ordering are invisible until the timeout
    /// backstop fires. Called after every waiter-queue change; a page
    /// belongs to exactly one server instance, so publications never race.
    fn publish_queue_edges(&self, page: PageId) {
        let edges = match self.pages.get(&page) {
            Some(entry) => {
                let ws: Vec<&Waiter> = entry.waiters.iter().collect();
                let mut out = Vec::new();
                for (i, w) in ws.iter().enumerate() {
                    for earlier in ws.iter().take(i) {
                        if earlier.client != w.client
                            && Self::targets_conflict(&earlier.target, &w.target)
                        {
                            out.push((w.txn, earlier.txn));
                        }
                    }
                }
                out
            }
            None => Vec::new(),
        };
        self.graph.publish_queue_edges(page, edges);
    }

    /// Cycle search over the graph (deferral edges plus the republished
    /// queue edges); the youngest cycle member
    /// (largest local sequence, tie-broken by raw id) is the victim.
    fn find_deadlock_victim(&self, start: TxnId) -> Option<TxnId> {
        self.graph.find_victim(start)
    }

    // ---- voluntary release / crash handling ---------------------------------

    /// Release one object lock held by a client (e.g. after recovery).
    pub fn release_object(&mut self, client: ClientId, o: ObjectId) -> Vec<GlmEvent> {
        if let Some(entry) = self.pages.get_mut(&o.page) {
            if let Some(h) = entry.object_holders.get_mut(&o.slot) {
                h.remove(&client);
            }
        }
        self.recompute_intent(o.page, client);
        let events = self.re_evaluate(o.page);
        self.suppress_crashed(events)
    }

    /// Release every lock the client holds (clean disconnect / tests).
    pub fn release_all(&mut self, client: ClientId) -> Vec<GlmEvent> {
        let pages: Vec<PageId> = self.pages.keys().copied().collect();
        let mut events = Vec::new();
        for p in pages {
            if let Some(entry) = self.pages.get_mut(&p) {
                entry.page_holders.remove(&client);
                for h in entry.object_holders.values_mut() {
                    h.remove(&client);
                }
                entry.object_holders.retain(|_, h| !h.is_empty());
                entry.outstanding.retain(|cb| cb.to != client);
            }
            events.extend(self.re_evaluate(p));
        }
        self.suppress_crashed(events)
    }

    /// Client crash (§3.3): *release all shared locks held by the crashed
    /// client*; exclusive locks are retained until its restart recovery
    /// completes. Its waiters disappear with it.
    pub fn crash_client(&mut self, client: ClientId) -> Vec<GlmEvent> {
        self.crashed.insert(client);
        let pages: Vec<PageId> = self.pages.keys().copied().collect();
        let mut events = Vec::new();
        // Drop its waiters and their edges first.
        let its_txns: Vec<TxnId> = self
            .pages
            .values()
            .flat_map(|e| e.waiters.iter())
            .filter(|w| w.client == client)
            .map(|w| w.txn)
            .collect();
        for t in its_txns {
            events.extend(self.cancel_wait(t));
        }
        for p in pages {
            if let Some(entry) = self.pages.get_mut(&p) {
                // Shared locks go; X stays. Page S released; page X stays.
                match entry.page_holders.get(&client) {
                    Some(Mode::S) | Some(Mode::IS) => {
                        entry.page_holders.remove(&client);
                    }
                    _ => {}
                }
                for h in entry.object_holders.values_mut() {
                    if h.get(&client) == Some(&ObjMode::S) {
                        h.remove(&client);
                    }
                }
                // Outstanding callbacks to the crashed client will be
                // re-issued (queued by the server runtime) once it
                // recovers; forget that they were sent.
                entry.outstanding.retain(|cb| cb.to != client);
            }
            self.recompute_intent(p, client);
            let evs = self.re_evaluate(p);
            events.extend(evs);
        }
        self.suppress_crashed(events)
    }

    /// Callbacks addressed to a (previously crashed) client that were
    /// suppressed while it was down.
    pub fn pending_callbacks_for(&self, client: ClientId) -> Vec<CallbackAction> {
        self.pages
            .values()
            .flat_map(|e| e.outstanding.iter())
            .filter(|cb| cb.to == client)
            .copied()
            .collect()
    }

    /// Mark a crashed client recovered.
    pub fn client_recovered(&mut self, client: ClientId) {
        self.crashed.remove(&client);
    }

    /// Every exclusive lock a client holds (page X and object X) — what a
    /// recovering client reinstalls in its LLM (§3.3).
    pub fn exclusive_locks(&self, client: ClientId) -> Vec<LockTarget> {
        let mut out = Vec::new();
        for (&pid, entry) in &self.pages {
            if entry.page_holders.get(&client) == Some(&Mode::X) {
                out.push(LockTarget::Page(pid, ObjMode::X));
            }
            for (&slot, holders) in &entry.object_holders {
                if holders.get(&client) == Some(&ObjMode::X) {
                    out.push(LockTarget::Object(ObjectId::new(pid, slot), ObjMode::X));
                }
            }
        }
        out.sort_by_key(|t| (t.page().0, format!("{t:?}")));
        out
    }

    /// Rebuild a holder entry from a client's reported LLM table (server
    /// restart recovery, §3.4).
    pub fn install_holder(&mut self, client: ClientId, target: LockTarget) {
        self.do_grant(client, &target);
    }

    /// Number of pages with any lock state (diagnostics).
    pub fn tracked_pages(&self) -> usize {
        self.pages.len()
    }

    /// Snapshot of a client's locks on a page: (page mode, object locks).
    pub fn client_locks_on_page(
        &self,
        client: ClientId,
        page: PageId,
    ) -> (Option<Mode>, Vec<(SlotId, ObjMode)>) {
        let Some(entry) = self.pages.get(&page) else {
            return (None, Vec::new());
        };
        let pm = entry.page_holders.get(&client).copied();
        let mut objs: Vec<(SlotId, ObjMode)> = entry
            .object_holders
            .iter()
            .filter_map(|(&s, h)| h.get(&client).map(|&m| (s, m)))
            .collect();
        objs.sort_by_key(|(s, _)| s.0);
        (pm, objs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);
    const C3: ClientId = ClientId(3);

    fn t(c: ClientId, n: u32) -> TxnId {
        TxnId::compose(c, n)
    }

    fn obj(p: u64, s: u16) -> ObjectId {
        ObjectId::new(PageId(p), SlotId(s))
    }

    fn granted(outcome: LockOutcome) -> bool {
        matches!(outcome, LockOutcome::Granted { .. })
    }

    #[test]
    fn uncontended_object_locks_grant_immediately() {
        let mut g = GlmCore::new();
        let (o, _t, ev) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert!(granted(o));
        assert!(ev.is_empty());
        // Different objects on the same page: no conflict.
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert!(granted(o));
    }

    #[test]
    fn first_exclusive_on_page_flag() {
        let mut g = GlmCore::new();
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(
            o,
            LockOutcome::Granted {
                first_exclusive_on_page: false
            }
        );
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(
            o,
            LockOutcome::Granted {
                first_exclusive_on_page: true
            }
        );
        // Second X on the same page: not "first" anymore.
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 2), ObjMode::X));
        assert_eq!(
            o,
            LockOutcome::Granted {
                first_exclusive_on_page: false
            }
        );
    }

    #[test]
    fn shared_requests_coexist() {
        let mut g = GlmCore::new();
        for (c, n) in [(C1, 1), (C2, 1), (C3, 1)] {
            let (o, _t, _) = g.lock(c, t(c, n), LockTarget::Object(obj(1, 0), ObjMode::S));
            assert!(granted(o));
        }
    }

    #[test]
    fn x_request_triggers_release_callback_then_grant() {
        let mut g = GlmCore::new();
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert!(granted(o));
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert_eq!(
            ev,
            vec![GlmEvent::SendCallback(CallbackAction {
                to: C1,
                kind: CallbackKind::ReleaseObject(obj(1, 0)),
            })]
        );
        // C1 complies.
        let ev = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(
            ev.as_slice(),
            [GlmEvent::Grant { client, txn, first_exclusive_on_page: true, .. }]
                if *client == C2 && *txn == t(C2, 1)
        ));
    }

    #[test]
    fn s_request_downgrades_x_holder() {
        let mut g = GlmCore::new();
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert!(granted(o));
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        assert_eq!(
            ev,
            vec![GlmEvent::SendCallback(CallbackAction {
                to: C1,
                kind: CallbackKind::DowngradeObject(obj(1, 0)),
            })]
        );
        let ev = g.callback_reply(
            C1,
            CallbackKind::DowngradeObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
        // Both now hold S.
        let (_, objs) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(objs, vec![(SlotId(0), ObjMode::S)]);
        let (_, objs) = g.client_locks_on_page(C2, PageId(1));
        assert_eq!(objs, vec![(SlotId(0), ObjMode::S)]);
    }

    #[test]
    fn page_lock_conflict_deescalates_holder() {
        let mut g = GlmCore::new();
        // C1 takes a whole-page X lock (e.g. structural update).
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Page(PageId(1), ObjMode::X));
        assert!(granted(o));
        // C2 wants an object on that page.
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 3), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert_eq!(
            ev,
            vec![GlmEvent::SendCallback(CallbackAction {
                to: C1,
                kind: CallbackKind::DeEscalatePage(PageId(1)),
            })]
        );
        // C1 de-escalates, retaining an X lock on object 0 only.
        let ev = g.callback_reply(
            C1,
            CallbackKind::DeEscalatePage(PageId(1)),
            CallbackReply::Done {
                retained: vec![(obj(1, 0), ObjMode::X)],
            },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
        let (pm, objs) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(pm, Some(Mode::IX));
        assert_eq!(objs, vec![(SlotId(0), ObjMode::X)]);
    }

    #[test]
    fn deescalation_retaining_conflicting_object_keeps_waiter_blocked() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Page(PageId(1), ObjMode::X));
        let (_, _t2, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        // C1 retains X on the very object C2 wants.
        let ev = g.callback_reply(
            C1,
            CallbackKind::DeEscalatePage(PageId(1)),
            CallbackReply::Done {
                retained: vec![(obj(1, 0), ObjMode::X)],
            },
        );
        // No grant; instead a follow-up object callback.
        assert_eq!(
            ev,
            vec![GlmEvent::SendCallback(CallbackAction {
                to: C1,
                kind: CallbackKind::ReleaseObject(obj(1, 0)),
            })]
        );
        let ev = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
    }

    #[test]
    fn adaptive_request_falls_back_to_object_lock_on_conflict() {
        let mut g = GlmCore::new();
        // C1 holds an adaptive page lock.
        let (o, _t, _) = g.lock(
            C1,
            t(C1, 1),
            LockTarget::PageAdaptive(PageId(1), ObjMode::X, obj(1, 0)),
        );
        assert!(granted(o));
        let (pm, _) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(pm, Some(Mode::X));
        // C2 adaptive-requests a different object: conflict at page level,
        // falls back to object lock, C1 de-escalates.
        let (o, _t, ev) = g.lock(
            C2,
            t(C2, 1),
            LockTarget::PageAdaptive(PageId(1), ObjMode::X, obj(1, 1)),
        );
        assert_eq!(o, LockOutcome::Queued);
        assert_eq!(
            ev,
            vec![GlmEvent::SendCallback(CallbackAction {
                to: C1,
                kind: CallbackKind::DeEscalatePage(PageId(1)),
            })]
        );
        let ev = g.callback_reply(
            C1,
            CallbackKind::DeEscalatePage(PageId(1)),
            CallbackReply::Done {
                retained: vec![(obj(1, 0), ObjMode::X)],
            },
        );
        // C2's converted object request is granted.
        assert!(matches!(
            ev.as_slice(),
            [GlmEvent::Grant { client, target: LockTarget::Object(o2, ObjMode::X), .. }]
                if *client == C2 && *o2 == obj(1, 1)
        ));
    }

    #[test]
    fn deferred_callback_builds_edges_and_finds_deadlock() {
        let mut g = GlmCore::new();
        // Classic upgrade deadlock: C1 and C2 hold S, both want X.
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        g.lock(C2, t(C2, 2), LockTarget::Object(obj(1, 0), ObjMode::S));
        let (o, _t, ev1) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert!(ev1.contains(&GlmEvent::SendCallback(CallbackAction {
            to: C2,
            kind: CallbackKind::ReleaseObject(obj(1, 0)),
        })));
        let (o, _t, ev2) = g.lock(C2, t(C2, 2), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert!(ev2.contains(&GlmEvent::SendCallback(CallbackAction {
            to: C1,
            kind: CallbackKind::ReleaseObject(obj(1, 0)),
        })));
        // The first deferral already closes the cycle: C1's waiter is
        // blocked by T2.2 (deferral edge), and C2's queued request waits
        // behind C1's conflicting one (queue edge). Youngest (seq 2) dies.
        let ev = g.callback_reply(
            C2,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Deferred {
                blockers: vec![t(C2, 2)],
            },
        );
        assert!(
            ev.iter().any(|e| matches!(
                e,
                GlmEvent::AbortTxn { txn, .. } if *txn == t(C2, 2)
            )),
            "expected abort event, got {ev:?}"
        );
    }

    #[test]
    fn fifo_no_overtaking() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        // C2 queues for X.
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        // C3 asks for S afterwards: even though S would be compatible once
        // C1 downgrades, it must not overtake C2's queued X.
        let (o, _t, _) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        // C1 releases; C2 gets the grant first.
        let ev = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        let grants: Vec<ClientId> = ev
            .iter()
            .filter_map(|e| match e {
                GlmEvent::Grant { client, .. } => Some(*client),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![C2]);
    }

    #[test]
    fn crash_releases_shared_keeps_exclusive() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        g.lock(C1, t(C1, 1), LockTarget::Page(PageId(2), ObjMode::X));
        g.crash_client(C1);
        let (_, objs) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(objs, vec![(SlotId(1), ObjMode::X)], "S gone, X retained");
        let x = g.exclusive_locks(C1);
        assert_eq!(
            x,
            vec![
                LockTarget::Object(obj(1, 1), ObjMode::X),
                LockTarget::Page(PageId(2), ObjMode::X),
            ]
        );
        // A blocked S request on the freed S object now succeeds directly.
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert!(granted(o));
    }

    #[test]
    fn callbacks_to_crashed_clients_are_suppressed_and_queryable() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.crash_client(C1);
        // C2 wants the object C1 still holds X on.
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        // The callback is recorded as outstanding but *sent* only via the
        // pending list once C1 recovers.
        assert!(
            ev.is_empty()
                || !ev
                    .iter()
                    .any(|e| matches!(e, GlmEvent::SendCallback(cb) if cb.to == C1)),
            "callback to crashed client must be suppressed: {ev:?}"
        );
        let pending = g.pending_callbacks_for(C1);
        assert_eq!(
            pending,
            vec![CallbackAction {
                to: C1,
                kind: CallbackKind::DowngradeObject(obj(1, 0)),
            }]
        );
        g.client_recovered(C1);
        // C1 (recovered, no active txns) complies.
        let ev = g.callback_reply(
            C1,
            CallbackKind::DowngradeObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
    }

    #[test]
    fn cancel_wait_unblocks_others() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        let (o, _t, _) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        // C2 times out and cancels; C1 releases; C3 is granted.
        g.cancel_wait(t(C2, 1));
        let ev = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C3));
    }

    #[test]
    fn upgrade_while_sole_holder_is_immediate() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert!(granted(o));
        let (_, objs) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(objs, vec![(SlotId(0), ObjMode::X)]);
    }

    #[test]
    fn install_holder_rebuilds_state() {
        let mut g = GlmCore::new();
        g.install_holder(C1, LockTarget::Object(obj(1, 0), ObjMode::X));
        g.install_holder(C2, LockTarget::Object(obj(1, 1), ObjMode::S));
        assert!(g.client_has_exclusive_on_page(C1, PageId(1)));
        assert!(!g.client_has_exclusive_on_page(C2, PageId(1)));
        assert_eq!(g.tracked_pages(), 1);
    }

    #[test]
    fn ix_plus_page_s_forms_six_and_respects_is_holders() {
        // The proptest-found scenario: C1 holds object X (IX intent) and
        // asks for page S while C2 holds object S elsewhere on the page.
        // The effective SIX is compatible with C2's IS, so the grant goes
        // through — but the table must never claim X for C1.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 1), ObjMode::S));
        let (o, _t2, _) = g.lock(C1, t(C1, 1), LockTarget::Page(PageId(1), ObjMode::S));
        assert!(granted(o));
        let (pm1, _) = g.client_locks_on_page(C1, PageId(1));
        assert_eq!(pm1, Some(Mode::SIX));
        let (pm2, _) = g.client_locks_on_page(C2, PageId(1));
        assert!(pm1.unwrap().compatible(pm2.unwrap()));
        // A third client's X object request on slot 1 must now conflict
        // with the SIX (S component) and trigger callbacks.
        let (o, _t3, ev) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert!(!ev.is_empty());
    }

    #[test]
    fn queue_edge_deadlock_detected_without_deferrals() {
        // T1 holds s0 and queues for s1; T2 holds s1 and queues for s0.
        // The second enqueue alone closes the cycle through queue-order
        // edges + deferral-free holder knowledge... holders are clients,
        // so the cycle still needs one deferral; what the queue edges add
        // is detection at the *first* deferral instead of the second
        // (covered in `deferred_callback_builds_edges_and_finds_deadlock`).
        // Here: cross-object hold-and-wait with deferral on one side only.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C2, t(C2, 2), LockTarget::Object(obj(1, 1), ObjMode::X));
        // T1 wants s1 (held by C2): queued, callback to C2.
        let (o, _t1, ev1) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert!(ev1.iter().any(|e| matches!(e, GlmEvent::SendCallback(_))));
        // T2 wants s0 (held by C1): queued, callback to C1.
        let (o, _t2, _ev2) = g.lock(C2, t(C2, 2), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        // C2 defers (T2 uses s1): edge T1 -> T2. Queue edges add nothing
        // here (different objects), so no cycle yet.
        let ev = g.callback_reply(
            C2,
            CallbackKind::ReleaseObject(obj(1, 1)),
            CallbackReply::Deferred {
                blockers: vec![t(C2, 2)],
            },
        );
        assert!(
            !ev.iter().any(|e| matches!(e, GlmEvent::AbortTxn { .. })),
            "one deferral is not yet a cycle: {ev:?}"
        );
        // C1 defers (T1 uses s0): edge T2 -> T1 closes the cycle; the
        // youngest (seq 2) dies.
        let ev = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Deferred {
                blockers: vec![t(C1, 1)],
            },
        );
        assert!(
            ev.iter()
                .any(|e| matches!(e, GlmEvent::AbortTxn { txn, .. } if *txn == t(C2, 2))),
            "cycle must be broken: {ev:?}"
        );
    }

    #[test]
    fn victim_selection_prefers_youngest() {
        // Upgrade deadlock between an old and a young transaction: the
        // young one dies regardless of which deferral lands last.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 900), LockTarget::Object(obj(1, 0), ObjMode::S));
        g.lock(C2, t(C2, 5), LockTarget::Object(obj(1, 0), ObjMode::S));
        g.lock(C1, t(C1, 900), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C2, t(C2, 5), LockTarget::Object(obj(1, 0), ObjMode::X));
        let ev1 = g.callback_reply(
            C2,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Deferred {
                blockers: vec![t(C2, 5)],
            },
        );
        let ev2 = g.callback_reply(
            C1,
            CallbackKind::ReleaseObject(obj(1, 0)),
            CallbackReply::Deferred {
                blockers: vec![t(C1, 900)],
            },
        );
        let victims: Vec<TxnId> = ev1
            .iter()
            .chain(ev2.iter())
            .filter_map(|e| match e {
                GlmEvent::AbortTxn { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert!(
            victims.contains(&t(C1, 900)),
            "youngest (local seq 900) must be the victim: {victims:?}"
        );
    }

    #[test]
    fn release_object_cleans_empty_state() {
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(g.tracked_pages(), 1);
        g.release_object(C1, obj(1, 0));
        assert_eq!(g.tracked_pages(), 0);
    }

    #[test]
    fn batch_reply_with_mixed_done_and_deferred_outcomes() {
        // C1 caches locks on two objects (different pages); C2 and C3
        // queue conflicting requests, so C1 owes two callbacks. Its one
        // merged reply complies with the first and defers the second: the
        // Done half must grant immediately, the Deferred half must leave
        // the callback outstanding so `callback_complete` can finish it.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(2, 0), ObjMode::X));
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        let (o, _t, _) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(2, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);

        let ev = g.callback_reply_batch(
            C1,
            vec![
                (
                    CallbackKind::ReleaseObject(obj(1, 0)),
                    CallbackReply::Done { retained: vec![] },
                ),
                (
                    CallbackKind::DowngradeObject(obj(2, 0)),
                    CallbackReply::Deferred {
                        blockers: vec![t(C1, 1)],
                    },
                ),
            ],
        );
        let grants: Vec<ClientId> = ev
            .iter()
            .filter_map(|e| match e {
                GlmEvent::Grant { client, .. } => Some(*client),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![C2], "Done half grants, Deferred half waits");
        assert!(
            !ev.iter().any(|e| matches!(e, GlmEvent::AbortTxn { .. })),
            "no deadlock in this shape: {ev:?}"
        );

        // The deferred callback is still outstanding: completing it later
        // (C1's blocking txn ended) releases the grant to C3.
        let ev = g.callback_reply(
            C1,
            CallbackKind::DowngradeObject(obj(2, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(
            matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C3),
            "deferred callback completes into the pending grant: {ev:?}"
        );
    }

    #[test]
    fn batch_reply_applies_done_before_deferred_edges() {
        // Both halves of the batch target the same page: the Done reply
        // releases the lock C2's waiter needs, and the Deferred reply's
        // waits-for edges must be computed against the *post-Done* state —
        // a self-referential blocker must not abort a transaction whose
        // wait was already satisfied within the batch.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        let (o, _t, _) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);

        let ev = g.callback_reply_batch(
            C1,
            vec![
                (
                    CallbackKind::ReleaseObject(obj(1, 0)),
                    CallbackReply::Done { retained: vec![] },
                ),
                (
                    CallbackKind::ReleaseObject(obj(1, 1)),
                    CallbackReply::Deferred {
                        blockers: vec![t(C1, 1)],
                    },
                ),
            ],
        );
        let grants: Vec<ClientId> = ev
            .iter()
            .filter_map(|e| match e {
                GlmEvent::Grant { client, .. } => Some(*client),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![C2]);
        assert!(
            !ev.iter()
                .any(|e| matches!(e, GlmEvent::AbortTxn { txn, .. } if *txn == t(C2, 1))),
            "the already-granted waiter must not become a deadlock victim: {ev:?}"
        );
    }
}
