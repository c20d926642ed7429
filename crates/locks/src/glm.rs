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
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
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

/// One client's locks on one page as granted: its page lock and how many
/// object locks (and how many X ones) it holds here. The page-level mode
/// it occupies is derived from them ([`Holder::mode`]), never stored, so
/// it cannot drift from the locks.
#[derive(Clone, Copy, Default)]
struct Holder {
    /// An explicit page lock (page granularity, structural updates, an
    /// adaptive grant).
    page: Option<ObjMode>,
    objects: u32,
    x_objects: u32,
}

impl Holder {
    /// The page lock folded with the intent of the object locks: IX with
    /// any X object, else IS with any object. Page S with an X object is
    /// SIX.
    fn mode(&self) -> Option<Mode> {
        let x = self.x_objects > 0;
        let intent = (self.objects > 0).then_some(if x { Mode::IX } else { Mode::IS });
        let page = self.page.map(ObjMode::as_page_mode);
        page.into_iter().chain(intent).reduce(Mode::lub)
    }
}

/// One page's lock state. A page has a handful of holders, so the tables
/// are vectors kept sorted for binary search rather than hash tables;
/// look-ups stay O(log n) however many locks one client piles onto a page.
#[derive(Default)]
struct PageLocks {
    /// One row per client holding any lock here, sorted by client.
    holders: Vec<(ClientId, Holder)>,
    /// Object-level holders, sorted by (slot, client).
    object_holders: Vec<(SlotId, ClientId, ObjMode)>,
    waiters: VecDeque<Waiter>,
    /// Callbacks already sent and not yet answered (dedup), sorted by
    /// [`callback_key`].
    outstanding: Vec<CallbackAction>,
}

/// Orders one page's callbacks: by client, then kind, then slot.
fn callback_key(a: &CallbackAction) -> (ClientId, u8, u16) {
    let (rank, slot) = match a.kind {
        CallbackKind::DeEscalatePage(_) => (0, 0),
        CallbackKind::DowngradeObject(o) => (1, o.slot.0),
        CallbackKind::DowngradePage(_) => (2, 0),
        CallbackKind::ReleaseObject(o) => (3, o.slot.0),
        CallbackKind::ReleasePage(_) => (4, 0),
    };
    (a.to, rank, slot)
}

impl PageLocks {
    fn is_empty(&self) -> bool {
        self.holders.is_empty()
            && self.object_holders.is_empty()
            && self.waiters.is_empty()
            && self.outstanding.is_empty()
    }

    // ---- holder tables ----------------------------------------------------

    fn holder(&self, client: ClientId) -> Option<&Holder> {
        let i = self.holders.binary_search_by_key(&client, |h| h.0);
        i.ok().map(|i| &self.holders[i].1)
    }

    /// The page-level mode the client occupies (see [`Holder::mode`]).
    fn page_mode(&self, client: ClientId) -> Option<Mode> {
        self.holder(client).and_then(Holder::mode)
    }

    /// Change a client's row, adding it if absent and dropping it once it
    /// holds nothing.
    fn update_holder(&mut self, client: ClientId, f: impl FnOnce(&mut Holder)) {
        let i = match self.holders.binary_search_by_key(&client, |h| h.0) {
            Ok(i) => i,
            Err(i) => {
                self.holders.insert(i, (client, Holder::default()));
                i
            }
        };
        let h = &mut self.holders[i].1;
        f(h);
        if h.page.is_none() && h.objects == 0 {
            self.holders.remove(i);
        }
    }

    /// The holders of one slot.
    fn slot_holders(&self, slot: SlotId) -> &[(SlotId, ClientId, ObjMode)] {
        let lo = self.object_holders.partition_point(|h| h.0 < slot);
        let len = self.object_holders[lo..].partition_point(|h| h.0 == slot);
        &self.object_holders[lo..lo + len]
    }

    /// A client's object locks here, in slot order.
    fn objects_of(&self, client: ClientId) -> impl Iterator<Item = (SlotId, ObjMode)> + '_ {
        self.object_holders
            .iter()
            .filter(move |h| h.1 == client)
            .map(|h| (h.0, h.2))
    }

    /// Set a client's object mode on `slot` (`None` drops the lock).
    fn set_object_mode(&mut self, slot: SlotId, client: ClientId, mode: Option<ObjMode>) {
        let found = self
            .object_holders
            .binary_search_by_key(&(slot, client), |h| (h.0, h.1));
        let old = found.ok().map(|i| self.object_holders[i].2);
        if old == mode {
            return;
        }
        match (found, mode) {
            (Ok(i), Some(m)) => self.object_holders[i].2 = m,
            (Ok(i), None) => {
                self.object_holders.remove(i);
            }
            (Err(i), Some(m)) => self.object_holders.insert(i, (slot, client, m)),
            (Err(_), None) => {}
        }
        let x = |m: Option<ObjMode>| (m == Some(ObjMode::X)) as u32;
        self.update_holder(client, |h| {
            h.objects = h.objects + mode.is_some() as u32 - old.is_some() as u32;
            h.x_objects = h.x_objects + x(mode) - x(old);
        });
    }

    fn object_mode(&self, slot: SlotId, client: ClientId) -> Option<ObjMode> {
        let i = self
            .object_holders
            .binary_search_by_key(&(slot, client), |h| (h.0, h.1));
        i.ok().map(|i| self.object_holders[i].2)
    }

    /// Grant `mode` on `slot`, or raise a weaker held lock to it.
    fn raise_object(&mut self, slot: SlotId, client: ClientId, mode: ObjMode) {
        if self
            .object_mode(slot, client)
            .is_none_or(|held| held < mode)
        {
            self.set_object_mode(slot, client, Some(mode));
        }
    }

    /// Drop a client's locks here: all of them, or (a crash, §3.3) only
    /// the shared ones.
    fn drop_locks(&mut self, client: ClientId, shared_only: bool) {
        if self.holder(client).is_some() {
            self.object_holders
                .retain(|h| h.1 != client || (shared_only && h.2 == ObjMode::X));
            self.update_holder(client, |h| {
                h.page = h.page.filter(|m| shared_only && *m == ObjMode::X);
                if !shared_only {
                    h.x_objects = 0;
                }
                h.objects = h.x_objects;
            });
        }
    }

    fn page_lock(&self, client: ClientId) -> Option<ObjMode> {
        self.holder(client).and_then(|h| h.page)
    }

    /// Does the client hold any exclusive lock touching the page (object X
    /// or page X)?
    fn has_exclusive(&self, client: ClientId) -> bool {
        self.holder(client)
            .is_some_and(|h| h.page == Some(ObjMode::X) || h.x_objects > 0)
    }

    /// Record a callback as sent; false if it already was.
    fn note_outstanding(&mut self, cb: CallbackAction) -> bool {
        match self
            .outstanding
            .binary_search_by_key(&callback_key(&cb), callback_key)
        {
            Ok(_) => false,
            Err(i) => {
                self.outstanding.insert(i, cb);
                true
            }
        }
    }

    fn answered(&mut self, cb: &CallbackAction) {
        if let Ok(i) = self
            .outstanding
            .binary_search_by_key(&callback_key(cb), callback_key)
        {
            self.outstanding.remove(i);
        }
    }

    // ---- conflict computation -------------------------------------------

    fn conflicts_for(&self, client: ClientId, target: &LockTarget) -> Vec<Conflict> {
        let mut out = Vec::new();
        // The mode the client's page entry would take if granted: its
        // current holding folded with the request (e.g. IX + page-S =
        // SIX). Conflicts are judged against this effective mode.
        let own = self.page_mode(client);
        let others = self
            .holders
            .iter()
            .filter(|h| h.0 != client)
            .filter_map(|h| Some((h.0, h.1.mode()?)));
        match target {
            LockTarget::Object(o, m) => {
                let intent = match own {
                    Some(pm) => pm.lub(m.intent()),
                    None => m.intent(),
                };
                for (h, pm) in others {
                    if !pm.compatible(intent) {
                        out.push(Conflict::PageLevel(h, pm));
                    }
                }
                for &(slot, h, om) in self.slot_holders(o.slot) {
                    if h != client && !om.compatible(*m) {
                        out.push(Conflict::ObjLevel(h, slot, om));
                    }
                }
            }
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => {
                let pm_req = match own {
                    Some(pm) => pm.lub(m.as_page_mode()),
                    None => m.as_page_mode(),
                };
                for (h, pm) in others {
                    if !pm.compatible(pm_req) {
                        out.push(Conflict::PageLevel(h, pm));
                    }
                }
                for &(slot, h, om) in &self.object_holders {
                    if h != client && !pm_req.compatible(om.intent()) {
                        out.push(Conflict::ObjLevel(h, slot, om));
                    }
                }
            }
        }
        out
    }

    // ---- state changes ------------------------------------------------------

    /// Record a grant. True when it is the client's first exclusive lock
    /// touching the page — §3.2's trigger for inserting a DCT entry.
    fn grant(&mut self, client: ClientId, target: &LockTarget) -> bool {
        let had_exclusive = self.has_exclusive(client);
        match target {
            LockTarget::Object(o, m) => self.raise_object(o.slot, client, *m),
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => {
                self.update_holder(client, |h| h.page = h.page.max(Some(*m)))
            }
        }
        !had_exclusive && self.has_exclusive(client)
    }

    fn apply_done(&mut self, from: ClientId, kind: CallbackKind, retained: &[(ObjectId, ObjMode)]) {
        match kind {
            CallbackKind::ReleaseObject(o) => self.set_object_mode(o.slot, from, None),
            CallbackKind::DowngradeObject(o) => {
                // Precondition-checked: a stale reply (the holder lost or
                // changed the lock since the callback was sent) must not
                // rewrite the current state.
                if self.object_mode(o.slot, from) == Some(ObjMode::X) {
                    self.set_object_mode(o.slot, from, Some(ObjMode::S));
                }
            }
            CallbackKind::ReleasePage(_) => self.drop_locks(from, false),
            // Same precondition rule: only a page X downgrades.
            CallbackKind::DowngradePage(_) => {
                if self.page_lock(from) == Some(ObjMode::X) {
                    self.update_holder(from, |h| h.page = Some(ObjMode::S));
                }
            }
            CallbackKind::DeEscalatePage(_) => {
                // Only the page-level lock de-escalates. Object locks the
                // client acquired explicitly (and still caches in its LLM)
                // must survive, or the two lock tables diverge — the
                // client would keep granting locally against locks the
                // server no longer tracks. `retained` adds the object
                // locks that had been covered implicitly by the page lock.
                self.update_holder(from, |h| h.page = None);
                for (o, m) in retained {
                    self.raise_object(o.slot, from, *m);
                }
            }
        }
    }

    /// The first waiter that conflicts with no holder and no earlier
    /// waiter (FIFO fairness).
    fn first_grantable(&self) -> Option<usize> {
        (0..self.waiters.len()).find(|&i| {
            let w = &self.waiters[i];
            self.conflicts_for(w.client, &w.target).is_empty()
                && !self
                    .waiters
                    .iter()
                    .take(i)
                    .any(|w2| GlmCore::targets_conflict(&w2.target, &w.target))
        })
    }

    /// Re-check the waiters after any state change: grant what can be
    /// granted, send the callbacks the rest still need, and republish the
    /// queue edges. An empty entry has nothing to re-check.
    fn re_evaluate(&mut self, page: PageId, graph: &WaitGraph) -> Vec<GlmEvent> {
        let mut events = Vec::new();
        if self.is_empty() {
            return events;
        }
        while let Some(i) = self.first_grantable() {
            let w = self.waiters.remove(i).expect("a grantable waiter's index");
            graph.remove_waiter_row(w.txn);
            let first_x = self.grant(w.client, &w.target);
            events.push(GlmEvent::Grant {
                client: w.client,
                txn: w.txn,
                target: w.target,
                first_exclusive_on_page: first_x,
            });
        }
        let mut to_send = Vec::new();
        for w in &self.waiters {
            let conflicts = self.conflicts_for(w.client, &w.target);
            to_send.extend(GlmCore::callbacks_for(&w.target, &conflicts));
        }
        for cb in to_send {
            if self.note_outstanding(cb) {
                events.push(GlmEvent::SendCallback(cb));
            }
        }
        graph.publish_queue_edges(page, self.queue_edges());
        events
    }

    /// The page's **queue edges**: a waiter behind an earlier conflicting
    /// waiter waits for that waiter's transaction. Without them, cycles
    /// that thread through FIFO ordering are invisible until the timeout
    /// backstop fires. Republished after every waiter-queue change; a page
    /// belongs to exactly one server instance, so publications never race.
    fn queue_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        for (i, w) in self.waiters.iter().enumerate() {
            for earlier in self.waiters.iter().take(i) {
                if earlier.client != w.client
                    && GlmCore::targets_conflict(&earlier.target, &w.target)
                {
                    out.push((w.txn, earlier.txn));
                }
            }
        }
        out
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
    /// Keyed by ids that arrive off the wire, so the table keeps the
    /// default (keyed SipHash) hasher; see `fgl_common::idmap`.
    pages: HashMap<PageId, PageLocks>,
    /// Waits-for graph (deferral + queue edges). The server hands in the
    /// graph its cross-instance coordinator reads; a standalone
    /// `GlmCore::new()` owns a private one.
    graph: Arc<WaitGraph>,
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

    /// Run `f` on a tracked page's entry, then stop tracking the page if
    /// that left it empty: one look-up in the page table for the change.
    fn with_page<R: Default>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&mut PageLocks, &WaitGraph) -> R,
    ) -> R {
        let Entry::Occupied(mut e) = self.pages.entry(page) else {
            return R::default();
        };
        let r = f(e.get_mut(), &self.graph);
        if e.get().is_empty() {
            e.remove();
        }
        r
    }

    // ---- conflict computation -------------------------------------------

    /// The page-level mode a target occupies while *held*.
    fn held_page_mode(target: &LockTarget) -> Mode {
        match target {
            LockTarget::Object(_, m) => m.intent(),
            LockTarget::Page(_, m) | LockTarget::PageAdaptive(_, m, _) => m.as_page_mode(),
        }
    }

    /// Map conflicts to the callback actions that would clear them. An S
    /// request needs an X holder downgraded; anything else, released.
    fn callbacks_for(target: &LockTarget, conflicts: &[Conflict]) -> Vec<CallbackAction> {
        use CallbackKind::*;
        let page = target.page();
        let downgrade = |held_x: bool| target.mode() == ObjMode::S && held_x;
        let mut out: Vec<CallbackAction> = conflicts
            .iter()
            .map(|&c| {
                let (to, kind) = match (target, c) {
                    // Fine granularity: page-level conflicts de-escalate (§3.2).
                    (LockTarget::Object(..), Conflict::PageLevel(h, _)) => {
                        (h, DeEscalatePage(page))
                    }
                    (_, Conflict::PageLevel(h, pm)) if downgrade(pm == Mode::X) => {
                        (h, DowngradePage(page))
                    }
                    (_, Conflict::PageLevel(h, _)) => (h, ReleasePage(page)),
                    (_, Conflict::ObjLevel(h, slot, om)) if downgrade(om == ObjMode::X) => {
                        (h, DowngradeObject(ObjectId::new(page, slot)))
                    }
                    (_, Conflict::ObjLevel(h, slot, _)) => {
                        (h, ReleaseObject(ObjectId::new(page, slot)))
                    }
                };
                CallbackAction { to, kind }
            })
            .collect();
        out.sort_unstable_by_key(callback_key);
        out.dedup();
        out
    }

    /// Does the client hold any exclusive lock touching the page (object X
    /// or page X)? §3.2 uses this for DCT insertion/removal.
    pub fn client_has_exclusive_on_page(&self, client: ClientId, page: PageId) -> bool {
        self.pages
            .get(&page)
            .is_some_and(|e| e.has_exclusive(client))
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
        let entry = self.pages.entry(page).or_default();
        let mut conflicts = entry.conflicts_for(client, &target);
        // Adaptive: fall back to the embedded object lock on any conflict.
        let effective = match (&target, conflicts.is_empty()) {
            (LockTarget::PageAdaptive(_, m, o), false) => {
                let object = LockTarget::Object(*o, *m);
                conflicts = entry.conflicts_for(client, &object);
                object
            }
            _ => target,
        };
        // FIFO fairness: do not overtake an earlier queued waiter whose
        // target conflicts with ours.
        let blocked_by_waiter = entry
            .waiters
            .iter()
            .any(|w| w.client != client && Self::targets_conflict(&w.target, &effective));
        if conflicts.is_empty() && !blocked_by_waiter {
            let first_x = entry.grant(client, &effective);
            return (
                LockOutcome::Granted {
                    first_exclusive_on_page: first_x,
                },
                effective,
                Vec::new(),
            );
        }
        entry.waiters.push_back(Waiter {
            client,
            txn,
            target: effective,
        });
        let mut events = Vec::new();
        for cb in Self::callbacks_for(&effective, &conflicts) {
            if entry.note_outstanding(cb) {
                events.push(GlmEvent::SendCallback(cb));
            }
        }
        self.graph.publish_queue_edges(page, entry.queue_edges());
        // Queue-order edges may have closed a cycle right away.
        if let Some(victim) = self.graph.find_victim(txn) {
            events.push(GlmEvent::AbortTxn {
                client: victim.client(),
                txn: victim,
            });
            events.extend(self.cancel_wait(victim));
        }
        (LockOutcome::Queued, effective, events)
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
                events = self.with_page(page, |entry, graph| {
                    entry.answered(&action);
                    entry.apply_done(from, kind, &retained);
                    entry.re_evaluate(page, graph)
                });
            }
            CallbackReply::Deferred { blockers } => {
                // The callback stays outstanding; record waits-for edges
                // for every waiter whose pending callback set contains
                // this action, then look for cycles.
                let waiting: Vec<TxnId> = {
                    let Some(entry) = self.pages.get(&page) else {
                        return events;
                    };
                    entry
                        .waiters
                        .iter()
                        .filter(|w| {
                            let conflicts = entry.conflicts_for(w.client, &w.target);
                            Self::callbacks_for(&w.target, &conflicts).contains(&action)
                        })
                        .map(|w| w.txn)
                        .collect()
                };
                for wtxn in &waiting {
                    self.graph.add_deferrals(*wtxn, &blockers);
                }
                for wtxn in &waiting {
                    if let Some(victim) = self.graph.find_victim(*wtxn) {
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
        events
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
                    self.with_page(page, |entry, _| {
                        entry.answered(&CallbackAction { to: from, kind });
                        entry.apply_done(from, kind, &retained);
                    });
                    if !touched.contains(&page) {
                        touched.push(page);
                    }
                }
                CallbackReply::Deferred { blockers } => deferred.push((kind, blockers)),
            }
        }
        for page in touched {
            events.extend(self.with_page(page, |entry, graph| entry.re_evaluate(page, graph)));
        }
        for (kind, blockers) in deferred {
            events.extend(self.callback_reply(from, kind, CallbackReply::Deferred { blockers }));
        }
        events
    }

    /// Remove a waiter (timeout, abort, deadlock victim).
    pub fn cancel_wait(&mut self, txn: TxnId) -> Vec<GlmEvent> {
        self.graph.forget_txn(txn);
        let mut events = Vec::new();
        let graph = &self.graph;
        self.pages.retain(|&page, entry| {
            let before = entry.waiters.len();
            entry.waiters.retain(|w| w.txn != txn);
            if entry.waiters.len() != before {
                events.extend(entry.re_evaluate(page, graph));
            }
            !entry.is_empty()
        });
        events
    }

    // ---- voluntary release / crash handling ---------------------------------

    /// Release one object lock held by a client (e.g. after recovery).
    pub fn release_object(&mut self, client: ClientId, o: ObjectId) -> Vec<GlmEvent> {
        self.with_page(o.page, |entry, graph| {
            entry.set_object_mode(o.slot, client, None);
            entry.re_evaluate(o.page, graph)
        })
    }

    /// Release every lock the client holds (clean disconnect / tests).
    pub fn release_all(&mut self, client: ClientId) -> Vec<GlmEvent> {
        let mut events = Vec::new();
        let graph = &self.graph;
        self.pages.retain(|&page, entry| {
            entry.drop_locks(client, false);
            entry.outstanding.retain(|cb| cb.to != client);
            events.extend(entry.re_evaluate(page, graph));
            !entry.is_empty()
        });
        events
    }

    /// Client crash (§3.3): *release all shared locks held by the crashed
    /// client*; exclusive locks are retained until its restart recovery
    /// completes. Its waiters disappear with it. One pass over the pages:
    /// each drops the client's waiters, shared locks and outstanding
    /// callbacks, then re-evaluates once — so no waiter of the crashed
    /// client is granted on the way.
    pub fn crash_client(&mut self, client: ClientId) -> Vec<GlmEvent> {
        let mut events = Vec::new();
        let graph = &self.graph;
        self.pages.retain(|&page, entry| {
            entry.waiters.retain(|w| {
                let gone = w.client == client;
                if gone {
                    graph.forget_txn(w.txn);
                }
                !gone
            });
            entry.drop_locks(client, true);
            // Its cache is gone: forget the callbacks sent to it. The
            // re-evaluation records those still needed as outstanding; the
            // server holds them back until the client's recovery ends.
            entry.outstanding.retain(|cb| cb.to != client);
            events.extend(entry.re_evaluate(page, graph));
            !entry.is_empty()
        });
        events
    }

    /// Callbacks sent to `client` and not yet answered.
    pub fn pending_callbacks_for(&self, client: ClientId) -> Vec<CallbackAction> {
        self.pages
            .values()
            .flat_map(|e| e.outstanding.iter())
            .filter(|cb| cb.to == client)
            .copied()
            .collect()
    }

    /// Every exclusive lock a client holds (page X and object X) — what a
    /// recovering client reinstalls in its LLM (§3.3). Ordered by page,
    /// then object locks in slot order before the page lock.
    pub fn exclusive_locks(&self, client: ClientId) -> Vec<LockTarget> {
        let mut out = Vec::new();
        for (&pid, entry) in &self.pages {
            out.extend(
                entry
                    .objects_of(client)
                    .filter(|(_, m)| *m == ObjMode::X)
                    .map(|(slot, m)| LockTarget::Object(ObjectId::new(pid, slot), m)),
            );
            if entry.page_lock(client) == Some(ObjMode::X) {
                out.push(LockTarget::Page(pid, ObjMode::X));
            }
        }
        // Stable: keeps each page's slot order.
        out.sort_by_key(|t| t.page());
        out
    }

    /// Rebuild a holder entry from a client's reported LLM table (server
    /// restart recovery, §3.4).
    pub fn install_holder(&mut self, client: ClientId, target: LockTarget) {
        self.pages
            .entry(target.page())
            .or_default()
            .grant(client, &target);
    }

    /// The client's queued requests, by txn, sorted (diagnostics).
    pub fn waiting_txns(&self, client: ClientId) -> Vec<TxnId> {
        let waiters = self.pages.values().flat_map(|e| &e.waiters);
        let mut out: Vec<_> = waiters
            .filter(|w| w.client == client)
            .map(|w| w.txn)
            .collect();
        out.sort_unstable();
        out
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
        match self.pages.get(&page) {
            Some(entry) => (entry.page_mode(client), entry.objects_of(client).collect()),
            None => (None, Vec::new()),
        }
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
    fn callbacks_to_crashed_clients_stay_outstanding() {
        // The GLM half of §3.3: a callback to a crashed client is emitted
        // and stays outstanding. Holding it back is the server's concern.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.crash_client(C1);
        // C2 wants the object C1 still holds X on.
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        let downgrade = CallbackAction {
            to: C1,
            kind: CallbackKind::DowngradeObject(obj(1, 0)),
        };
        assert_eq!(ev, vec![GlmEvent::SendCallback(downgrade)]);
        assert_eq!(g.pending_callbacks_for(C1), vec![downgrade]);
        // C1 (recovered, no active txns) complies.
        let ev = g.callback_reply(
            C1,
            CallbackKind::DowngradeObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
        assert!(g.pending_callbacks_for(C1).is_empty());
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
    fn six_keeps_its_page_s_through_an_object_callback() {
        // C1 holds X on s0 plus page S: SIX. Downgrading s0 for C2 leaves
        // C1 page S plus object S, so C3's X on another slot still
        // conflicts with C1's page S and must call it back.
        let mut g = GlmCore::new();
        g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C1, t(C1, 1), LockTarget::Page(PageId(1), ObjMode::S));
        assert_eq!(
            g.client_locks_on_page(C1, PageId(1)),
            (Some(Mode::SIX), vec![(SlotId(0), ObjMode::X)])
        );
        let (o, _t, _) = g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        let ev = g.callback_reply(
            C1,
            CallbackKind::DowngradeObject(obj(1, 0)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(matches!(ev.as_slice(), [GlmEvent::Grant { client, .. }] if *client == C2));
        assert_eq!(
            g.client_locks_on_page(C1, PageId(1)),
            (Some(Mode::S), vec![(SlotId(0), ObjMode::S)])
        );
        let (o, _t, ev) = g.lock(C3, t(C3, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        assert!(ev.contains(&GlmEvent::SendCallback(CallbackAction {
            to: C1,
            kind: CallbackKind::DeEscalatePage(PageId(1)),
        })));
    }

    #[test]
    fn crash_grants_the_crashed_client_nothing() {
        // C1's page-S request queues ahead of its X on s1, so when C2
        // releases s1 the X still waits behind it. Crashing C1 must drop
        // both waiters, not cancel the first and grant the second.
        let mut g = GlmCore::new();
        g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 0), ObjMode::X));
        g.lock(C2, t(C2, 1), LockTarget::Object(obj(1, 1), ObjMode::X));
        let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Page(PageId(1), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        let (o, _t, _) = g.lock(C1, t(C1, 2), LockTarget::Object(obj(1, 1), ObjMode::X));
        assert_eq!(o, LockOutcome::Queued);
        let ev = g.callback_reply(
            C2,
            CallbackKind::ReleaseObject(obj(1, 1)),
            CallbackReply::Done { retained: vec![] },
        );
        assert!(!ev.iter().any(|e| matches!(e, GlmEvent::Grant { .. })));
        let before = g.exclusive_locks(C1);
        let ev = g.crash_client(C1);
        assert!(
            !ev.iter()
                .any(|e| matches!(e, GlmEvent::Grant { client, .. } if *client == C1)),
            "{ev:?}"
        );
        assert_eq!(g.exclusive_locks(C1), before);
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
    fn page_s_request_over_4096_x_objects_calls_back_each_in_slot_order() {
        // One client piles X locks onto 4 096 slots of a page; another's
        // page-S request must downgrade every one of them (in numeric slot
        // order) and release the holder's IX page entry.
        let mut g = GlmCore::new();
        for s in 0..4096 {
            let (o, _t, _) = g.lock(C1, t(C1, 1), LockTarget::Object(obj(1, s), ObjMode::X));
            assert!(granted(o));
        }
        assert!(g.client_has_exclusive_on_page(C1, PageId(1)));
        let (o, _t, ev) = g.lock(C2, t(C2, 1), LockTarget::Page(PageId(1), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        let want: Vec<GlmEvent> = (0..4096)
            .map(|s| CallbackKind::DowngradeObject(obj(1, s)))
            .chain([CallbackKind::ReleasePage(PageId(1))])
            .map(|kind| GlmEvent::SendCallback(CallbackAction { to: C1, kind }))
            .collect();
        assert_eq!(ev, want);
        // A second reader queues without repeating any callback: all
        // 4 097 are already outstanding.
        let (o, _t, ev) = g.lock(C3, t(C3, 1), LockTarget::Page(PageId(1), ObjMode::S));
        assert_eq!(o, LockOutcome::Queued);
        assert!(ev.is_empty(), "{} callbacks sent twice", ev.len());
        assert_eq!(g.pending_callbacks_for(C1).len(), 4097);
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
