//! Each client's **local lock manager** (LLM).
//!
//! §2: *"Each client has a local lock manager (LLM) that caches all
//! acquired locks and forwards the lock requests that cannot be granted
//! locally to the server."* Locks are retained across transaction
//! boundaries (inter-transaction caching) and given up only when the
//! server calls them back.
//!
//! The LLM also implements the client half of the callback protocol:
//!
//! * callbacks on locks no active transaction uses are honored
//!   immediately;
//! * callbacks on in-use locks are **deferred** until the using
//!   transactions terminate (strict 2PL), reporting the blockers so the
//!   GLM can detect deadlocks;
//! * **de-escalation** (§3.2) is always immediate: the LLM retains object
//!   locks for exactly the objects its active transactions have accessed
//!   (it keeps that access list for this purpose) and drops the page lock.
//!
//! While a callback is pending on a resource, new local acquisitions of
//! that resource are refused with [`LocalDecision::BlockedByCallback`] so
//! a stream of local transactions cannot starve the remote requester.

use crate::glm::{CallbackKind, CallbackReply};
use crate::mode::{LockTarget, ObjMode};
use fgl_common::config::{LockGranularity, UpdatePolicy};
use fgl_common::{IdMap, ObjectId, PageId, SlotId, TxnId};
use std::collections::hash_map::Entry;

/// Outcome of a local acquisition attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalDecision {
    /// Covered by a cached lock; usage registered.
    LocallyGranted,
    /// Forward this request to the server's GLM.
    NeedGlobal(LockTarget),
    /// A pending callback claims this resource; retry after the callback
    /// completes (the client runtime waits on its callback daemon).
    BlockedByCallback,
}

/// Lockable resource from the LLM's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Res {
    Page(PageId),
    Object(ObjectId),
}

/// The local lock manager. Plain state machine; the client runtime wraps
/// it in its own mutex.
pub struct LlmCore {
    granularity: LockGranularity,
    update_policy: UpdatePolicy,
    /// Cached page-level locks (real S/X — intents are a GLM concern).
    page_locks: IdMap<PageId, ObjMode>,
    /// Cached object-level locks.
    object_locks: IdMap<ObjectId, ObjMode>,
    /// The slots of `object_locks` per page (no empty lists), so a
    /// question about one page costs what that page holds.
    page_objects: IdMap<PageId, Vec<SlotId>>,
    /// Per active transaction: resources in use with the max mode used.
    txn_use: IdMap<TxnId, IdMap<Res, ObjMode>>,
    /// Emptied usage tables of finished transactions; the next
    /// transaction's first access takes one instead of allocating.
    spare_uses: Vec<IdMap<Res, ObjMode>>,
    /// Callbacks deferred until their blocking transactions finish.
    deferred: Vec<CallbackKind>,
    /// Outstanding global lock requests: the request was sent to (or
    /// granted by) the GLM but the grant is not yet installed locally. A
    /// callback that overlaps one of these must defer — answering `Done`
    /// would let the server revoke a grant the application thread is
    /// about to rely on.
    inflight: IdMap<TxnId, LockTarget>,
}

impl LlmCore {
    pub fn new(granularity: LockGranularity, update_policy: UpdatePolicy) -> Self {
        LlmCore {
            granularity,
            update_policy,
            page_locks: IdMap::default(),
            object_locks: IdMap::default(),
            page_objects: IdMap::default(),
            txn_use: IdMap::default(),
            spare_uses: Vec::new(),
            deferred: Vec::new(),
            inflight: IdMap::default(),
        }
    }

    /// Register an outstanding global request for `txn` (call before
    /// contacting the server; overwrites any previous registration).
    pub fn begin_global_request(&mut self, txn: TxnId, target: LockTarget) {
        self.inflight.insert(txn, target);
    }

    /// The global request concluded (grant installed, or failed).
    pub fn end_global_request(&mut self, txn: TxnId) {
        self.inflight.remove(&txn);
    }

    /// Transactions with an in-flight global request overlapping the
    /// called-back resource. `min` filters downgrades (only X-mode
    /// requests block a downgrade).
    fn inflight_blockers(&self, page: PageId, slot: Option<SlotId>, min: ObjMode) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .inflight
            .iter()
            .filter(|(_, t)| {
                if t.page() != page || t.mode() < min {
                    return false;
                }
                match (t, slot) {
                    (LockTarget::Object(o, _), Some(s)) => o.slot == s,
                    // Page-level requests overlap everything on the page;
                    // object requests overlap page-level callbacks.
                    _ => true,
                }
            })
            .map(|(txn, _)| *txn)
            .collect();
        out.sort();
        out
    }

    /// The lock target the configured policies require for accessing
    /// `object` in `mode`. Structural (non-mergeable) updates need the
    /// whole page exclusively (§3.1); so does any update under the
    /// update-token baseline.
    pub fn target_for(&self, object: ObjectId, mode: ObjMode, structural: bool) -> LockTarget {
        if structural || (mode == ObjMode::X && self.update_policy == UpdatePolicy::UpdateToken) {
            return LockTarget::Page(object.page, ObjMode::X);
        }
        match self.granularity {
            LockGranularity::Object => LockTarget::Object(object, mode),
            LockGranularity::Page => LockTarget::Page(object.page, mode),
            LockGranularity::Adaptive => LockTarget::PageAdaptive(object.page, mode, object),
        }
    }

    /// Cache an object lock, or raise a cached one to `mode`.
    fn raise_object_lock(&mut self, o: ObjectId, mode: ObjMode) {
        match self.object_locks.entry(o) {
            Entry::Occupied(mut e) => {
                if mode > *e.get() {
                    e.insert(mode);
                }
            }
            Entry::Vacant(e) => {
                e.insert(mode);
                self.page_objects.entry(o.page).or_default().push(o.slot);
            }
        }
    }

    fn drop_object_lock(&mut self, o: ObjectId) {
        if self.object_locks.remove(&o).is_none() {
            return;
        }
        if let Entry::Occupied(mut e) = self.page_objects.entry(o.page) {
            let slots = e.get_mut();
            slots.retain(|s| *s != o.slot);
            if slots.is_empty() {
                e.remove();
            }
        }
    }

    fn register_use(&mut self, txn: TxnId, res: Res, mode: ObjMode) {
        let uses = match self.txn_use.entry(txn) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.spare_uses.pop().unwrap_or_default()),
        };
        let m = uses.entry(res).or_insert(mode);
        if mode > *m {
            *m = mode;
        }
    }

    /// Does `txn` already use `res` at or above `min`?
    fn txn_uses(&self, txn: TxnId, res: Res, min: ObjMode) -> bool {
        self.txn_use
            .get(&txn)
            .and_then(|uses| uses.get(&res))
            .map(|m| *m >= min)
            .unwrap_or(false)
    }

    /// Does `txn` use the page itself or any object on it at/above `min`?
    fn txn_uses_page(&self, txn: TxnId, page: PageId, min: ObjMode) -> bool {
        self.txn_use
            .get(&txn)
            .map(|uses| {
                uses.iter().any(|(r, m)| {
                    *m >= min
                        && match r {
                            Res::Page(p) => *p == page,
                            Res::Object(o) => o.page == page,
                        }
                })
            })
            .unwrap_or(false)
    }

    /// Does any pending callback block `txn` acquiring `object` in `mode`?
    ///
    /// A transaction that is itself a *blocker* of the deferred callback
    /// (it already uses the resource) is exempt: the callback waits for
    /// it, so blocking its further accesses would deadlock the client
    /// against itself. Strict 2PL keeps the extended use correct —
    /// `end_txn` re-evaluates the blockers before completing the callback.
    fn callback_blocks(
        &self,
        txn: TxnId,
        object: ObjectId,
        mode: ObjMode,
        target: &LockTarget,
    ) -> bool {
        let page = object.page;
        self.deferred.iter().any(|kind| match kind {
            CallbackKind::ReleaseObject(o) => {
                *o == object && !self.txn_uses(txn, Res::Object(object), ObjMode::S)
            }
            CallbackKind::DowngradeObject(o) => {
                *o == object
                    && mode == ObjMode::X
                    && !self.txn_uses(txn, Res::Object(object), ObjMode::X)
            }
            CallbackKind::ReleasePage(p) => {
                *p == page && !self.txn_uses_page(txn, page, ObjMode::S)
            }
            CallbackKind::DowngradePage(p) => {
                *p == page
                    && (mode == ObjMode::X || matches!(target, LockTarget::Page(_, ObjMode::X)))
                    && !self.txn_uses_page(txn, page, ObjMode::X)
            }
            CallbackKind::DeEscalatePage(_) => false,
        })
    }

    /// Try to satisfy an access to `object` in `mode` for `txn`.
    /// `structural` marks non-mergeable updates (§3.1).
    pub fn acquire(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        mode: ObjMode,
        structural: bool,
    ) -> LocalDecision {
        let target = self.target_for(object, mode, structural);
        if self.callback_blocks(txn, object, mode, &target) {
            return LocalDecision::BlockedByCallback;
        }
        let covered = match &target {
            LockTarget::Object(o, m) => {
                self.object_locks
                    .get(o)
                    .map(|h| h.covers(*m))
                    .unwrap_or(false)
                    || self
                        .page_locks
                        .get(&o.page)
                        .map(|h| h.covers(*m))
                        .unwrap_or(false)
            }
            LockTarget::Page(p, m) | LockTarget::PageAdaptive(p, m, _) => self
                .page_locks
                .get(p)
                .map(|h| h.covers(*m))
                .unwrap_or(false),
        };
        if covered {
            self.register_use(txn, Res::Object(object), mode);
            if matches!(target, LockTarget::Page(..)) {
                self.register_use(txn, Res::Page(object.page), target.mode());
            }
            LocalDecision::LocallyGranted
        } else {
            LocalDecision::NeedGlobal(target)
        }
    }

    /// The server granted a (possibly adaptive-converted) target.
    pub fn global_granted(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        mode: ObjMode,
        granted: LockTarget,
    ) {
        match granted {
            LockTarget::Object(o, m) => self.raise_object_lock(o, m),
            LockTarget::Page(p, m) | LockTarget::PageAdaptive(p, m, _) => {
                let e = self.page_locks.entry(p).or_insert(m);
                if m > *e {
                    *e = m;
                }
                self.register_use(txn, Res::Page(p), m);
            }
        }
        self.register_use(txn, Res::Object(object), mode);
    }

    /// Install a page lock granted out-of-band (page allocation grants
    /// the creator the page exclusively).
    pub fn grant_page_lock(&mut self, txn: TxnId, page: PageId, mode: ObjMode) {
        let e = self.page_locks.entry(page).or_insert(mode);
        if mode > *e {
            *e = mode;
        }
        self.register_use(txn, Res::Page(page), mode);
    }

    /// Register object usage after the fact (an insert learns its object
    /// id only once the slot is chosen; the usage pin makes de-escalation
    /// retain the new object's lock).
    pub fn register_object_use(&mut self, txn: TxnId, object: ObjectId, mode: ObjMode) {
        self.register_use(txn, Res::Object(object), mode);
    }

    /// Transactions currently using a resource at or above `min`.
    fn users(&self, res: Res, min: ObjMode) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .txn_use
            .iter()
            .filter(|(_, uses)| uses.get(&res).map(|m| *m >= min).unwrap_or(false))
            .map(|(t, _)| *t)
            .collect();
        out.sort();
        out
    }

    /// Transactions using the page itself or any object on it at or above
    /// `min`.
    fn page_users(&self, page: PageId, min: ObjMode) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .txn_use
            .iter()
            .filter(|(_, uses)| {
                uses.iter().any(|(r, m)| {
                    *m >= min
                        && match r {
                            Res::Page(p) => *p == page,
                            Res::Object(o) => o.page == page,
                        }
                })
            })
            .map(|(t, _)| *t)
            .collect();
        out.sort();
        out
    }

    /// Objects of `page` accessed by active transactions, with the max
    /// mode — what de-escalation retains (§3.2: "each LLM maintains a list
    /// of the objects accessed by local transactions").
    pub fn accessed_objects(&self, page: PageId) -> Vec<(ObjectId, ObjMode)> {
        let mut acc: IdMap<ObjectId, ObjMode> = IdMap::default();
        for uses in self.txn_use.values() {
            for (r, m) in uses {
                if let Res::Object(o) = r {
                    if o.page == page {
                        let e = acc.entry(*o).or_insert(*m);
                        if *m > *e {
                            *e = *m;
                        }
                    }
                }
            }
        }
        let mut out: Vec<(ObjectId, ObjMode)> = acc.into_iter().collect();
        out.sort_by_key(|(o, _)| (o.page.0, o.slot.0));
        out
    }

    /// Handle a callback from the server. Returns the reply and, when the
    /// reply is `Done`, has already applied the lock-state change.
    pub fn handle_callback(&mut self, kind: CallbackKind) -> CallbackReply {
        match kind {
            CallbackKind::ReleaseObject(o) => {
                let mut blockers = self.users(Res::Object(o), ObjMode::S);
                blockers.extend(self.inflight_blockers(o.page, Some(o.slot), ObjMode::S));
                blockers.sort();
                blockers.dedup();
                if blockers.is_empty() {
                    self.drop_object_lock(o);
                    CallbackReply::Done { retained: vec![] }
                } else {
                    self.deferred.push(kind);
                    CallbackReply::Deferred { blockers }
                }
            }
            CallbackKind::DowngradeObject(o) => {
                let mut blockers = self.users(Res::Object(o), ObjMode::X);
                blockers.extend(self.inflight_blockers(o.page, Some(o.slot), ObjMode::X));
                blockers.sort();
                blockers.dedup();
                if blockers.is_empty() {
                    if let Some(m) = self.object_locks.get_mut(&o) {
                        *m = ObjMode::S;
                    }
                    CallbackReply::Done { retained: vec![] }
                } else {
                    self.deferred.push(kind);
                    CallbackReply::Deferred { blockers }
                }
            }
            CallbackKind::ReleasePage(p) => {
                let mut blockers = self.page_users(p, ObjMode::S);
                blockers.extend(self.inflight_blockers(p, None, ObjMode::S));
                blockers.sort();
                blockers.dedup();
                if blockers.is_empty() {
                    self.page_locks.remove(&p);
                    for slot in self.page_objects.remove(&p).unwrap_or_default() {
                        self.object_locks.remove(&ObjectId::new(p, slot));
                    }
                    CallbackReply::Done { retained: vec![] }
                } else {
                    self.deferred.push(kind);
                    CallbackReply::Deferred { blockers }
                }
            }
            CallbackKind::DowngradePage(p) => {
                let mut blockers = self.page_users(p, ObjMode::X);
                blockers.extend(self.inflight_blockers(p, None, ObjMode::X));
                blockers.sort();
                blockers.dedup();
                if blockers.is_empty() {
                    if let Some(m) = self.page_locks.get_mut(&p) {
                        *m = ObjMode::S;
                    }
                    CallbackReply::Done { retained: vec![] }
                } else {
                    self.deferred.push(kind);
                    CallbackReply::Deferred { blockers }
                }
            }
            CallbackKind::DeEscalatePage(p) => {
                // A page-lock grant may be in flight (granted by the GLM,
                // not yet installed here): de-escalating now would void
                // it. Defer until the requesting transaction settles.
                let blockers = self.inflight_blockers(p, None, ObjMode::S);
                if !blockers.is_empty() {
                    self.deferred.push(kind);
                    return CallbackReply::Deferred { blockers };
                }
                // Otherwise immediate: keep object locks for the objects
                // in use, at the page lock's mode ceiling.
                let page_mode = self.page_locks.remove(&p).unwrap_or(ObjMode::S);
                let mut retained = self.accessed_objects(p);
                for (_, m) in retained.iter_mut() {
                    if *m > page_mode {
                        *m = page_mode;
                    }
                }
                for (o, m) in &retained {
                    self.raise_object_lock(*o, *m);
                }
                CallbackReply::Done { retained }
            }
        }
    }

    /// A transaction terminated (commit or abort): its usage pins vanish;
    /// any deferred callback whose blockers are now gone completes. The
    /// returned `(kind, reply)` pairs must be forwarded to the server.
    pub fn end_txn(&mut self, txn: TxnId) -> Vec<(CallbackKind, CallbackReply)> {
        if let Some(mut uses) = self.txn_use.remove(&txn) {
            uses.clear();
            self.spare_uses.push(uses);
        }
        let pending = std::mem::take(&mut self.deferred);
        let mut completions = Vec::new();
        for kind in pending {
            let still_blocked = match kind {
                CallbackKind::ReleaseObject(o) => {
                    !self.users(Res::Object(o), ObjMode::S).is_empty()
                        || !self
                            .inflight_blockers(o.page, Some(o.slot), ObjMode::S)
                            .is_empty()
                }
                CallbackKind::DowngradeObject(o) => {
                    !self.users(Res::Object(o), ObjMode::X).is_empty()
                        || !self
                            .inflight_blockers(o.page, Some(o.slot), ObjMode::X)
                            .is_empty()
                }
                CallbackKind::ReleasePage(p) => {
                    !self.page_users(p, ObjMode::S).is_empty()
                        || !self.inflight_blockers(p, None, ObjMode::S).is_empty()
                }
                CallbackKind::DowngradePage(p) => {
                    !self.page_users(p, ObjMode::X).is_empty()
                        || !self.inflight_blockers(p, None, ObjMode::X).is_empty()
                }
                CallbackKind::DeEscalatePage(p) => {
                    !self.inflight_blockers(p, None, ObjMode::S).is_empty()
                }
            };
            if still_blocked {
                self.deferred.push(kind);
            } else {
                // Re-run the handler; with no blockers it applies and
                // returns Done.
                let reply = self.handle_callback(kind);
                debug_assert!(matches!(reply, CallbackReply::Done { .. }));
                completions.push((kind, reply));
            }
        }
        completions
    }

    /// Cached mode for an object, considering a covering page lock.
    pub fn cached_mode(&self, object: ObjectId) -> Option<ObjMode> {
        match (
            self.object_locks.get(&object),
            self.page_locks.get(&object.page),
        ) {
            (Some(&a), Some(&b)) => Some(a.max(b)),
            (Some(&a), None) => Some(a),
            (None, Some(&b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Does the client hold any lock touching `page`?
    pub fn holds_any_on_page(&self, page: PageId) -> bool {
        self.page_locks.contains_key(&page) || self.page_objects.contains_key(&page)
    }

    /// All cached locks, as GLM targets (reported to the server during its
    /// restart recovery, §3.4).
    pub fn all_locks(&self) -> Vec<LockTarget> {
        let mut out: Vec<LockTarget> = self
            .page_locks
            .iter()
            .map(|(&p, &m)| LockTarget::Page(p, m))
            .chain(
                self.object_locks
                    .iter()
                    .map(|(&o, &m)| LockTarget::Object(o, m)),
            )
            .collect();
        // The key is built once per lock, not once per comparison: a
        // client holds thousands of object locks when the server asks.
        out.sort_by_cached_key(|t| (t.page().0, format!("{t:?}")));
        out
    }

    /// Crash: volatile lock tables are lost (§3.3).
    pub fn clear(&mut self) {
        self.page_locks.clear();
        self.object_locks.clear();
        self.page_objects.clear();
        self.txn_use.clear();
        self.deferred.clear();
        self.inflight.clear();
    }

    /// Restart recovery reinstalls the exclusive locks held before the
    /// failure (§3.3).
    pub fn reinstall_exclusive(&mut self, locks: &[LockTarget]) {
        for l in locks {
            match l {
                LockTarget::Object(o, ObjMode::X) => self.raise_object_lock(*o, ObjMode::X),
                LockTarget::Page(p, ObjMode::X) => {
                    self.page_locks.insert(*p, ObjMode::X);
                }
                _ => {}
            }
        }
    }

    /// Active transactions known to the LLM (diagnostics).
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.txn_use.keys().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::ClientId;

    const C: ClientId = ClientId(1);

    fn t(n: u32) -> TxnId {
        TxnId::compose(C, n)
    }

    fn obj(p: u64, s: u16) -> ObjectId {
        ObjectId::new(PageId(p), SlotId(s))
    }

    fn llm() -> LlmCore {
        LlmCore::new(LockGranularity::Object, UpdatePolicy::MergeCopies)
    }

    /// The order of `all_locks` is the order of the `State` reply on the
    /// wire. It is page, then the lock's debug text — so on one page the
    /// object locks precede the page lock and slot 10 precedes slot 2.
    #[test]
    fn all_locks_keeps_its_page_then_debug_text_order() {
        let mut l = llm();
        for (p, s) in [(3, 2), (3, 10), (3, 1), (12, 0), (2, 7), (3, 100), (12, 11)] {
            let mode = if s % 2 == 0 { ObjMode::X } else { ObjMode::S };
            l.raise_object_lock(obj(p, s), mode);
        }
        l.page_locks.insert(PageId(3), ObjMode::S);
        l.page_locks.insert(PageId(7), ObjMode::X);
        l.page_locks.insert(PageId(12), ObjMode::X);
        let got = l.all_locks();
        let mut want = got.clone();
        want.reverse();
        want.sort_by_key(|t| (t.page().0, format!("{t:?}")));
        assert_eq!(got, want);
        assert_eq!(
            got[1..6],
            [
                LockTarget::Object(obj(3, 1), ObjMode::S),
                LockTarget::Object(obj(3, 10), ObjMode::X),
                LockTarget::Object(obj(3, 100), ObjMode::X),
                LockTarget::Object(obj(3, 2), ObjMode::X),
                LockTarget::Page(PageId(3), ObjMode::S),
            ]
        );
    }

    #[test]
    fn cold_cache_needs_global() {
        let mut l = llm();
        assert_eq!(
            l.acquire(t(1), obj(1, 0), ObjMode::S, false),
            LocalDecision::NeedGlobal(LockTarget::Object(obj(1, 0), ObjMode::S))
        );
    }

    #[test]
    fn cached_lock_grants_locally_across_txns() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.end_txn(t(1));
        // A later transaction reuses the cached X lock, for S or X.
        assert_eq!(
            l.acquire(t(2), obj(1, 0), ObjMode::S, false),
            LocalDecision::LocallyGranted
        );
        assert_eq!(
            l.acquire(t(2), obj(1, 0), ObjMode::X, false),
            LocalDecision::LocallyGranted
        );
    }

    #[test]
    fn cached_s_does_not_cover_x() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::S,
            LockTarget::Object(obj(1, 0), ObjMode::S),
        );
        assert_eq!(
            l.acquire(t(1), obj(1, 0), ObjMode::X, false),
            LocalDecision::NeedGlobal(LockTarget::Object(obj(1, 0), ObjMode::X))
        );
    }

    #[test]
    fn page_lock_covers_objects_on_page() {
        let mut l = LlmCore::new(LockGranularity::Adaptive, UpdatePolicy::MergeCopies);
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::PageAdaptive(PageId(1), ObjMode::X, obj(1, 0)),
        );
        assert_eq!(
            l.acquire(t(1), obj(1, 5), ObjMode::X, false),
            LocalDecision::LocallyGranted
        );
        assert_eq!(
            l.acquire(t(1), obj(2, 0), ObjMode::S, false),
            LocalDecision::NeedGlobal(LockTarget::PageAdaptive(PageId(2), ObjMode::S, obj(2, 0)))
        );
    }

    #[test]
    fn structural_updates_need_page_x() {
        let mut l = llm();
        assert_eq!(
            l.acquire(t(1), obj(1, 0), ObjMode::X, true),
            LocalDecision::NeedGlobal(LockTarget::Page(PageId(1), ObjMode::X))
        );
    }

    #[test]
    fn update_token_policy_escalates_writes() {
        let mut l = LlmCore::new(LockGranularity::Object, UpdatePolicy::UpdateToken);
        assert_eq!(
            l.acquire(t(1), obj(1, 0), ObjMode::X, false),
            LocalDecision::NeedGlobal(LockTarget::Page(PageId(1), ObjMode::X))
        );
        // Reads stay fine-grained.
        assert_eq!(
            l.acquire(t(1), obj(1, 0), ObjMode::S, false),
            LocalDecision::NeedGlobal(LockTarget::Object(obj(1, 0), ObjMode::S))
        );
    }

    #[test]
    fn callback_on_unused_lock_is_immediate() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.end_txn(t(1));
        let r = l.handle_callback(CallbackKind::ReleaseObject(obj(1, 0)));
        assert_eq!(r, CallbackReply::Done { retained: vec![] });
        assert_eq!(l.cached_mode(obj(1, 0)), None);
    }

    #[test]
    fn callback_on_in_use_lock_defers_until_end() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        let r = l.handle_callback(CallbackKind::ReleaseObject(obj(1, 0)));
        assert_eq!(
            r,
            CallbackReply::Deferred {
                blockers: vec![t(1)]
            }
        );
        // While deferred, new acquisitions are blocked.
        assert_eq!(
            l.acquire(t(2), obj(1, 0), ObjMode::S, false),
            LocalDecision::BlockedByCallback
        );
        // Transaction ends: the callback completes.
        let completions = l.end_txn(t(1));
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].0, CallbackKind::ReleaseObject(obj(1, 0)));
        assert_eq!(l.cached_mode(obj(1, 0)), None);
    }

    #[test]
    fn downgrade_callback_defers_only_on_x_use() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.end_txn(t(1));
        // Reader uses it in S: downgrade X->S can proceed immediately.
        assert_eq!(
            l.acquire(t(2), obj(1, 0), ObjMode::S, false),
            LocalDecision::LocallyGranted
        );
        let r = l.handle_callback(CallbackKind::DowngradeObject(obj(1, 0)));
        assert_eq!(r, CallbackReply::Done { retained: vec![] });
        assert_eq!(l.cached_mode(obj(1, 0)), Some(ObjMode::S));
    }

    #[test]
    fn deescalation_retains_in_use_objects() {
        let mut l = LlmCore::new(LockGranularity::Adaptive, UpdatePolicy::MergeCopies);
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::PageAdaptive(PageId(1), ObjMode::X, obj(1, 0)),
        );
        // txn also reads object 2 via the page lock.
        assert_eq!(
            l.acquire(t(1), obj(1, 2), ObjMode::S, false),
            LocalDecision::LocallyGranted
        );
        let r = l.handle_callback(CallbackKind::DeEscalatePage(PageId(1)));
        assert_eq!(
            r,
            CallbackReply::Done {
                retained: vec![(obj(1, 0), ObjMode::X), (obj(1, 2), ObjMode::S)]
            }
        );
        // Page lock gone, object locks remain.
        assert_eq!(l.cached_mode(obj(1, 0)), Some(ObjMode::X));
        assert_eq!(l.cached_mode(obj(1, 2)), Some(ObjMode::S));
        assert_eq!(l.cached_mode(obj(1, 9)), None);
    }

    #[test]
    fn release_page_defers_on_any_use() {
        let mut l = LlmCore::new(LockGranularity::Page, UpdatePolicy::MergeCopies);
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::S,
            LockTarget::Page(PageId(1), ObjMode::S),
        );
        let r = l.handle_callback(CallbackKind::ReleasePage(PageId(1)));
        assert_eq!(
            r,
            CallbackReply::Deferred {
                blockers: vec![t(1)]
            }
        );
        let completions = l.end_txn(t(1));
        assert_eq!(completions.len(), 1);
        assert!(!l.holds_any_on_page(PageId(1)));
    }

    #[test]
    fn crash_clear_and_reinstall() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.global_granted(
            t(1),
            obj(2, 0),
            ObjMode::S,
            LockTarget::Object(obj(2, 0), ObjMode::S),
        );
        l.clear();
        assert_eq!(l.cached_mode(obj(1, 0)), None);
        l.reinstall_exclusive(&[
            LockTarget::Object(obj(1, 0), ObjMode::X),
            LockTarget::Page(PageId(3), ObjMode::X),
        ]);
        assert_eq!(l.cached_mode(obj(1, 0)), Some(ObjMode::X));
        assert_eq!(l.cached_mode(obj(3, 7)), Some(ObjMode::X));
    }

    #[test]
    fn all_locks_reports_everything() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.global_granted(
            t(1),
            obj(2, 0),
            ObjMode::S,
            LockTarget::Page(PageId(2), ObjMode::S),
        );
        let locks = l.all_locks();
        assert_eq!(locks.len(), 2);
        assert!(locks.contains(&LockTarget::Object(obj(1, 0), ObjMode::X)));
        assert!(locks.contains(&LockTarget::Page(PageId(2), ObjMode::S)));
    }

    #[test]
    fn inflight_request_defers_callbacks() {
        let mut l = llm();
        // txn 1 has an X request in flight for object (1,0): a release
        // callback racing the grant must defer, not comply.
        l.begin_global_request(t(1), LockTarget::Object(obj(1, 0), ObjMode::X));
        let r = l.handle_callback(CallbackKind::ReleaseObject(obj(1, 0)));
        assert_eq!(
            r,
            CallbackReply::Deferred {
                blockers: vec![t(1)]
            }
        );
        // Grant lands; usage registered; request concluded.
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::X,
            LockTarget::Object(obj(1, 0), ObjMode::X),
        );
        l.end_global_request(t(1));
        // Transaction ends: the deferred callback now completes.
        let completions = l.end_txn(t(1));
        assert_eq!(completions.len(), 1);
        assert_eq!(l.cached_mode(obj(1, 0)), None);
    }

    #[test]
    fn inflight_on_other_object_does_not_defer() {
        let mut l = llm();
        l.global_granted(
            t(9),
            obj(1, 1),
            ObjMode::X,
            LockTarget::Object(obj(1, 1), ObjMode::X),
        );
        l.end_txn(t(9));
        l.begin_global_request(t(1), LockTarget::Object(obj(1, 0), ObjMode::X));
        // Callback for a different slot: unaffected by the in-flight
        // request.
        let r = l.handle_callback(CallbackKind::ReleaseObject(obj(1, 1)));
        assert_eq!(r, CallbackReply::Done { retained: vec![] });
    }

    #[test]
    fn inflight_page_request_defers_page_callbacks() {
        let mut l = LlmCore::new(LockGranularity::Page, UpdatePolicy::MergeCopies);
        l.begin_global_request(t(1), LockTarget::Page(PageId(1), ObjMode::X));
        let r = l.handle_callback(CallbackKind::ReleasePage(PageId(1)));
        assert_eq!(
            r,
            CallbackReply::Deferred {
                blockers: vec![t(1)]
            }
        );
        // S-mode inflight does not block a downgrade.
        let mut l2 = LlmCore::new(LockGranularity::Page, UpdatePolicy::MergeCopies);
        l2.begin_global_request(t(2), LockTarget::Page(PageId(1), ObjMode::S));
        let r = l2.handle_callback(CallbackKind::DowngradePage(PageId(1)));
        assert_eq!(r, CallbackReply::Done { retained: vec![] });
    }

    #[test]
    fn deferred_callback_with_two_blockers_waits_for_both() {
        let mut l = llm();
        l.global_granted(
            t(1),
            obj(1, 0),
            ObjMode::S,
            LockTarget::Object(obj(1, 0), ObjMode::S),
        );
        l.acquire(t(2), obj(1, 0), ObjMode::S, false);
        let r = l.handle_callback(CallbackKind::ReleaseObject(obj(1, 0)));
        assert_eq!(
            r,
            CallbackReply::Deferred {
                blockers: vec![t(1), t(2)]
            }
        );
        assert!(l.end_txn(t(1)).is_empty(), "t2 still blocks");
        let completions = l.end_txn(t(2));
        assert_eq!(completions.len(), 1);
    }
}
