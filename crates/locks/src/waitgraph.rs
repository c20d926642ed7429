//! The **waits-for graph** backing distributed deadlock detection.
//!
//! Each server instance's [`GlmCore`](crate::glm::GlmCore) writes its
//! waits-for edges here rather than keeping them private, because in a
//! multi-instance page service a deadlock cycle can thread through pages
//! living on *different* instances (txn A waits on a page of instance 0
//! while txn B waits on a page of instance 1): the
//! [`DeadlockCoordinator`] merges every instance's graph and runs the
//! cycle search over the union. A single server searches its own graph.
//! Two kinds of edge:
//!
//! * **deferral edges** — waiter txn → blocking txns named in deferred
//!   callback replies — are written directly;
//! * **queue edges** — a waiter behind an earlier conflicting waiter in a
//!   page's FIFO queue waits for that waiter's transaction — are
//!   *republished per page* whenever the GLM mutates that page's waiter
//!   queue. A page maps to exactly one instance, so publications never
//!   race on the same key.
//!
//! Locking discipline: a server always acquires its own lock-table mutex
//! **before** touching the graph, and the graph never calls back into a
//! server — the ordering `glm → graph` is acyclic, so detection adds no
//! deadlock risk of its own. The victim policy is the youngest cycle
//! member, by `(local_seq, raw id)`.

use crate::coordinator::DeadlockCoordinator;
use fgl_common::{PageId, TxnId};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Inner {
    /// Stored deferral edges: waiting txn → blocking txns.
    deferral: HashMap<TxnId, HashSet<TxnId>>,
    /// Queue-order edges, keyed by the page whose waiter queue induced
    /// them (waiter txn → earlier conflicting waiter's txn).
    queue: HashMap<PageId, Vec<(TxnId, TxnId)>>,
}

/// Waits-for graph. One per server instance, shared between its GLM and
/// (in a multi-instance system) the coordinator through an `Arc`.
#[derive(Default)]
pub struct WaitGraph {
    inner: Mutex<Inner>,
    /// When this graph belongs to one instance of a multi-server system,
    /// cycle searches delegate to the coordinator's merged adjacency.
    /// Stored outside `inner` so it survives [`WaitGraph::clear`] across
    /// a server crash.
    coordinator: OnceLock<Arc<DeadlockCoordinator>>,
}

/// The youngest-victim cycle search shared by the single-instance graph
/// and the cross-instance coordinator: DFS from `start` over `adj`; on a
/// cycle through `start`, pick the youngest member (largest local
/// sequence, tie-broken by raw id).
pub(crate) fn victim_in(adj: &HashMap<TxnId, HashSet<TxnId>>, start: TxnId) -> Option<TxnId> {
    let mut stack = vec![(start, vec![start])];
    let mut visited: HashSet<TxnId> = HashSet::new();
    while let Some((node, path)) = stack.pop() {
        if let Some(nexts) = adj.get(&node) {
            for &n in nexts {
                if n == start {
                    return path.iter().copied().max_by_key(|t| (t.local_seq(), t.0));
                }
                if visited.insert(n) {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push((n, p));
                }
            }
        }
    }
    None
}

impl WaitGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record deferral edges `txn → b` for every blocker (self-edges are
    /// dropped).
    pub fn add_deferrals(&self, txn: TxnId, blockers: &[TxnId]) {
        let mut inner = self.inner.lock();
        let e = inner.deferral.entry(txn).or_default();
        for b in blockers {
            if *b != txn {
                e.insert(*b);
            }
        }
        drop(inner);
        self.bump();
    }

    /// A queued request was granted: the txn no longer waits, so its
    /// outgoing deferral edges go away (it may still block others).
    pub fn remove_waiter_row(&self, txn: TxnId) {
        self.inner.lock().deferral.remove(&txn);
        self.bump();
    }

    /// Forget a transaction entirely (abort, timeout, deadlock victim):
    /// drop its outgoing edges and remove it from every blocker set.
    pub fn forget_txn(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        inner.deferral.remove(&txn);
        for edges in inner.deferral.values_mut() {
            edges.remove(&txn);
        }
        drop(inner);
        self.bump();
    }

    /// Replace the queue edges contributed by `page` (the owning GLM
    /// calls this after any waiter-queue change; an empty list clears the
    /// page's contribution).
    pub fn publish_queue_edges(&self, page: PageId, edges: Vec<(TxnId, TxnId)>) {
        let mut inner = self.inner.lock();
        if edges.is_empty() {
            inner.queue.remove(&page);
        } else {
            inner.queue.insert(page, edges);
        }
        drop(inner);
        self.bump();
    }

    /// Find a deadlock victim for a cycle through `start`. Standalone,
    /// the search runs over this graph's own edges; attached to a
    /// [`DeadlockCoordinator`], it runs over the merged adjacency of
    /// every member instance so cycles spanning servers are caught by
    /// the same youngest-victim policy.
    pub fn find_victim(&self, start: TxnId) -> Option<TxnId> {
        if let Some(coord) = self.coordinator.get() {
            return coord.find_victim(start);
        }
        let mut graph = HashMap::new();
        self.export_edges_into(&mut graph);
        victim_in(&graph, start)
    }

    /// Union this graph's deferral and queue edges into `adj` (the
    /// coordinator's merge step; also the local search's snapshot).
    pub(crate) fn export_edges_into(&self, adj: &mut HashMap<TxnId, HashSet<TxnId>>) {
        let inner = self.inner.lock();
        for (&from, tos) in &inner.deferral {
            adj.entry(from).or_default().extend(tos.iter().copied());
        }
        for edges in inner.queue.values() {
            for &(from, to) in edges {
                adj.entry(from).or_default().insert(to);
            }
        }
    }

    /// Join a multi-server system's merged cycle search. Idempotent;
    /// only the first attachment sticks.
    pub(crate) fn attach_coordinator(&self, coord: Arc<DeadlockCoordinator>) {
        let _ = self.coordinator.set(coord);
    }

    /// Drop every edge — a server crash wipes all volatile lock state,
    /// the graph included. The coordinator attachment survives: the
    /// restarted instance re-joins the merged search with an empty
    /// contribution.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.deferral.clear();
        inner.queue.clear();
        drop(inner);
        self.bump();
    }

    fn bump(&self) {
        if let Some(coord) = self.coordinator.get() {
            coord.bump_epoch();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::ClientId;

    fn t(c: u32, seq: u32) -> TxnId {
        TxnId::compose(ClientId(c), seq)
    }

    #[test]
    fn no_edges_no_victim() {
        let g = WaitGraph::new();
        assert_eq!(g.find_victim(t(1, 1)), None);
    }

    #[test]
    fn deferral_cycle_picks_youngest() {
        let g = WaitGraph::new();
        g.add_deferrals(t(1, 10), &[t(2, 99)]);
        g.add_deferrals(t(2, 99), &[t(1, 10)]);
        assert_eq!(g.find_victim(t(1, 10)), Some(t(2, 99)));
    }

    #[test]
    fn cycle_spanning_deferral_and_queue_edges() {
        let g = WaitGraph::new();
        // t1 -> t2 via a deferral, t2 -> t1 via a queue edge on another
        // page.
        g.add_deferrals(t(1, 5), &[t(2, 7)]);
        g.publish_queue_edges(PageId(9), vec![(t(2, 7), t(1, 5))]);
        assert_eq!(g.find_victim(t(1, 5)), Some(t(2, 7)));
    }

    #[test]
    fn forget_breaks_cycle() {
        let g = WaitGraph::new();
        g.add_deferrals(t(1, 1), &[t(2, 2)]);
        g.add_deferrals(t(2, 2), &[t(1, 1)]);
        g.forget_txn(t(2, 2));
        assert_eq!(g.find_victim(t(1, 1)), None);
    }

    #[test]
    fn republish_replaces_page_contribution() {
        let g = WaitGraph::new();
        g.publish_queue_edges(PageId(1), vec![(t(1, 1), t(2, 2))]);
        g.add_deferrals(t(2, 2), &[t(1, 1)]);
        assert!(g.find_victim(t(1, 1)).is_some());
        g.publish_queue_edges(PageId(1), Vec::new());
        assert_eq!(g.find_victim(t(1, 1)), None);
    }
}
