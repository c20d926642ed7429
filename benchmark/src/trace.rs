//! The traced run's recorder: spans taken by the benchmark's own
//! decorators around calls into the product's public seams. The product's
//! tracing stays off; nothing here is compiled into it.
//!
//! A span knows its kind, start, end and the span that caused it. The
//! causing span travels in `fgl_sched::trace_tag` (thread-local on an OS
//! thread, task-local on a green task, inherited by `fanout` subtasks), so
//! a callback delivered deep inside `ServerCore::lock` nests under the
//! `client.write` that asked for the lock without the product passing
//! anything along. The top 16 bits of a span id name the collector its
//! tree is gathered in (one per driver client, plus one for spans that
//! start with no cause: socket-server request threads, reader threads).
//!
//! When a transaction ends, its tree is folded into per-kind sums (self
//! time = span minus the union of its children) and dropped; the first
//! `KEEP_TREES` per client are kept whole for the Chrome-trace dump.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::Hist;
use crate::sys::now_ns;

macro_rules! kinds {
    ($($variant:ident => $name:literal,)*) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Kind { $($variant,)* }
        pub const KIND_NAMES: &[&str] = &[$($name,)*];
    };
}

kinds! {
    Txn => "bench.driver",
    Begin => "client.begin",
    Read => "client.read",
    Write => "client.write",
    Commit => "client.commit",
    SrvLock => "server.lock",
    SrvFetch => "server.fetch_page",
    SrvShip => "server.ship_page",
    SrvCbComplete => "server.callback_complete",
    SrvForcePage => "server.force_page",
    SrvOther => "server.other",
    RpcLock => "rpc.lock",
    RpcPage => "rpc.page",
    RpcOther => "rpc.other",
    Callback => "client.callback",
    PeerOther => "client.peer_other",
    LogAppend => "wal.store_append",
    LogForce => "wal.store_force",
    LogOther => "wal.store_other",
    DiskRead => "storage.disk_read",
    DiskWrite => "storage.disk_write",
    DiskSync => "storage.disk_sync",
}

pub const NK: usize = KIND_NAMES.len();
pub const KEEP_TREES: usize = 200;
const SLOT_SHIFT: u32 = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
    pub kind: u8,
}

/// Per-kind sums over folded trees.
#[derive(Clone, Default)]
pub struct Fold {
    pub self_ns: [u64; NK],
    pub total_ns: [u64; NK],
    pub count: [u64; NK],
    /// Sum of the root (transaction) spans' durations.
    pub root_ns: u64,
    /// Sum of the self times of every span reachable from a root.
    pub closed_ns: u64,
    pub trees: u64,
    /// Spans whose cause was not in their tree (counted in the per-kind
    /// sums, not in `closed_ns`).
    pub orphans: u64,
    /// Durations of the `client.commit` spans.
    pub commit_hist: Hist,
}

impl Fold {
    pub fn merge(&mut self, o: &Fold) {
        for k in 0..NK {
            self.self_ns[k] += o.self_ns[k];
            self.total_ns[k] += o.total_ns[k];
            self.count[k] += o.count[k];
        }
        self.root_ns += o.root_ns;
        self.closed_ns += o.closed_ns;
        self.trees += o.trees;
        self.orphans += o.orphans;
        self.commit_hist.merge(&o.commit_hist);
    }

    pub fn mean_self_ns(&self, k: Kind) -> f64 {
        ratio(self.self_ns[k as usize], self.count[k as usize])
    }

    pub fn mean_total_ns(&self, k: Kind) -> f64 {
        ratio(self.total_ns[k as usize], self.count[k as usize])
    }

    pub fn count(&self, k: Kind) -> u64 {
        self.count[k as usize]
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Length of the union of `spans` (start, end), each clipped to
/// `[lo, hi]`. Sorts `spans` in place.
fn covered(spans: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Fold the spans of one tree into `out`. `root` is the id of the
/// transaction span, or 0 when the spans have no common root (the
/// no-cause collector): then every span without a known parent is its
/// own root and nothing counts toward closure.
pub fn fold_tree(recs: &[SpanRec], root: u64, out: &mut Fold) {
    let index: HashMap<u64, usize> = recs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(&p) = index.get(&r.parent) {
            children[p].push((r.start, r.end));
        }
    }
    // Reachable from the root: the root itself, and any span whose parent
    // is reachable. Spans arrive in closing order (children first), so
    // walk parents instead of relying on order.
    let reachable = |mut i: usize| -> bool {
        for _ in 0..recs.len() + 1 {
            if recs[i].id == root {
                return true;
            }
            match index.get(&recs[i].parent) {
                Some(&p) => i = p,
                None => return false,
            }
        }
        false
    };
    for (i, r) in recs.iter().enumerate() {
        let dur = r.end.saturating_sub(r.start);
        let own = dur - covered(&mut children[i], r.start, r.end).min(dur);
        let k = r.kind as usize;
        out.self_ns[k] += own;
        out.total_ns[k] += dur;
        out.count[k] += 1;
        if k == Kind::Commit as usize {
            out.commit_hist.record(dur);
        }
        if r.id == root {
            out.root_ns += dur;
            out.trees += 1;
        }
        if root != 0 && reachable(i) {
            out.closed_ns += own;
        } else if r.id != root && !index.contains_key(&r.parent) && root != 0 {
            out.orphans += 1;
        }
    }
}

struct Collector {
    open: Vec<SpanRec>,
    fold: Fold,
    kept: Vec<Vec<SpanRec>>,
}

/// The recorder shared by the driver and the four decorators.
pub struct Tracer {
    /// Spans are taken only while this is set: the timed burst of a
    /// decorated round, not its set-up, warm-up or read-back.
    on: AtomicBool,
    next: AtomicU64,
    /// One per driver client; the last one gathers spans with no cause.
    collectors: Vec<Mutex<Collector>>,
    pub callbacks: AtomicU64,
    pub deescalations: AtomicU64,
}

/// An open span; closes (and restores the causing span) on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    rec: SpanRec,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.rec.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.end = now_ns();
        fgl_sched::set_trace_tag(self.rec.parent);
        let slot = (self.rec.id >> SLOT_SHIFT) as usize - 1;
        self.tracer.collector(slot).open.push(self.rec);
    }
}

impl Tracer {
    pub fn new(clients: usize) -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            next: AtomicU64::new(1),
            collectors: (0..=clients)
                .map(|_| {
                    Mutex::new(Collector {
                        open: Vec::new(),
                        fold: Fold::default(),
                        kept: Vec::new(),
                    })
                })
                .collect(),
            callbacks: AtomicU64::new(0),
            deescalations: AtomicU64::new(0),
        }
    }

    fn collector(&self, slot: usize) -> std::sync::MutexGuard<'_, Collector> {
        self.collectors[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn no_cause_slot(&self) -> usize {
        self.collectors.len() - 1
    }

    fn open(&self, kind: Kind, slot: usize, parent: u64) -> SpanGuard<'_> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let id = ((slot as u64 + 1) << SLOT_SHIFT) | seq;
        fgl_sched::set_trace_tag(id);
        SpanGuard {
            tracer: self,
            rec: SpanRec {
                id,
                parent,
                start: now_ns(),
                end: 0,
                kind: kind as u8,
            },
        }
    }

    /// Start or stop taking spans.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Open a span caused by whatever span is current in this thread or
    /// task (none: the span goes to the no-cause collector). `None` while
    /// the tracer is off.
    pub fn span(&self, kind: Kind) -> Option<SpanGuard<'_>> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        let parent = fgl_sched::trace_tag();
        let slot = match parent >> SLOT_SHIFT {
            0 => self.no_cause_slot(),
            s => s as usize - 1,
        };
        Some(self.open(kind, slot, parent))
    }

    /// Open the root span of one of `client`'s transactions.
    pub fn txn(&self, client: usize) -> SpanGuard<'_> {
        self.open(Kind::Txn, client, 0)
    }

    /// The transaction whose root span had id `root` has ended (its guard
    /// is dropped): fold its tree and forget it.
    pub fn end_txn(&self, client: usize, root: u64) {
        let mut c = self.collector(client);
        let recs = std::mem::take(&mut c.open);
        fold_tree(&recs, root, &mut c.fold);
        if c.kept.len() < KEEP_TREES {
            c.kept.push(recs);
        } else {
            // Hand the buffer back so the next tree reuses its capacity.
            let mut recs = recs;
            recs.clear();
            c.open = recs;
        }
    }

    /// Fold what the no-cause collector holds, then sum every collector.
    /// `txns` is everything gathered under a transaction, `loose` the rest.
    pub fn totals(&self) -> (Fold, Fold) {
        let last = self.no_cause_slot();
        {
            let mut c = self.collector(last);
            let recs = std::mem::take(&mut c.open);
            fold_tree(&recs, 0, &mut c.fold);
        }
        let mut txns = Fold::default();
        for slot in 0..last {
            txns.merge(&self.collector(slot).fold);
        }
        (txns, self.collector(last).fold.clone())
    }

    /// Chrome trace-event JSON (loads in Perfetto) of the kept trees.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        for (slot, c) in self.collectors.iter().enumerate() {
            let c = c.lock().unwrap_or_else(|e| e.into_inner());
            for (n, tree) in c.kept.iter().enumerate() {
                for r in tree {
                    if !first {
                        out.push_str(",\n");
                    }
                    first = false;
                    out.push_str(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"fgl\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"txn\":{},\"id\":{},\"parent\":{}}}}}",
                        KIND_NAMES[r.kind as usize],
                        slot + 1,
                        r.start as f64 / 1e3,
                        r.end.saturating_sub(r.start) as f64 / 1e3,
                        n,
                        r.id,
                        r.parent
                    ));
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start: u64, end: u64, kind: Kind) -> SpanRec {
        SpanRec {
            id,
            parent,
            start,
            end,
            kind: kind as u8,
        }
    }

    #[test]
    fn nested_spans_fold_to_self_times_that_close() {
        // txn [0,100] > write [10,60] > lock [20,50] > callback [25,35];
        //              > commit [70,95] > force [80,90]
        let recs = [
            rec(4, 3, 25, 35, Kind::Callback),
            rec(3, 2, 20, 50, Kind::SrvLock),
            rec(2, 1, 10, 60, Kind::Write),
            rec(6, 5, 80, 90, Kind::LogForce),
            rec(5, 1, 70, 95, Kind::Commit),
            rec(1, 0, 0, 100, Kind::Txn),
        ];
        let mut f = Fold::default();
        fold_tree(&recs, 1, &mut f);
        assert_eq!(f.self_ns[Kind::Txn as usize], 100 - 50 - 25);
        assert_eq!(f.self_ns[Kind::Write as usize], 50 - 30);
        assert_eq!(f.self_ns[Kind::SrvLock as usize], 30 - 10);
        assert_eq!(f.self_ns[Kind::Callback as usize], 10);
        assert_eq!(f.self_ns[Kind::Commit as usize], 25 - 10);
        assert_eq!(f.self_ns[Kind::LogForce as usize], 10);
        assert_eq!(f.total_ns[Kind::Write as usize], 50);
        assert_eq!(
            (f.root_ns, f.closed_ns, f.trees, f.orphans),
            (100, 100, 1, 0)
        );
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two callbacks delivered in parallel overlap inside one lock call;
        // a third sticks out past its parent's end and is clipped.
        let recs = [
            rec(3, 2, 10, 40, Kind::Callback),
            rec(4, 2, 30, 60, Kind::Callback),
            rec(5, 2, 85, 120, Kind::Callback),
            rec(2, 1, 0, 90, Kind::SrvLock),
            rec(1, 0, 0, 100, Kind::Txn),
        ];
        let mut f = Fold::default();
        fold_tree(&recs, 1, &mut f);
        // Union of children within [0,90]: [10,60] and [85,90] = 55.
        assert_eq!(f.self_ns[Kind::SrvLock as usize], 90 - 55);
        assert_eq!(f.self_ns[Kind::Callback as usize], 30 + 30 + 35);
        assert_eq!(f.count[Kind::Callback as usize], 3);
        assert_eq!(f.self_ns[Kind::Txn as usize], 10);
        // Parallel work makes the self times sum to more than the root.
        assert!(f.closed_ns > f.root_ns);
    }

    #[test]
    fn spans_without_their_cause_are_orphans_not_closure() {
        let recs = [
            rec(9, 77, 5, 15, Kind::DiskWrite), // cause 77 is not here
            rec(2, 1, 20, 30, Kind::Read),
            rec(1, 0, 0, 40, Kind::Txn),
        ];
        let mut f = Fold::default();
        fold_tree(&recs, 1, &mut f);
        assert_eq!(f.orphans, 1);
        assert_eq!(f.self_ns[Kind::DiskWrite as usize], 10);
        assert_eq!((f.root_ns, f.closed_ns), (40, 40));

        // The no-cause collector: no root, nothing closes, nothing orphaned.
        let mut g = Fold::default();
        fold_tree(&recs[..1], 0, &mut g);
        assert_eq!(
            (g.count[Kind::DiskWrite as usize], g.closed_ns, g.orphans),
            (1, 0, 0)
        );
    }

    #[test]
    fn recorder_builds_one_tree_per_transaction_through_the_trace_tag() {
        let t = Tracer::new(2);
        assert!(t.span(Kind::Read).is_none(), "off until switched on");
        t.set_on(true);
        let root = {
            let txn = t.txn(1);
            let id = txn.id();
            {
                let _w = t.span(Kind::Write);
                let _l = t.span(Kind::SrvLock);
            }
            let _c = t.span(Kind::Commit);
            id
        };
        assert_eq!(fgl_sched::trace_tag(), 0);
        t.end_txn(1, root);
        let _loose = t.span(Kind::SrvFetch);
        drop(_loose);
        let (txns, loose) = t.totals();
        assert_eq!(txns.trees, 1);
        assert_eq!(txns.count(Kind::Write), 1);
        assert_eq!(txns.count(Kind::SrvLock), 1);
        assert_eq!(txns.count(Kind::Commit), 1);
        assert_eq!(txns.closed_ns, txns.root_ns);
        assert_eq!(loose.count(Kind::SrvFetch), 1);
        let json = t.chrome_json();
        assert!(json.contains("\"client.write\"") && json.ends_with("]}\n"));
    }

    #[test]
    fn kind_names_are_metric_safe() {
        assert_eq!(KIND_NAMES[Kind::DiskSync as usize], "storage.disk_sync");
        for n in KIND_NAMES {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
