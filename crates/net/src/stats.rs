//! Message accounting and latency injection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every logical message kind the protocol exchanges. The experiment
/// harness reports per-kind counts (E3 compares merge vs. update-token by
/// exactly these numbers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Client → server lock request.
    LockReq = 0,
    /// Server → client lock reply (grant/abort), including parked grants.
    /// A grant carries the locked page in its wire form (`Page::to_wire`:
    /// no free gap), counted in its bytes: 24 plus the page's `wire_len`.
    LockReply = 1,
    /// Server → client callback request.
    Callback = 2,
    /// Client → server callback reply (immediate or deferral notice).
    CallbackReply = 3,
    /// Client → server completion of a previously deferred callback.
    CallbackComplete = 4,
    /// Client → server page fetch request.
    FetchPage = 5,
    /// A page copy crossing the wire on its own, either direction,
    /// counted at the length of its wire form (`Page::to_wire`), not the
    /// page size. A copy riding on a callback reply, a completion or a
    /// lock grant counts with that message.
    PageShip = 6,
    /// Client → server request to force a page to disk (§3.6).
    ForcePage = 7,
    /// Server → client page-flushed notification (DPT maintenance, §3.6).
    FlushNotify = 8,
    /// Client → server log records shipped at commit (server-logging
    /// baselines, §4.1).
    CommitLogShip = 9,
    /// Server → client abort demand (deadlock victim).
    Abort = 10,
    /// Any restart-recovery coordination message (§3.3–§3.5).
    Recovery = 11,
    /// Registration and other control traffic.
    Control = 12,
}

const KINDS: usize = 13;

const KIND_NAMES: [&str; KINDS] = [
    "lock_req",
    "lock_reply",
    "callback",
    "callback_reply",
    "callback_complete",
    "fetch_page",
    "page_ship",
    "force_page",
    "flush_notify",
    "commit_log_ship",
    "abort",
    "recovery",
    "control",
];

/// Atomic per-kind message and byte counters.
#[derive(Default)]
pub struct NetStats {
    counts: [AtomicU64; KINDS],
    bytes: [AtomicU64; KINDS],
}

/// A point-in-time copy of the counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub counts: [u64; KINDS],
    pub bytes: [u64; KINDS],
}

impl NetSnapshot {
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind as usize]
    }

    pub fn kind_name(i: usize) -> &'static str {
        KIND_NAMES[i]
    }

    /// Element-wise difference (for measuring an interval).
    pub fn delta_since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        let mut out = NetSnapshot::default();
        for i in 0..KINDS {
            out.counts[i] = self.counts[i] - earlier.counts[i];
            out.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        out
    }

    /// Element-wise sum (folding per-partition wire stats into a
    /// system-wide view).
    pub fn merge(&self, other: &NetSnapshot) -> NetSnapshot {
        let mut out = NetSnapshot::default();
        for i in 0..KINDS {
            out.counts[i] = self.counts[i] + other.counts[i];
            out.bytes[i] = self.bytes[i] + other.bytes[i];
        }
        out
    }
}

impl NetStats {
    pub fn record(&self, kind: MsgKind, bytes: usize) {
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.bytes[kind as usize].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> NetSnapshot {
        let mut s = NetSnapshot::default();
        for i in 0..KINDS {
            s.counts[i] = self.counts[i].load(Ordering::Relaxed);
            s.bytes[i] = self.bytes[i].load(Ordering::Relaxed);
        }
        s
    }
}

/// The shared fabric: counters plus one-way latency injection. One
/// instance per simulated network; both the server and every client hold
/// an `Arc<NetSim>`.
pub struct NetSim {
    pub stats: NetStats,
    latency: Duration,
}

impl NetSim {
    pub fn new(latency: Duration) -> Self {
        NetSim {
            stats: NetStats::default(),
            latency,
        }
    }

    /// Account for one logical message and pay its delivery latency.
    pub fn msg(&self, kind: MsgKind, bytes: usize) {
        self.stats.record(kind, bytes);
        if !self.latency.is_zero() {
            // The span wraps only the simulated wire time; counting
            // happened above, so tracing never perturbs message counts.
            let _hop = fgl_obs::trace::span(fgl_obs::SpanKind::NetHop, fgl_common::TxnId(0));
            fgl_sched::pause(self.latency);
        }
    }

    pub fn snapshot(&self) -> NetSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let sim = NetSim::new(Duration::ZERO);
        sim.msg(MsgKind::LockReq, 32);
        sim.msg(MsgKind::LockReq, 32);
        sim.msg(MsgKind::PageShip, 4096);
        let s = sim.snapshot();
        assert_eq!(s.count(MsgKind::LockReq), 2);
        assert_eq!(s.count(MsgKind::PageShip), 1);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 64 + 4096);
    }

    #[test]
    fn delta_isolates_an_interval() {
        let sim = NetSim::new(Duration::ZERO);
        sim.msg(MsgKind::Callback, 16);
        let before = sim.snapshot();
        sim.msg(MsgKind::Callback, 16);
        sim.msg(MsgKind::Abort, 8);
        let delta = sim.snapshot().delta_since(&before);
        assert_eq!(delta.count(MsgKind::Callback), 1);
        assert_eq!(delta.count(MsgKind::Abort), 1);
        assert_eq!(delta.total_messages(), 2);
    }

    #[test]
    fn kind_names_cover_all() {
        for i in 0..13 {
            assert!(!NetSnapshot::kind_name(i).is_empty());
        }
    }
}
