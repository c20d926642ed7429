//! The metrics registry: named counters plus one latency histogram per
//! [`HistKind`], snapshotted into a [`Snapshot`] that supports interval
//! deltas, JSON export and aligned-table rendering.
//!
//! Durations are measured through a pluggable [`Clock`] so tests can
//! advance time manually and assert exact histogram contents.

use crate::hist::{bucket_bounds, HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The latency distributions the system tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistKind {
    /// Client-side wait from lock request to grant (§3.2).
    LockWait,
    /// Full commit path: force private log, ship pages, server ack.
    Commit,
    /// Server-side callback round trip: issued → completed (§3.2).
    CallbackRoundTrip,
    /// A log force (client private log or server log). A group force's
    /// leader times it from the reading it took as it began to wait for
    /// durability, when it led on its first look at the log.
    LogForce,
    /// Client page fetch from the server.
    PageFetch,
    /// Server-side merge of an incoming page copy (§3.1).
    Merge,
    /// Group commit: time a committer waits for its commit record to
    /// become durable — bimodal by design (piggybacked ≈ 0, forced ≈
    /// one log-force).
    GroupCommit,
    /// Socket-transport request round trip: frame written → reply frame
    /// routed back (E17). Empty under the in-process sim fabric.
    WireRtt,
}

/// All kinds, in display order.
pub const HIST_KINDS: [HistKind; 8] = [
    HistKind::LockWait,
    HistKind::Commit,
    HistKind::CallbackRoundTrip,
    HistKind::LogForce,
    HistKind::PageFetch,
    HistKind::Merge,
    HistKind::GroupCommit,
    HistKind::WireRtt,
];

impl HistKind {
    /// Stable snake_case name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            HistKind::LockWait => "lock_wait_us",
            HistKind::Commit => "commit_us",
            HistKind::CallbackRoundTrip => "callback_rtt_us",
            HistKind::LogForce => "log_force_us",
            HistKind::PageFetch => "page_fetch_us",
            HistKind::Merge => "merge_us",
            HistKind::GroupCommit => "commit_group_wait_us",
            HistKind::WireRtt => "wire_rtt_us",
        }
    }

    fn index(self) -> usize {
        match self {
            HistKind::LockWait => 0,
            HistKind::Commit => 1,
            HistKind::CallbackRoundTrip => 2,
            HistKind::LogForce => 3,
            HistKind::PageFetch => 4,
            HistKind::Merge => 5,
            HistKind::GroupCommit => 6,
            HistKind::WireRtt => 7,
        }
    }
}

/// Time source for duration measurements. The registry never reads wall
/// time directly, so a [`ManualClock`] makes histogram tests exact.
pub trait Clock: Send + Sync {
    /// Monotonic microseconds since an arbitrary epoch.
    fn now_us(&self) -> u64;
}

/// Default clock: the process timeline ([`crate::now_us`]) that stamps
/// flight-recorder entries, so a reading taken to time an interval can
/// also stamp the event that reports it ([`crate::emit_at`]).
#[derive(Default)]
pub struct MonoClock;

impl Clock for MonoClock {
    #[inline]
    fn now_us(&self) -> u64 {
        crate::now_us()
    }
}

/// Test clock advanced explicitly by the caller.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn advance_us(&self, delta: u64) {
        self.now.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// A named counter resolved once ([`Metrics::counter`]): adding to it is
/// one relaxed atomic add, with no registry lock and no name look-up. The
/// value shows in snapshots under the name it was registered with.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }
}

/// The registry: one histogram per [`HistKind`], a dynamic set of named
/// counters and named histograms, one clock. Shared via `Arc` between
/// server, clients and the WAL managers.
///
/// The fixed [`HistKind`] histograms cover the always-on hot paths (no
/// allocation, no map lookup); the *named* histograms carry
/// strategy-keyed series such as `recovery_phase_us_<strategy>_<phase>`,
/// where the key set is not known at compile time.
pub struct Metrics {
    hists: [Histogram; HIST_KINDS.len()],
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    named_hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
    clock: Box<dyn Clock>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Registry with the monotonic wall clock.
    pub fn new() -> Metrics {
        Metrics::with_clock(Box::new(MonoClock))
    }

    /// Registry with an explicit clock (tests use [`ManualClock`]).
    pub fn with_clock(clock: Box<dyn Clock>) -> Metrics {
        Metrics {
            hists: Default::default(),
            counters: RwLock::new(BTreeMap::new()),
            named_hists: RwLock::new(BTreeMap::new()),
            clock,
        }
    }

    /// Current clock reading; pair with [`Metrics::observe_since`].
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Record a duration already measured by the caller.
    pub fn observe(&self, kind: HistKind, micros: u64) {
        self.hists[kind.index()].record(micros);
    }

    /// Record the elapsed time since `start_us` (a prior [`Metrics::now_us`]).
    /// Returns the end reading it took, for the caller to reuse as the
    /// next interval's start or an event's stamp.
    pub fn observe_since(&self, kind: HistKind, start_us: u64) -> u64 {
        let end = self.now_us();
        self.observe(kind, end.saturating_sub(start_us));
        end
    }

    /// Add to a named counter, creating it on first use. Cold paths only:
    /// every call takes the registry lock and looks the name up; a hot
    /// path holds a [`Counter`] instead.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        self.counter(name).add(delta);
    }

    /// The counter registered under `name` (created at zero on first use),
    /// as a handle that bypasses the registry on every later add.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.write().unwrap();
        Counter(Arc::clone(counters.entry(name.to_string()).or_default()))
    }

    /// Record into a named histogram, creating it on first use. For
    /// series whose key set is only known at runtime (e.g. keyed by the
    /// configured logging strategy); hot paths use the fixed
    /// [`HistKind`] histograms instead.
    pub fn observe_named(&self, name: &str, micros: u64) {
        if let Some(h) = self.named_hists.read().unwrap().get(name) {
            h.record(micros);
            return;
        }
        self.named_hists
            .write()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .record(micros);
    }

    /// Point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let mut hists = BTreeMap::new();
        for kind in HIST_KINDS {
            hists.insert(kind.name().to_string(), self.hists[kind.index()].snapshot());
        }
        for (k, h) in self.named_hists.read().unwrap().iter() {
            hists.insert(k.clone(), h.snapshot());
        }
        Snapshot { counters, hists }
    }
}

/// An immutable view of the registry at one instant. Subtracting two
/// snapshots ([`Snapshot::delta_since`]) yields the activity in between —
/// the unit every experiment reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Counter-wise and bucket-wise difference `self - earlier`. Counters
    /// present only in `self` pass through; counters that shrank clamp
    /// to zero.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| {
                let d = match earlier.hists.get(k) {
                    Some(e) => h.delta_since(e),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot { counters, hists }
    }

    /// Set (or overwrite) a counter: a value derived outside any stats
    /// type or the registry, such as an experiment's own figure.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Add a stats type's `(name, value)` counts as `<prefix><name>`
    /// counters; a name folded again sums (clients, server instances).
    pub fn fold<'a>(&mut self, prefix: &str, counts: impl IntoIterator<Item = (&'a str, u64)>) {
        for (name, value) in counts {
            *self.counters.entry(format!("{prefix}{name}")).or_default() += value;
        }
    }

    /// One histogram by [`HistKind`], if recorded.
    pub fn hist(&self, kind: HistKind) -> Option<&HistSnapshot> {
        self.hists.get(kind.name())
    }

    /// Serialize to JSON. Schema:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 123, ...},
    ///   "histograms": {
    ///     "lock_wait_us": {
    ///       "count": 10, "sum": 480, "max": 90, "mean": 48.0,
    ///       "p50": 40, "p95": 88, "p99": 90,
    ///       "buckets": [[1, 3], [2, 7]]
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// `buckets` lists `[bucket_low, count]` pairs for non-empty buckets
    /// only. Hand-rolled because the workspace carries no serde.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json_escape(k), v));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {:.1}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json_escape(k),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
            let mut bfirst = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                out.push_str(&format!("[{}, {}]", bucket_bounds(i).0, n));
            }
            out.push_str("]}");
        }
        out.push_str(if first { "}\n}" } else { "\n  }\n}" });
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_drives_observe_since() {
        let clock = Arc::new(ManualClock::default());
        struct Shared(Arc<ManualClock>);
        impl Clock for Shared {
            fn now_us(&self) -> u64 {
                self.0.now_us()
            }
        }
        let m = Metrics::with_clock(Box::new(Shared(clock.clone())));
        let t0 = m.now_us();
        clock.advance_us(750);
        // The end reading comes back for the caller to reuse.
        assert_eq!(m.observe_since(HistKind::Commit, t0), t0 + 750);
        let s = m.snapshot();
        let h = s.hist(HistKind::Commit).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 750);
        assert_eq!(h.max, 750);
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let m = Metrics::new();
        m.add("msgs", 5);
        let before = m.snapshot();
        m.add("msgs", 7);
        m.add("new_counter", 1);
        let after = m.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counters["msgs"], 7);
        assert_eq!(d.counters["new_counter"], 1);
    }

    #[test]
    fn counter_handles_share_the_named_counter() {
        let m = Metrics::new();
        let forces = m.counter("log_forces");
        forces.add(2);
        m.add("log_forces", 3);
        m.counter("log_forces").add(5);
        assert_eq!(m.snapshot().counters["log_forces"], 10);
    }

    #[test]
    fn named_histograms_appear_in_snapshot() {
        let m = Metrics::new();
        m.observe_named("recovery_phase_us_redo_only_redo", 40);
        m.observe_named("recovery_phase_us_redo_only_redo", 60);
        let s = m.snapshot();
        let h = &s.hists["recovery_phase_us_redo_only_redo"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 100);
        // Named histograms participate in deltas like the fixed ones.
        m.observe_named("recovery_phase_us_redo_only_redo", 10);
        let d = m.snapshot().delta_since(&s);
        assert_eq!(d.hists["recovery_phase_us_redo_only_redo"].count, 1);
    }

    #[test]
    fn json_has_required_keys() {
        let m = Metrics::new();
        m.add("commits", 3);
        m.observe(HistKind::LockWait, 12);
        let j = m.snapshot().to_json();
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"histograms\""));
        assert!(j.contains("\"lock_wait_us\""));
        assert!(j.contains("\"p99\""));
        assert!(j.contains("\"commits\": 3"));
    }

    #[test]
    fn snapshot_delta_round_trip() {
        let m = Metrics::new();
        m.observe(HistKind::Merge, 100);
        let a = m.snapshot();
        m.observe(HistKind::Merge, 200);
        m.observe(HistKind::Merge, 300);
        let b = m.snapshot();
        let d = b.delta_since(&a);
        let h = d.hist(HistKind::Merge).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 500);
        // Delta of identical snapshots is empty.
        let z = b.delta_since(&b);
        assert_eq!(z.hist(HistKind::Merge).unwrap().count, 0);
        assert!(z.counters.values().all(|&v| v == 0));
    }
}
