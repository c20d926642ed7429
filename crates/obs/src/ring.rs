//! The flight recorder: a bounded ring of recent events per thread.
//!
//! Each thread appends only to its own ring, so the hot path never
//! contends with another recorder (the per-ring mutex is touched by a
//! second thread only during a dump, which is rare by construction).
//! Events carry a global sequence number, so a dump merged across rings
//! is totally ordered even though each ring is thread-local.
//!
//! A ring lives exactly as long as its thread: the registry holds weak
//! handles, so an exited thread's ring is freed and [`dump`] covers live
//! threads only. A run that must see every event of threads that have
//! exited by the time it looks installs a [`crate::CaptureSink`].

use crate::event::Event;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Default events a single thread's ring retains before overwriting the
/// oldest (see [`set_capacity`]).
pub const RING_CAPACITY: usize = 256;

static CAPACITY: AtomicUsize = AtomicUsize::new(RING_CAPACITY);

/// Set the per-thread ring capacity (`SystemConfig::obs_ring_entries`).
/// Applies to future appends on every ring; shrinking trims each ring
/// lazily on its next append. Process-wide — concurrent `System`s share
/// it, last writer wins.
pub fn set_capacity(entries: usize) {
    CAPACITY.store(entries.max(1), Ordering::Relaxed);
}

/// Current per-thread ring capacity.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Total events evicted from full rings since process start. A non-zero
/// delta across a run means `dump()` is a truncated view — raise
/// `obs_ring_entries` if the analysis needs the full window.
pub fn dropped_events() -> u64 {
    let rings = registry().lock().unwrap();
    rings.exited_dropped
        + rings
            .entries
            .iter()
            .map(|(_, dropped)| dropped.load(Ordering::Relaxed))
            .sum::<u64>()
}

/// One stamped flight-recorder entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Global emission sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since the process's first observability call.
    pub at_us: u64,
    pub event: Event,
}

struct Ring {
    slots: Mutex<VecDeque<Stamped>>,
    /// Events this ring evicted at capacity. Written only by its thread,
    /// under `slots`' lock, so a push at capacity costs a plain store
    /// rather than an RMW on a counter every thread shares.
    dropped: Arc<AtomicU64>,
}

/// Every ring with the count of events it evicted. A dead ring's entry
/// is pruned when a new ring registers and during [`dump`]; its count
/// moves to `exited_dropped` in the same critical section, so
/// [`dropped_events`] never misses or repeats it.
#[derive(Default)]
struct Registry {
    entries: Vec<(Weak<Ring>, Arc<AtomicU64>)>,
    exited_dropped: u64,
}

impl Registry {
    fn prune(&mut self) {
        let mut exited = 0;
        self.entries.retain(|(ring, dropped)| {
            let live = ring.strong_count() > 0;
            if !live {
                exited += dropped.load(Ordering::Relaxed);
            }
            live
        });
        self.exited_dropped += exited;
    }
}

fn registry() -> &'static Mutex<Registry> {
    static RINGS: OnceLock<Mutex<Registry>> = OnceLock::new();
    RINGS.get_or_init(Default::default)
}

thread_local! {
    /// The only strong handle: the ring is freed when its thread exits.
    static LOCAL: Arc<Ring> = {
        let ring = Arc::new(Ring {
            slots: Mutex::new(VecDeque::with_capacity(capacity())),
            dropped: Arc::default(),
        });
        let mut rings = registry().lock().unwrap();
        rings.prune();
        rings.entries.push((Arc::downgrade(&ring), ring.dropped.clone()));
        ring
    };
}

/// Append to the calling thread's ring, evicting the oldest entry at
/// capacity.
pub(crate) fn record(stamped: Stamped) {
    let cap = capacity();
    LOCAL.with(|ring| {
        let mut slots = ring.slots.lock().unwrap();
        if slots.len() >= cap {
            let evicted = slots.len() + 1 - cap;
            slots.drain(..evicted);
            let dropped = ring.dropped.load(Ordering::Relaxed);
            ring.dropped
                .store(dropped + evicted as u64, Ordering::Relaxed);
        }
        slots.push_back(stamped);
    });
}

/// Merge every live thread's ring into one sequence-ordered trace of the
/// most recent events. Threads that have exited are not in it.
pub fn dump() -> Vec<Stamped> {
    let rings: Vec<Arc<Ring>> = {
        let mut rings = registry().lock().unwrap();
        rings.prune();
        rings
            .entries
            .iter()
            .filter_map(|(r, _)| r.upgrade())
            .collect()
    };
    let mut all: Vec<Stamped> = Vec::new();
    for ring in rings {
        all.extend(ring.slots.lock().unwrap().iter().copied());
    }
    all.sort_by_key(|s| s.seq);
    all
}

type DumpStore = Mutex<Option<(String, Vec<Stamped>)>>;

fn last_dump_store() -> &'static DumpStore {
    static LAST: OnceLock<DumpStore> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

pub(crate) fn store_last_dump(reason: &str, events: &[Stamped]) {
    *last_dump_store().lock().unwrap() = Some((reason.to_string(), events.to_vec()));
}

/// The most recent anomaly dump (deadlock abort / lock timeout), if any:
/// `(reason, events)`. Retained for tests and post-mortem inspection.
pub fn last_dump() -> Option<(String, Vec<Stamped>)> {
    last_dump_store().lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::TxnId;

    #[test]
    fn ring_is_bounded_and_ordered() {
        for i in 0..(RING_CAPACITY as u64 + 50) {
            crate::emit(Event::DeadlockVictim { txn: TxnId(i) });
        }
        let d = dump();
        // This thread's ring holds at most RING_CAPACITY entries; other
        // test threads may contribute more, but order must hold globally.
        for w in d.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        let mine: Vec<&Stamped> = d
            .iter()
            .filter(|s| matches!(s.event, Event::DeadlockVictim { .. }))
            .collect();
        assert!(mine.len() <= RING_CAPACITY + 50);
        // The newest event must have survived the eviction.
        assert!(mine.iter().any(|s| s.event
            == Event::DeadlockVictim {
                txn: TxnId(RING_CAPACITY as u64 + 49)
            }));
    }

    /// Evictions count whether the ring's thread is still running or has
    /// exited (and its ring was pruned by a later registration).
    #[test]
    fn dropped_events_count_live_and_exited_rings() {
        let burst = RING_CAPACITY as u64 + 10;
        let emit_burst = move || {
            for i in 0..burst {
                crate::emit(Event::DeadlockVictim { txn: TxnId(i) });
            }
        };
        // Other tests only add to the total, so a lower bound is exact
        // enough: at least `burst - capacity` evictions per burst.
        let before = dropped_events();
        emit_burst();
        let live = dropped_events();
        assert!(live >= before + 10, "{before} -> {live}");
        std::thread::spawn(emit_burst).join().unwrap();
        // A new thread's ring registration prunes the exited one.
        std::thread::spawn(|| crate::emit(Event::DeadlockVictim { txn: TxnId(0) }))
            .join()
            .unwrap();
        let after = dropped_events();
        assert!(after >= live + 10, "{live} -> {after}");
    }

    #[test]
    fn exited_threads_leave_no_ring_behind() {
        for i in 0..1_000u64 {
            std::thread::spawn(move || crate::emit(Event::DeadlockVictim { txn: TxnId(i) }))
                .join()
                .unwrap();
        }
        dump();
        // Only live threads (this test harness's) keep a ring.
        let registered = registry().lock().unwrap().entries.len();
        assert!(registered < 64, "{registered} rings registered");
    }
}
