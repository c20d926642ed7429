//! Pluggable event sinks.
//!
//! Sinks observe every emitted event. Two ship with the crate: the
//! stderr sink (auto-installed when `FGL_TRACE` is set — the successor of
//! the old `fgl_trace!` macro) and an in-memory capture sink for tests
//! asserting exact event sequences.

use crate::ring::Stamped;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// An observer of emitted events. Implementations must be cheap: they run
/// inline on protocol paths.
pub trait EventSink: Send + Sync {
    fn record(&self, stamped: &Stamped);
}

type SinkList = RwLock<Vec<(u64, Arc<dyn EventSink>)>>;

fn sinks() -> &'static SinkList {
    static SINKS: OnceLock<SinkList> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

static SINK_IDS: AtomicU64 = AtomicU64::new(0);

/// How many sinks are installed: `broadcast` reads it to skip the list's
/// lock in the usual case of none. Stored with `Release` under the list's
/// write lock and loaded with `Acquire`, so an emit that follows
/// `install_sink` sees the count and then takes the lock.
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Uninstalls its sink on drop, so tests can scope capture windows.
pub struct SinkGuard {
    id: u64,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut list = sinks().write().unwrap();
        list.retain(|(id, _)| *id != self.id);
        SINK_COUNT.store(list.len(), Ordering::Release);
    }
}

/// Install a sink; it observes every event until the guard drops.
pub fn install_sink(sink: Arc<dyn EventSink>) -> SinkGuard {
    let id = SINK_IDS.fetch_add(1, Ordering::Relaxed);
    let mut list = sinks().write().unwrap();
    list.push((id, sink));
    SINK_COUNT.store(list.len(), Ordering::Release);
    SinkGuard { id }
}

pub(crate) fn broadcast(stamped: &Stamped) {
    if SINK_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    for (_, sink) in sinks().read().unwrap().iter() {
        sink.record(stamped);
    }
}

/// Install the stderr sink once if `FGL_TRACE` is set (backwards
/// compatibility with the old macro's gate).
pub(crate) fn ensure_default_sinks() {
    static ONCE: OnceLock<Option<SinkGuard>> = OnceLock::new();
    ONCE.get_or_init(|| crate::trace_enabled().then(|| install_sink(Arc::new(StderrSink))));
}

/// Serializes stderr output from concurrent threads: `eprintln!` locks
/// stderr per call, so a multi-line dump interleaves with other threads'
/// lines unless the whole dump is written under one lock.
fn stderr_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Write a (possibly multi-line) chunk to stderr as one atomic unit with
/// respect to every other writer going through this function.
pub(crate) fn write_stderr_chunk(chunk: &str) {
    use std::io::Write;
    let _guard = stderr_lock().lock().unwrap();
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(chunk.as_bytes());
    let _ = err.flush();
}

/// Prints one line per event, in the old `[fgl] ...` format.
pub struct StderrSink;

impl EventSink for StderrSink {
    fn record(&self, stamped: &Stamped) {
        write_stderr_chunk(&format!("[fgl] {}\n", stamped.event));
    }
}

/// Accumulates events in memory; tests drain and assert on them.
#[derive(Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Stamped>>,
}

impl CaptureSink {
    /// Create a capture sink and install it; returns the sink handle and
    /// the guard scoping its installation.
    pub fn install() -> (Arc<CaptureSink>, SinkGuard) {
        let sink = Arc::new(CaptureSink::default());
        let guard = install_sink(sink.clone());
        (sink, guard)
    }

    /// Copy of everything captured so far.
    pub fn events(&self) -> Vec<Stamped> {
        self.events.lock().unwrap().clone()
    }

    /// Take and clear the captured events.
    pub fn drain(&self) -> Vec<Stamped> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl EventSink for CaptureSink {
    fn record(&self, stamped: &Stamped) {
        self.events.lock().unwrap().push(*stamped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use fgl_common::TxnId;

    #[test]
    fn capture_sink_sees_events_only_while_installed() {
        let (sink, guard) = CaptureSink::install();
        crate::emit(Event::DeadlockVictim { txn: TxnId(901) });
        drop(guard);
        crate::emit(Event::DeadlockVictim { txn: TxnId(902) });
        let got = sink.drain();
        assert!(got
            .iter()
            .any(|s| s.event == Event::DeadlockVictim { txn: TxnId(901) }));
        assert!(!got
            .iter()
            .any(|s| s.event == Event::DeadlockVictim { txn: TxnId(902) }));
    }
}
