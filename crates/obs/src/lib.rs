//! Unified observability for the `fgl` system: typed protocol events, a
//! per-thread ring-buffer flight recorder, log2-bucket latency histograms
//! and a metrics registry with a snapshot/delta API.
//!
//! The crate is deliberately free of third-party dependencies (it sits
//! right above `fgl-common` so every other layer can use it) and has
//! three surfaces:
//!
//! * **Events** ([`Event`], [`emit`]) — the protocol's load-bearing
//!   moments (lock request/grant/queue/de-escalation, callbacks, page
//!   ships and merges with PSNs, log forces, checkpoints, deadlock
//!   victims, recovery phase transitions) as a typed enum. Every emitted
//!   event lands in the flight recorder; installed [`sink::EventSink`]s
//!   (stderr when `FGL_TRACE=1`, an in-memory capture sink for tests)
//!   see it too.
//! * **Flight recorder** ([`ring`]) — a bounded per-thread ring of the
//!   most recent events, globally sequence-stamped so a merged dump is
//!   totally ordered. A ring is freed with its thread, so [`dump`]
//!   collects the live threads' rings on demand; the client runtime
//!   triggers an automatic dump on deadlock aborts and lock timeouts.
//! * **Metrics** ([`Metrics`], [`Histogram`], [`Snapshot`]) — atomic
//!   log2-bucket latency histograms (lock-wait, commit, callback
//!   round-trip, log-force, page-fetch, merge) plus named counters,
//!   snapshotted into a [`Snapshot`] that supports `delta_since`, JSON
//!   export and aligned-table rendering.

pub mod event;
pub mod hist;
pub mod procstat;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod trace;

pub use event::{CallbackClass, Event, LogOwner, RecoveryPhase, SocketSite, SpanKind};
pub use hist::{HistSnapshot, Histogram};
pub use procstat::{current_rss_bytes, current_threads, RssSampler};
pub use registry::{Clock, Counter, HistKind, ManualClock, Metrics, Snapshot};
pub use ring::{dump, last_dump, Stamped};
pub use sink::{CaptureSink, EventSink, SinkGuard, StderrSink};
pub use trace::{assemble, span, SpanGuard, SpanRecord, TraceReport};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tracing gate: `FGL_TRACE=1` (any value) enables the stderr sink,
/// preserving the behaviour of the old `fgl_trace!` macro. Checked once.
pub fn trace_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FGL_TRACE").is_some())
}

static SEQ: AtomicU64 = AtomicU64::new(0);

/// The next sequence number [`emit`] will hand out. Capture one before a
/// run and keep only `dump()` entries with `seq >= watermark` to scope an
/// analysis to that run.
pub fn seq_watermark() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// Microseconds since the first observability call in this process: the
/// one timeline of the process. Flight-recorder entries are stamped with
/// it, and the default [`Metrics`] clock reads it, so a caller that timed
/// something through the registry can stamp the event with the same
/// reading ([`emit_at`]).
#[inline]
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Record one protocol event: stamp it, append it to the calling thread's
/// flight-recorder ring, and fan it out to the installed sinks (the
/// stderr sink auto-installs on first use when `FGL_TRACE` is set).
pub fn emit(event: Event) {
    emit_at(now_us(), event);
}

/// [`emit`] stamped with `at_us`, a fresh reading of [`now_us`] (or of a
/// [`Metrics`] clock) the caller already holds: a site that has just
/// timed an interval stamps its event with the interval's end instead of
/// reading the clock again. The sequence number is taken here, so the
/// event's place in the total order is that of the call.
pub fn emit_at(at_us: u64, event: Event) {
    sink::ensure_default_sinks();
    let stamped = Stamped {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        at_us,
        event,
    };
    ring::record(stamped);
    sink::broadcast(&stamped);
}

/// Dump the flight recorder (merged across threads, sequence order) in
/// response to an anomaly — deadlock abort, lock timeout. The dump is
/// retained for [`last_dump`] and printed to stderr when tracing is on.
pub fn dump_on_anomaly(reason: &str) -> Vec<Stamped> {
    let events = ring::dump();
    if trace_enabled() {
        // Build the whole dump in one buffer and write it under one lock:
        // concurrent anomalies (two victims of one deadlock) would
        // otherwise interleave line-by-line into an unreadable braid.
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[fgl] flight recorder dump ({reason}): {} events",
            events.len()
        );
        for st in &events {
            let _ = writeln!(
                out,
                "[fgl]   #{:<6} +{:>8}us {}",
                st.seq, st.at_us, st.event
            );
        }
        sink::write_stderr_chunk(&out);
    }
    ring::store_last_dump(reason, &events);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::{ClientId, PageId, TxnId};

    #[test]
    fn emit_lands_in_flight_recorder() {
        let ev = Event::LockRequest {
            client: ClientId(7),
            txn: TxnId(77),
            page: PageId(777),
            exclusive: true,
        };
        emit(ev);
        let dumped = dump();
        assert!(dumped.iter().any(|s| s.event == ev));
    }

    #[test]
    fn anomaly_dump_is_retained() {
        emit(Event::DeadlockVictim { txn: TxnId(42) });
        let d = dump_on_anomaly("test");
        assert!(!d.is_empty());
        let (reason, last) = last_dump().expect("dump stored");
        assert_eq!(reason, "test");
        assert_eq!(last.len(), d.len());
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        emit(Event::Checkpoint {
            owner: LogOwner::Server,
            lsn: fgl_common::Lsn(1),
        });
        emit(Event::Checkpoint {
            owner: LogOwner::Server,
            lsn: fgl_common::Lsn(2),
        });
        let d = dump();
        for w in d.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
