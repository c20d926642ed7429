//! The harness driver is deterministic: the same seed and config must
//! produce the same protocol traffic, the same spans and the same
//! committed state on every run, whatever the green-task stack size.
//!
//! The PRIVATE workload gives every committer a disjoint footprint, so
//! the per-kind message/byte counts on the fabric are independent of how
//! the committers interleave on the worker pool — any divergence between
//! two runs is a semantic change in the protocol path, not scheduling
//! noise.

use fgl::{NetSnapshot, System, SystemConfig};
use fgl_obs::{trace, CaptureSink, Event, SpanKind};
use fgl_sim::harness::{run_workload, HarnessOptions, RunReport};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Span emission is process-wide, so the tracing test must not overlap
/// the others (their runs would bleed span events into its capture).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec() -> WorkloadSpec {
    let mut s = WorkloadSpec::new(WorkloadKind::Private);
    s.pages = 32;
    s.objects_per_page = 8;
    s.ops_per_txn = 4;
    s.write_fraction = 0.5;
    s
}

fn run() -> (RunReport, bool) {
    run_with(0)
}

/// Like [`run`], with an explicit green-task stack size in KiB — `0`
/// keeps the current process-wide setting.
fn run_with(stack_kb: usize) -> (RunReport, bool) {
    let sys = System::build(SystemConfig::default(), 6).unwrap();
    let sp = spec();
    let layout = populate(sys.client(0), sp.pages, sp.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(sp, 12);
    opts.seed = 0xD373;
    opts.sched_stack_kb = stack_kb;
    let report = run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
    let clean = oracle.verify_via_reads(sys.client(0)).unwrap().is_clean();
    (report, clean)
}

/// Restores the process-wide task stack size on drop, so a test that
/// shrinks it cannot leak the setting into later tests.
struct StackSizeGuard(usize);

impl StackSizeGuard {
    fn capture() -> StackSizeGuard {
        StackSizeGuard(fgl_sched::stack_size())
    }
}

impl Drop for StackSizeGuard {
    fn drop(&mut self) {
        fgl_sched::set_stack_size(self.0);
    }
}

fn assert_same_traffic(a: &NetSnapshot, b: &NetSnapshot) {
    for i in 0..a.counts.len() {
        assert_eq!(
            a.counts[i],
            b.counts[i],
            "per-kind message count diverged for {}: {} vs {}",
            NetSnapshot::kind_name(i),
            a.counts[i],
            b.counts[i]
        );
        assert_eq!(
            a.bytes[i],
            b.bytes[i],
            "per-kind byte count diverged for {}",
            NetSnapshot::kind_name(i)
        );
    }
}

/// Two runs from the same seed match each other exactly: commits,
/// aborts and per-kind fabric counts, with a clean oracle.
#[test]
fn event_scheduler_is_self_deterministic() {
    let _g = serial();
    let (a, a_clean) = run();
    let (b, b_clean) = run();
    assert!(a_clean && b_clean);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts, b.aborts);
    assert_same_traffic(&a.net, &b.net);
}

/// Crash recovery stays correct when the workload phases run on green
/// tasks: the full server-crash scenario (phase 1, crash, recovery,
/// verify, phase 2, verify) ends clean.
#[test]
fn crash_scenario_oracle_is_clean_under_event_scheduler() {
    let _g = serial();
    let mut s = spec();
    s.pages = 12;
    let r = fgl_sim::crash::run_crash_scenario(
        SystemConfig::default(),
        3,
        fgl_sim::crash::CrashKind::Server,
        s,
        10,
        0xD373,
    )
    .unwrap();
    assert!(
        r.is_clean(),
        "after-recovery {:?} / final {:?}",
        r.verify_after_recovery.mismatches,
        r.verify_final.mismatches
    );
    assert!(r.phase2.commits > 0);
}

/// Stack pooling (with lazily built client state on top of it) is a
/// memory-layout change only: a run on a non-default (minimum) task
/// stack must produce the same commits and byte-identical per-kind
/// fabric traffic as the default run from the same seed.
#[test]
fn stack_pooling_and_lazy_init_do_not_change_traffic() {
    let _g = serial();
    let _stack = StackSizeGuard::capture();
    let (default, default_clean) = run();
    let (small, small_clean) = run_with(fgl_sched::MIN_STACK / 1024);
    assert!(default_clean, "default-stack run diverged from oracle");
    assert!(small_clean, "small-stack run diverged from oracle");
    assert_eq!(default.commits, small.commits);
    assert_eq!(default.aborts, small.aborts);
    assert_same_traffic(&default.net, &small.net);
}

/// Per-kind `SpanOpen` counts for one traced run. Scheduler runnable
/// waits are deliberately excluded — they are reported as `SchedWait`
/// events, not spans, precisely so this invariant can hold (runs park
/// differently but traverse the same protocol path).
fn traced_span_counts_of(run_once: impl FnOnce() -> (RunReport, bool)) -> BTreeMap<SpanKind, u64> {
    let (sink, guard) = CaptureSink::install();
    trace::set_enabled(true);
    let (_report, clean) = run_once();
    trace::set_enabled(false);
    drop(guard);
    assert!(clean, "traced run diverged from oracle");
    let mut counts = BTreeMap::new();
    for st in sink.drain() {
        if let Event::SpanOpen { kind, .. } = st.event {
            *counts.entry(kind).or_insert(0u64) += 1;
        }
    }
    counts
}

/// Tracing is part of the protocol path, so it must be as deterministic
/// as the fabric counts: default vs minimum task stacks trace the same
/// protocol path span for span. (PRIVATE still emits `LockWait` spans —
/// the seeding client owns every page at cold start, so first accesses
/// wait on the ownership hand-off — but deterministically many of them.)
#[test]
fn span_counts_unchanged_by_pooling_and_lazy_init() {
    let _g = serial();
    let _stack = StackSizeGuard::capture();
    let default = traced_span_counts_of(run);
    let small = traced_span_counts_of(|| run_with(fgl_sched::MIN_STACK / 1024));
    assert_eq!(default, small, "per-kind span counts diverged");
    assert!(
        default[&SpanKind::Commit] > 0,
        "commits must emit root spans"
    );
    assert_eq!(
        default.get(&SpanKind::CommitLogShip).copied().unwrap_or(0),
        0,
        "client-based logging must never ship log records at commit"
    );
}
