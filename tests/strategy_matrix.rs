//! Crash matrix × logging strategy: every `LoggingStrategyKind` must pass
//! the §3.3–§3.5 crash scenarios against the committed-state oracle —
//! client crash, server crash, simultaneous client crashes and the
//! complex crash — not just the default client-based ARIES path.

use fgl::{LoggingStrategyKind, SystemConfig};
use fgl_sim::crash::{run_crash_scenario, CrashKind};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

fn spec() -> WorkloadSpec {
    let mut s = WorkloadSpec::new(WorkloadKind::HotCold);
    s.pages = 12;
    s.objects_per_page = 8;
    s.ops_per_txn = 4;
    s.write_fraction = 0.6;
    s
}

fn check(strategy: LoggingStrategyKind, kind: CrashKind, seed: u64) {
    let cfg = SystemConfig::default().with_logging_strategy(strategy);
    let r = run_crash_scenario(cfg, 3, kind, spec(), 12, seed).unwrap();
    assert!(
        r.verify_after_recovery.is_clean(),
        "{:?} / {}: post-recovery mismatches {:?}",
        strategy,
        r.kind_name,
        r.verify_after_recovery.mismatches
    );
    assert!(
        r.verify_final.is_clean(),
        "{:?} / {}: final mismatches {:?}",
        strategy,
        r.kind_name,
        r.verify_final.mismatches
    );
    assert!(
        r.phase2.commits > 0,
        "{:?} / {}: system not operational after recovery",
        strategy,
        r.kind_name
    );
}

#[test]
fn client_crash_all_strategies() {
    for (i, strategy) in LoggingStrategyKind::ALL.into_iter().enumerate() {
        check(strategy, CrashKind::Client(1), 100 + i as u64);
    }
}

#[test]
fn server_crash_all_strategies() {
    for (i, strategy) in LoggingStrategyKind::ALL.into_iter().enumerate() {
        check(strategy, CrashKind::Server, 200 + i as u64);
    }
}

#[test]
fn multi_client_crash_all_strategies() {
    for (i, strategy) in LoggingStrategyKind::ALL.into_iter().enumerate() {
        check(strategy, CrashKind::MultiClient(vec![0, 2]), 300 + i as u64);
    }
}

#[test]
fn complex_crash_all_strategies() {
    for (i, strategy) in LoggingStrategyKind::ALL.into_iter().enumerate() {
        check(strategy, CrashKind::Complex(vec![1]), 400 + i as u64);
    }
}
