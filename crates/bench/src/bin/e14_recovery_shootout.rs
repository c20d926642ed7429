//! **E14 — Logging-strategy recovery shootout.**
//!
//! A client transaction logs physically (the paper's client-based ARIES)
//! or redo-only (Sauer & Härder); the strategy says which: always
//! physical, always redo-only, or per transaction by payload size (the
//! hybrid of Yao et al.). This experiment races all three through the
//! crash matrix and reports, per (strategy, crash) cell:
//!
//! * recovery wall time, with the per-phase breakdown captured by the
//!   `recovery_phase_us_<strategy>_*` histograms,
//! * log bytes per commit (normal-processing logging cost), and
//! * workload commits/s before the crash.
//!
//! Every cell still verifies the committed state against the oracle —
//! a fast recovery that loses updates is a bug, not a win.

use fgl::{LoggingStrategyKind, SystemConfig};
use fgl_bench::{banner, standard_spec, MetricsEmitter};
use fgl_sim::crash::{run_crash_scenario, CrashKind};
use fgl_sim::table::{f1, Table};
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E14: recovery shootout — logging strategies through the crash matrix",
        "each cell: run, crash, recover under the given strategy, verify \
         every object against the oracle, run again, verify again",
    );
    let clients = 4;
    let quick = fgl_bench::quick_mode();
    let txns = if quick { 25 } else { 80 };
    let kinds: Vec<CrashKind> = if quick {
        vec![CrashKind::Client(1), CrashKind::Server]
    } else {
        vec![
            CrashKind::Client(1),
            CrashKind::MultiClient(vec![1, 2]),
            CrashKind::Server,
            CrashKind::Complex(vec![1]),
        ]
    };
    let mut table = Table::new(&[
        "strategy",
        "crash",
        "commits/s",
        "log B/commit",
        "recovery ms",
        "verify",
        "final",
        "stale reads",
        "fetch timeouts",
    ]);
    let mut emitter = MetricsEmitter::new("e14_recovery_shootout");
    let mut seed = 0x0E14;
    let mut all_clean = true;
    for strategy in LoggingStrategyKind::ALL {
        for kind in &kinds {
            seed += 1;
            let mut spec = standard_spec(WorkloadKind::HotCold, clients);
            spec.write_fraction = 0.6;
            let cfg = SystemConfig {
                logging_strategy: strategy,
                ..fgl_bench::experiment_config()
            };
            let r =
                run_crash_scenario(cfg, clients, kind.clone(), spec, txns, seed).expect("scenario");
            let timeouts = r.recovery_fetch_timeouts();
            let clean = r.is_clean();
            if !clean {
                eprintln!(
                    "FAILED CELL: {} seed {seed:#x}: stale reads {:?}, fetch timeouts {timeouts}",
                    r.kind_name, r.stale_reads
                );
            }
            all_clean &= clean;
            let log_bytes = r
                .phase1
                .metrics
                .counters
                .get("client_log_bytes")
                .copied()
                .unwrap_or(0);
            let bytes_per_commit = log_bytes as f64 / r.phase1.commits.max(1) as f64;
            // Derived scalars ride as counters: the latency baseline keys
            // sweep points by `params`, which must be stable across runs.
            let mut metrics = r.metrics.clone();
            metrics.set_counter("e14_commits_per_s", r.phase1.throughput() as u64);
            metrics.set_counter("e14_log_bytes_per_commit", bytes_per_commit as u64);
            metrics.set_counter("e14_recovery_us", r.recovery_elapsed.as_micros() as u64);
            emitter.row(
                &[
                    ("strategy", strategy.name().to_string()),
                    ("crash", r.kind_name.clone()),
                ],
                &metrics,
            );
            table.row(vec![
                strategy.name().into(),
                r.kind_name.clone(),
                f1(r.phase1.throughput()),
                f1(bytes_per_commit),
                f1(r.recovery_elapsed.as_secs_f64() * 1e3),
                if r.verify_after_recovery.is_clean() {
                    "clean".into()
                } else {
                    format!("{} BAD", r.verify_after_recovery.mismatches.len())
                },
                if r.verify_final.is_clean() {
                    "clean".into()
                } else {
                    format!("{} BAD", r.verify_final.mismatches.len())
                },
                r.stale_reads.len().to_string(),
                timeouts.to_string(),
            ]);
        }
    }
    table.print();
    emitter.finish();
    println!();
    if all_clean {
        println!("RESULT: every strategy recovered the committed state exactly.");
    } else {
        println!("RESULT: MISMATCHES FOUND — recovery bug!");
        std::process::exit(1);
    }
}
