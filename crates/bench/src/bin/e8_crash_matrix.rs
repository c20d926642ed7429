//! **E8 — Crash matrix correctness** (§3.3–§3.5, abstract).
//!
//! Claim: *"The database state is recovered correctly even if the server
//! and several clients crash at the same time, and if the updates
//! performed by different clients on a page are not present on the disk
//! version of the page, even though some of the updating transactions
//! have committed."*
//!
//! Every cell runs: workload phase → crash → the paper's recovery
//! procedure → committed-state verification against the oracle → second
//! workload phase → final verification.

use fgl::SystemConfig;
use fgl_bench::{banner, standard_spec, MetricsEmitter};
use fgl_sim::crash::{run_crash_scenario, CrashKind};
use fgl_sim::table::{f1, Table};
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E8: crash matrix — committed state vs oracle",
        "each cell: run, crash, recover, verify every object, run again, \
         verify again",
    );
    let clients = 4;
    let txns = if fgl_bench::quick_mode() { 25 } else { 80 };
    let kinds = vec![
        CrashKind::Client(1),
        CrashKind::MultiClient(vec![1, 2]),
        CrashKind::Server,
        CrashKind::Complex(vec![1]),
        CrashKind::Complex(vec![1, 2]),
    ];
    let workloads = [
        WorkloadKind::HotCold,
        WorkloadKind::HiCon,
        WorkloadKind::Uniform,
    ];
    let mut table = Table::new(&[
        "crash",
        "workload",
        "phase1 commits",
        "recovery ms",
        "objects checked",
        "verify",
        "phase2 commits",
        "final",
        "stale reads",
        "fetch timeouts",
    ]);
    let mut emitter = MetricsEmitter::new("e8_crash_matrix");
    let mut seed = 0x0E8;
    let mut all_clean = true;
    for kind in &kinds {
        for wk in workloads {
            seed += 1;
            let mut spec = standard_spec(wk, clients);
            spec.write_fraction = 0.6;
            let r = run_crash_scenario(
                SystemConfig::default(),
                clients,
                kind.clone(),
                spec,
                txns,
                seed,
            )
            .expect("scenario");
            let timeouts = r.recovery_fetch_timeouts();
            let clean = r.is_clean();
            if !clean {
                eprintln!(
                    "FAILED CELL: {} seed {seed:#x}: stale reads {:?}, fetch timeouts {timeouts}",
                    r.kind_name, r.stale_reads
                );
            }
            all_clean &= clean;
            emitter.row(
                &[
                    ("crash", r.kind_name.clone()),
                    ("workload", wk.name().to_string()),
                ],
                &r.metrics,
            );
            table.row(vec![
                r.kind_name.clone(),
                wk.name().into(),
                r.phase1.commits.to_string(),
                f1(r.recovery_elapsed.as_secs_f64() * 1e3),
                r.verify_after_recovery.objects_checked.to_string(),
                if r.verify_after_recovery.is_clean() {
                    "clean".into()
                } else {
                    format!("{} BAD", r.verify_after_recovery.mismatches.len())
                },
                r.phase2.commits.to_string(),
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
        println!("RESULT: all scenarios recovered the committed state exactly.");
    } else {
        println!("RESULT: MISMATCHES FOUND — recovery bug!");
        std::process::exit(1);
    }
}
