//! **E2 — Lock granularity under page contention** (§3.1, §4.2).
//!
//! Claim: object-level locking lets multiple clients update *different
//! objects on the same page* concurrently; page-level locking (the
//! shared-disks \[17\] baseline) serializes them; the adaptive scheme \[3\]
//! matches object locking under contention while saving lock traffic on
//! private data.
//!
//! Sweep: granularity × write-sharing level on the HICON workload
//! (all writes target a few hot pages, distinct slots per client).

use fgl::{LockGranularity, System};
use fgl_bench::{
    banner, experiment_config, granularity_name, standard_spec, txns_per_client, MetricsEmitter,
};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::setup::populate;
use fgl_sim::table::{f1, f2, Table};
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E2: lock granularity under same-page write sharing",
        "HICON: all writes hit a small hot page set, each client a distinct \
         slot range — object locks admit them concurrently, page locks do not",
    );
    let clients = if fgl_bench::quick_mode() { 4 } else { 8 };
    let mut emitter = MetricsEmitter::new("e2_lock_granularity");
    let mut table = Table::new(&[
        "write_frac",
        "granularity",
        "commits/s",
        "aborts",
        "abort_rate",
        "lock msgs/commit",
        "cb/commit",
    ]);
    for write_fraction in [0.2, 0.5, 0.8] {
        for granularity in [
            LockGranularity::Object,
            LockGranularity::Page,
            LockGranularity::Adaptive,
        ] {
            let mut cfg = experiment_config().with_granularity(granularity);
            if granularity == LockGranularity::Page {
                // Page locking under HICON is timeout-bound (multi-page
                // transactions deadlock constantly); a short timeout keeps
                // the sweep finite without changing who wins.
                cfg.lock_timeout = std::time::Duration::from_millis(300);
            }
            let sys = System::build(cfg, clients).expect("build");
            let mut spec = standard_spec(WorkloadKind::HiCon, clients);
            spec.write_fraction = write_fraction;
            spec.hot_pages = 4;
            let layout =
                populate(sys.client(0), spec.pages, spec.objects_per_page, 64).expect("populate");
            // Page-granularity serializes the hot set almost completely;
            // a quarter of the transactions is enough to see its (flat)
            // throughput without stretching the sweep.
            let txns = if granularity == LockGranularity::Page {
                txns_per_client() / 8
            } else {
                txns_per_client()
            };
            let mut opts = HarnessOptions::new(spec, txns);
            opts.seed = 0xE2;
            let report = run_workload(&sys, &layout, None, &opts).expect("run");
            let callbacks = report.net.count(fgl::MsgKind::Callback);
            let cb_per_commit = callbacks as f64 / report.commits.max(1) as f64;
            emitter.row(
                &[
                    ("write_fraction", write_fraction.to_string()),
                    ("granularity", granularity_name(granularity).to_string()),
                    ("callback_msgs_per_commit", format!("{cb_per_commit:.4}")),
                ],
                &report.metrics,
            );
            let lock_msgs = report.net.count(fgl::MsgKind::LockReq) + callbacks;
            table.row(vec![
                f1(write_fraction * 100.0) + "%",
                granularity_name(granularity).into(),
                f1(report.throughput()),
                report.aborts.to_string(),
                f2(report.abort_rate()),
                f2(lock_msgs as f64 / report.commits.max(1) as f64),
                f2(cb_per_commit),
            ]);
        }
    }
    table.print();
    emitter.finish();
}
