//! **E10 — Adaptive granularity: lock traffic on private data** (§2,
//! \[3\]).
//!
//! The paper adopts the adaptive scheme of Carey, Franklin &
//! Zaharioudakis: clients take *page* locks until a conflict de-escalates
//! them. E2 shows adaptivity matching object locks under contention; this
//! experiment shows the other half of the bargain — on PRIVATE and
//! HOTCOLD workloads one page lock covers all of a page's objects, so the
//! lock-request traffic collapses versus pure object locking.

use fgl::{LockGranularity, MsgKind, System};
use fgl_bench::{
    banner, experiment_config, granularity_name, standard_spec, txns_per_client, MetricsEmitter,
};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::setup::populate;
use fgl_sim::table::{f1, f2, Table};
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E10: adaptive granularity lock traffic on low-sharing workloads",
        "page locks amortize over all objects of a page; adaptivity keeps \
         that win where there is no sharing and de-escalates where there is",
    );
    let clients = if fgl_bench::quick_mode() { 2 } else { 4 };
    let mut emitter = MetricsEmitter::new("e10_adaptive_traffic");
    let mut table = Table::new(&[
        "workload",
        "granularity",
        "commits/s",
        "lock reqs/commit",
        "cb/commit",
        "local grant ratio",
    ]);
    for kind in [
        WorkloadKind::Private,
        WorkloadKind::HotCold,
        WorkloadKind::Uniform,
    ] {
        for granularity in [LockGranularity::Object, LockGranularity::Adaptive] {
            let cfg = experiment_config().with_granularity(granularity);
            let sys = System::build(cfg, clients).expect("build");
            let mut spec = standard_spec(kind, clients);
            spec.write_fraction = 0.4;
            let layout =
                populate(sys.client(0), spec.pages, spec.objects_per_page, 64).expect("populate");
            let mut opts = HarnessOptions::new(spec, txns_per_client());
            opts.seed = 0xE10;
            let report = run_workload(&sys, &layout, None, &opts).expect("run");
            let cb_per_commit =
                report.net.count(MsgKind::Callback) as f64 / report.commits.max(1) as f64;
            emitter.row(
                &[
                    ("workload", kind.name().to_string()),
                    ("granularity", granularity_name(granularity).to_string()),
                    ("callback_msgs_per_commit", format!("{cb_per_commit:.4}")),
                ],
                &report.metrics,
            );
            let stats: Vec<_> = sys.clients.iter().map(|c| c.stats()).collect();
            let local: u64 = stats.iter().map(|s| s.local_grants).sum();
            let global: u64 = stats.iter().map(|s| s.global_lock_requests).sum();
            let local_ratio = local as f64 / (local + global).max(1) as f64;
            table.row(vec![
                kind.name().into(),
                granularity_name(granularity).into(),
                f1(report.throughput()),
                f2(report.net.count(MsgKind::LockReq) as f64 / report.commits.max(1) as f64),
                f2(cb_per_commit),
                f2(local_ratio),
            ]);
        }
    }
    table.print();
    emitter.finish();
}
