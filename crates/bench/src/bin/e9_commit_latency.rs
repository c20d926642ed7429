//! **E9 — Commit latency anatomy** (§4.1 vs. ARIES/CSA and Versant).
//!
//! Claim: under client-based logging a commit is one force of the local
//! log; the server-logging baselines pay a network round trip plus the
//! (shared) server log force, and the Versant-shape baseline additionally
//! ships every modified page.
//!
//! Reports the commit latency distribution per policy at 1 and 8 clients.

use fgl::{CommitPolicy, System};
use fgl_bench::{
    banner, experiment_config, policy_name, standard_spec, txns_per_client, MetricsEmitter,
};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::setup::populate;
use fgl_sim::table::Table;
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E9: commit latency distribution per logging policy",
        "client-log = one local log force; server-log = round trip + shared \
         force; ship-pages adds one page ship per dirtied page",
    );
    let client_counts: Vec<usize> = if fgl_bench::quick_mode() {
        vec![1, 4]
    } else {
        vec![1, 8]
    };
    let mut emitter = MetricsEmitter::new("e9_commit_latency");
    let mut table = Table::new(&["clients", "policy", "p50 us", "p90 us", "p99 us", "max us"]);
    for &n in &client_counts {
        for policy in [
            CommitPolicy::ClientLog,
            CommitPolicy::ServerLog,
            CommitPolicy::ShipPagesAtCommit,
        ] {
            let cfg = experiment_config().with_commit_policy(policy);
            let sys = System::build(cfg, n).expect("build");
            let mut spec = standard_spec(WorkloadKind::HotCold, n);
            spec.write_fraction = 0.5;
            let layout =
                populate(sys.client(0), spec.pages, spec.objects_per_page, 64).expect("populate");
            let mut opts = HarnessOptions::new(spec, txns_per_client());
            opts.seed = 0xE9;
            let report = run_workload(&sys, &layout, None, &opts).expect("run");
            emitter.row(
                &[
                    ("clients", n.to_string()),
                    ("policy", policy_name(policy).to_string()),
                ],
                &report.metrics,
            );
            table.row(vec![
                n.to_string(),
                policy_name(policy).into(),
                report.latency_us(50.0).to_string(),
                report.latency_us(90.0).to_string(),
                report.latency_us(99.0).to_string(),
                report.latency_us(100.0).to_string(),
            ]);
        }
    }
    table.print();

    // Group commit: with several committer threads per client their
    // overlapping commits coalesce into fewer private-log forces — a
    // committer whose commit record is already covered by a cohort
    // member's force piggybacks and skips the disk entirely.
    println!();
    println!("group commit under concurrent committers (client-log policy):");
    let committers = 4;
    let mut gc_table = Table::new(&[
        "clients",
        "committers",
        "p50 us",
        "p95 us",
        "p99 us",
        "forced",
        "piggybacked",
    ]);
    for &n in &client_counts {
        let sys = System::build(experiment_config(), n).expect("build");
        let mut spec = standard_spec(WorkloadKind::Private, n);
        spec.write_fraction = 0.5;
        let layout =
            populate(sys.client(0), spec.pages, spec.objects_per_page, 64).expect("populate");
        let mut opts = HarnessOptions::new(spec, txns_per_client() / 2);
        opts.seed = 0xE9;
        opts.threads_per_client = committers;
        let report = run_workload(&sys, &layout, None, &opts).expect("run");
        let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        emitter.row(
            &[
                ("clients", n.to_string()),
                ("policy", "client-log".to_string()),
                ("committers", committers.to_string()),
                ("commit_p95_us", report.latency_us(95.0).to_string()),
            ],
            &report.metrics,
        );
        gc_table.row(vec![
            n.to_string(),
            committers.to_string(),
            report.latency_us(50.0).to_string(),
            report.latency_us(95.0).to_string(),
            report.latency_us(99.0).to_string(),
            counter("client_commits_forced").to_string(),
            counter("client_commits_piggybacked").to_string(),
        ]);
    }
    gc_table.print();
    emitter.finish();
}
