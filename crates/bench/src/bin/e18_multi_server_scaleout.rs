//! **E18 — Multi-server scale-out** (partitioned page service).
//!
//! Claim: with `server_instances = N`, pages partition across N
//! independent page servers by `PageId % N`, and the §4.1 server-logging
//! commit force — one serialized simulated-disk write per commit, per
//! server — multiplies its aggregate capacity by N for partition-local
//! transactions: each instance forces its own log behind its own mutex,
//! and the touched-page hint routes a local commit to exactly one
//! instance. Client-based logging never had the serialized-force
//! bottleneck (clients force their own logs in parallel), so its gain is
//! the per-instance hot-path parallelism alone — the server-log speedup
//! must exceed it, the difference being the recovered force capacity.
//!
//! Sweep: instances {1,2,4} × cross-partition probability {0, 0.2},
//! PRIVATE workload aligned to the clients' home partitions
//! (`partition_stride = instances`); every cell oracle-verified. The
//! 20%-cross cells exercise cross-server commits (a commit fans out to
//! every touched instance and waits for the max, not the sum, of the
//! forces) and the cross-server deadlock path.

use fgl::{CommitPolicy, System};
use fgl_bench::{
    banner, experiment_config, policy_name, quick_mode, standard_spec, txns_per_client,
    MetricsEmitter,
};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::table::{f1, f2, Table};
use fgl_sim::workload::WorkloadKind;

fn main() {
    banner(
        "E18: multi-server scale-out",
        "pages partition across N server instances by PageId % N; the §4.1 \
         serialized per-server commit force scales with N on partition-local \
         workloads (client-log isolates the hot-path share of the gain); \
         every cell oracle-verified",
    );
    let instance_sweep: Vec<usize> = if quick_mode() {
        vec![1, 4]
    } else {
        vec![1, 2, 4]
    };
    let clients = if quick_mode() { 4 } else { 8 };
    let cross_sweep: &[f64] = if quick_mode() { &[0.0] } else { &[0.0, 0.2] };

    let mut emitter = MetricsEmitter::new("e18_multi_server_scaleout");
    let mut table = Table::new(&[
        "clients",
        "instances",
        "cross",
        "policy",
        "commits/s",
        "p50 commit us",
        "p95 commit us",
        "ships",
        "aborts",
    ]);
    // (cross, policy, instances) -> commits/s, for the speedup summary.
    let mut cells: Vec<(f64, CommitPolicy, usize, f64)> = Vec::new();

    for &cross in cross_sweep {
        for policy in [CommitPolicy::ClientLog, CommitPolicy::ServerLog] {
            for &instances in &instance_sweep {
                let cfg = experiment_config()
                    .with_commit_policy(policy)
                    .with_server_instances(instances);
                let sys = System::build(cfg, clients).expect("build");
                let mut spec = standard_spec(WorkloadKind::Private, clients);
                spec.partition_stride = instances;
                spec.cross_partition_probability = cross;
                let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 64)
                    .expect("populate");
                let oracle = Oracle::new();
                oracle.seed(sys.client(0), &layout).expect("seed oracle");

                // Per-client commit counts before the measured run, so the
                // per-instance attribution below is a clean delta.
                let before: Vec<u64> = (0..clients)
                    .map(|i| sys.client(i).stats().commits)
                    .collect();

                let mut opts = HarnessOptions::new(spec, txns_per_client());
                opts.seed = 0xE18 ^ (instances as u64) << 8;
                let mut report = run_workload(&sys, &layout, Some(&oracle), &opts).expect("run");
                // Per-client commit deltas, read before the verify pass
                // commits its own read transaction.
                let after: Vec<u64> = (0..clients)
                    .map(|i| sys.client(i).stats().commits)
                    .collect();
                let verify = oracle.verify_via_reads(sys.client(0)).expect("verify");
                assert!(
                    verify.is_clean(),
                    "oracle mismatch at instances={instances} cross={cross} \
                     policy={policy:?}: {verify:?}"
                );

                // Attribute commits to the committing client's home
                // instance (client i lives on partition i % N under the
                // aligned workload) and nest them under srv{k}_ alongside
                // the per-instance server counters.
                let mut per_inst = vec![0u64; instances];
                for (i, b) in before.iter().enumerate() {
                    per_inst[i % instances] += after[i] - b;
                }
                for (k, v) in per_inst.iter().enumerate() {
                    report.metrics.set_counter(&format!("srv{k}_commits"), *v);
                }

                emitter.row(
                    &[
                        ("clients", clients.to_string()),
                        ("instances", instances.to_string()),
                        ("cross", cross.to_string()),
                        ("policy", policy_name(policy).to_string()),
                    ],
                    &report.metrics,
                );
                cells.push((cross, policy, instances, report.throughput()));
                let ships: u64 = sys.servers.iter().map(|s| s.stats().commit_log_ships).sum();
                table.row(vec![
                    clients.to_string(),
                    instances.to_string(),
                    format!("{:.0}%", cross * 100.0),
                    policy_name(policy).into(),
                    f1(report.throughput()),
                    report.latency_us(50.0).to_string(),
                    report.latency_us(95.0).to_string(),
                    ships.to_string(),
                    report.aborts.to_string(),
                ]);
            }
        }
    }
    table.print();

    // Scale-out summary: aggregate commits/s relative to one instance.
    println!();
    println!("speedup vs instances=1 (same total clients):");
    let mut summary = Table::new(&["cross", "policy", "instances", "speedup"]);
    for &(cross, policy, instances, tput) in &cells {
        if instances == 1 {
            continue;
        }
        let base = cells
            .iter()
            .find(|(c, p, n, _)| *c == cross && *p == policy && *n == 1)
            .map(|(_, _, _, t)| *t)
            .unwrap_or(f64::NAN);
        summary.row(vec![
            format!("{:.0}%", cross * 100.0),
            policy_name(policy).into(),
            instances.to_string(),
            f2(tput / base),
        ]);
    }
    summary.print();
    emitter.finish();
}
