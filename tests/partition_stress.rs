//! Partitioned page-service tests: a multi-threaded stress run against
//! many server instances with oracle verification, and crash recovery
//! cycles that restart every instance. (The cross-instance deadlock
//! regression lives with the coordinator wiring in `crates/core`.)

use fgl::{System, SystemConfig};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

#[test]
fn many_instance_server_stress_oracle_verified() {
    // Six client threads hammering an eight-instance page service under
    // high contention; the oracle must see exactly the committed values.
    let cfg = SystemConfig::default().with_server_instances(8);
    let sys = System::build(cfg, 6).unwrap();
    let mut spec = WorkloadSpec::new(WorkloadKind::HiCon);
    spec.pages = 32;
    spec.objects_per_page = 12;
    spec.ops_per_txn = 6;
    spec.write_fraction = 0.5;
    spec.structural_fraction = 0.1;
    spec.hot_pages = 3;
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 48).unwrap();
    // Pages must actually be spread over several instances.
    let instances_used = sys
        .servers
        .iter()
        .filter(|s| !s.allocated_pages().is_empty())
        .count();
    assert!(
        instances_used >= 4,
        "allocation must spread across instances, used only {instances_used}"
    );
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    let mut opts = HarnessOptions::new(spec, 30);
    opts.seed = 0x54A2D;
    let report = run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
    assert!(report.commits > 100);
    let v = oracle.verify_via_reads(sys.client(3)).unwrap();
    assert!(v.is_clean(), "{:?}", v.mismatches);
}

#[test]
fn partitioned_server_survives_crash_recovery_cycles() {
    // Run load, crash every server instance (or a client), recover,
    // verify: each instance's §3.4 restart gathers only its own slice.
    let cfg = SystemConfig::default().with_server_instances(4);
    let sys = System::build(cfg, 4).unwrap();
    let mut spec = WorkloadSpec::new(WorkloadKind::Zipf);
    spec.pages = 24;
    spec.objects_per_page = 8;
    spec.ops_per_txn = 4;
    spec.write_fraction = 0.5;
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout).unwrap();
    for round in 0u64..3 {
        let mut opts = HarnessOptions::new(spec.clone(), 10);
        opts.seed = 0x54ADC0 + round;
        run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        match round % 2 {
            0 => {
                for server in &sys.servers {
                    server.crash();
                }
                for server in &sys.servers {
                    server.restart_recovery().unwrap();
                }
            }
            _ => {
                let victim = (1 + round as usize) % 4;
                sys.clients[victim].crash();
                sys.clients[victim].recover().unwrap();
            }
        }
        let verifier = sys.client((round as usize + 2) % 4);
        let v = oracle.verify_via_reads(verifier).unwrap();
        assert!(v.is_clean(), "round {round}: {:?}", v.mismatches);
    }
}
