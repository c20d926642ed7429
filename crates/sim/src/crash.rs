//! Crash-matrix orchestration (§3.3–§3.5 validation, experiment E8).
//!
//! A scenario runs a workload phase to build up dirty caches, unshipped
//! pages and live private logs, then crashes the chosen parties, runs the
//! paper's recovery procedures, verifies the committed state against the
//! oracle, and finally runs a second workload phase to prove the system
//! is fully operational again.

use crate::harness::{run_workload, HarnessOptions, RunReport};
use crate::oracle::{Oracle, VerifyReport};
use crate::setup::{populate, DatabaseLayout};
use crate::workload::WorkloadSpec;
use fgl::{ObjectId, Result, System, SystemConfig};
use std::time::Duration;

/// Which parties crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// One client crashes and recovers (§3.3).
    Client(usize),
    /// The server crashes and restarts (§3.4).
    Server,
    /// Several clients crash simultaneously (§3.3 xN).
    MultiClient(Vec<usize>),
    /// Server plus clients crash together — the complex crash (§3.5).
    Complex(Vec<usize>),
    /// One server instance of a multi-server system restarts (§3.4
    /// against its residue class only) while the others keep serving.
    PartitionRestart(usize),
}

impl CrashKind {
    pub fn name(&self) -> String {
        match self {
            CrashKind::Client(i) => format!("client-{i}"),
            CrashKind::Server => "server".into(),
            CrashKind::MultiClient(v) => format!("clients-x{}", v.len()),
            CrashKind::Complex(v) => format!("complex(server+{})", v.len()),
            CrashKind::PartitionRestart(i) => format!("partition-{i}"),
        }
    }

    /// Only clients crash: the server stays up, so no §3.5 wait on a
    /// recovering client may run out.
    pub fn is_client_only(&self) -> bool {
        matches!(self, CrashKind::Client(_) | CrashKind::MultiClient(_))
    }
}

/// Outcome of one crash scenario.
#[derive(Clone, Debug)]
pub struct CrashScenarioReport {
    pub kind: CrashKind,
    pub kind_name: String,
    pub phase1: RunReport,
    pub recovery_elapsed: Duration,
    pub verify_after_recovery: VerifyReport,
    pub phase2: RunReport,
    pub verify_final: VerifyReport,
    /// Reads of either phase that returned something other than what the
    /// oracle held at that moment ([`Oracle::stale_reads`]), in the order
    /// seen.
    pub stale_reads: Vec<ObjectId>,
    /// Whole-scenario unified metrics snapshot (both phases + recovery);
    /// carries the `*_recovery_*` phase counters.
    pub metrics: fgl::Snapshot,
}

impl CrashScenarioReport {
    /// Both read-backs match the oracle, no read of either phase was
    /// stale when it returned, and a client-only crash ran out no §3.5
    /// wait: there a timeout is a silent fallback.
    pub fn is_clean(&self) -> bool {
        self.verify_after_recovery.is_clean()
            && self.verify_final.is_clean()
            && self.stale_reads.is_empty()
            && (self.recovery_fetch_timeouts() == 0 || !self.kind.is_client_only())
    }

    /// `server_recovery_fetch_timeouts` over the scenario: §3.5 waits on a
    /// recovering client that ran out and served a possibly stale copy.
    pub fn recovery_fetch_timeouts(&self) -> u64 {
        self.metrics
            .counters
            .get("server_recovery_fetch_timeouts")
            .copied()
            .unwrap_or(0)
    }
}

/// Build a fresh system, run `phase` transactions per client, crash per
/// `kind`, recover, verify, run a second phase, verify again. Recovery
/// runs between the phases on the orchestrating thread, not on a task.
pub fn run_crash_scenario(
    cfg: SystemConfig,
    n_clients: usize,
    kind: CrashKind,
    spec: WorkloadSpec,
    txns_per_phase: usize,
    seed: u64,
) -> Result<CrashScenarioReport> {
    let sys = System::build(cfg, n_clients)?;
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32)?;
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout)?;

    let mut opts = HarnessOptions::new(spec, txns_per_phase);
    opts.seed = seed;
    let phase1 = run_workload(&sys, &layout, Some(&oracle), &opts)?;

    let recovery_start = std::time::Instant::now();
    match &kind {
        CrashKind::Client(i) => {
            sys.clients[*i].crash();
            sys.clients[*i].recover()?;
        }
        CrashKind::Server => {
            // "The server" is the whole page service: every instance of a
            // multi-server system drops and recovers (each against its own
            // residue class). Identical to the classic scenario at N = 1.
            for s in &sys.servers {
                s.crash();
            }
            for s in &sys.servers {
                s.restart_recovery()?;
            }
        }
        CrashKind::MultiClient(ids) => {
            for i in ids {
                sys.clients[*i].crash();
            }
            recover_in_parallel(&sys, ids)?;
        }
        CrashKind::Complex(ids) => {
            // Clients drop first (their volatile state is gone when the
            // server comes back asking), then the server.
            for i in ids {
                sys.clients[*i].crash();
            }
            for s in &sys.servers {
                s.crash();
            }
            // Server restart runs against the operational clients (§3.5)…
            for s in &sys.servers {
                s.restart_recovery()?;
            }
            // …and the crashed clients then run client recovery — in
            // parallel, since one client's replay may need another's
            // partially recovered state (§3.4 step 3).
            recover_in_parallel(&sys, ids)?;
        }
        CrashKind::PartitionRestart(i) => {
            assert!(
                *i < sys.servers.len(),
                "partition {i} does not exist (instances={})",
                sys.servers.len()
            );
            sys.servers[*i].crash();
            sys.servers[*i].restart_recovery()?;
        }
    }
    let recovery_elapsed = recovery_start.elapsed();

    // Verify through a client that did not crash if one exists.
    let verifier = match &kind {
        CrashKind::Client(i) => sys.client((*i + 1) % n_clients),
        CrashKind::MultiClient(ids) | CrashKind::Complex(ids) => {
            let alive = (0..n_clients).find(|i| !ids.contains(i)).unwrap_or(0);
            sys.client(alive)
        }
        CrashKind::Server | CrashKind::PartitionRestart(_) => sys.client(0),
    };
    let verify_after_recovery = oracle.verify_via_reads(verifier)?;

    opts.seed = seed.wrapping_add(1);
    let phase2 = run_workload(&sys, &layout, Some(&oracle), &opts)?;
    let verify_final = oracle.verify_via_reads(sys.client(0))?;

    let metrics = sys.metrics_snapshot();
    Ok(CrashScenarioReport {
        kind_name: kind.name(),
        kind,
        phase1,
        recovery_elapsed,
        verify_after_recovery,
        phase2,
        verify_final,
        stale_reads: oracle.stale_reads(),
        metrics,
    })
}

/// Recover several crashed clients concurrently (their replays may
/// depend on each other's progress, §3.4/§3.5).
fn recover_in_parallel(sys: &System, ids: &[usize]) -> Result<()> {
    for r in fgl_sched::fan_out(ids.to_vec(), |i| sys.clients[i].recover()) {
        r?;
    }
    Ok(())
}

/// Convenience: populate + seed an oracle on an existing system.
pub fn prepare(
    sys: &System,
    spec: &WorkloadSpec,
) -> Result<(DatabaseLayout, std::sync::Arc<Oracle>)> {
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32)?;
    let oracle = Oracle::new();
    oracle.seed(sys.client(0), &layout)?;
    Ok((layout, oracle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    fn spec() -> WorkloadSpec {
        let mut s = WorkloadSpec::new(WorkloadKind::HotCold);
        s.pages = 12;
        s.objects_per_page = 8;
        s.ops_per_txn = 4;
        s.write_fraction = 0.5;
        s
    }

    #[test]
    fn client_crash_scenario_is_clean() {
        let r = run_crash_scenario(
            SystemConfig::default(),
            3,
            CrashKind::Client(1),
            spec(),
            10,
            1,
        )
        .unwrap();
        assert!(
            r.is_clean(),
            "{:?} / {:?} / stale {:?} / fetch timeouts {}",
            r.verify_after_recovery,
            r.verify_final,
            r.stale_reads,
            r.recovery_fetch_timeouts()
        );
        assert!(r.phase2.commits > 0);
    }

    #[test]
    fn server_crash_scenario_is_clean() {
        let r = run_crash_scenario(SystemConfig::default(), 3, CrashKind::Server, spec(), 10, 2)
            .unwrap();
        assert!(
            r.is_clean(),
            "{:?} / {:?}",
            r.verify_after_recovery,
            r.verify_final
        );
    }

    /// Single-partition restart in a two-instance system: the restarting
    /// instance re-runs the §3.4 gather for its residue class only, the
    /// sibling keeps serving, and the oracle stays clean across both
    /// phases.
    #[test]
    fn partition_restart_scenario_is_clean() {
        for partition in 0..2 {
            let r = run_crash_scenario(
                SystemConfig::default().with_server_instances(2),
                3,
                CrashKind::PartitionRestart(partition),
                spec(),
                10,
                4 + partition as u64,
            )
            .unwrap();
            assert!(
                r.is_clean(),
                "partition {partition}: {:?} / {:?}",
                r.verify_after_recovery,
                r.verify_final
            );
            assert!(r.phase2.commits > 0);
        }
    }

    /// The full matrix stays clean when every scenario runs against a
    /// partitioned (two-instance) server on a cross-partition workload.
    #[test]
    fn crash_matrix_is_clean_with_two_server_instances() {
        let kinds = [
            CrashKind::Client(1),
            CrashKind::Server,
            CrashKind::MultiClient(vec![0, 2]),
            CrashKind::Complex(vec![1]),
            CrashKind::PartitionRestart(1),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let name = kind.name();
            let r = run_crash_scenario(
                SystemConfig::default().with_server_instances(2),
                3,
                kind,
                spec(),
                10,
                10 + i as u64,
            )
            .unwrap();
            assert!(
                r.is_clean(),
                "{name} (seed {}): {:?} / {:?} / stale {:?} / fetch timeouts {}",
                10 + i,
                r.verify_after_recovery,
                r.verify_final,
                r.stale_reads,
                r.recovery_fetch_timeouts()
            );
        }
    }

    #[test]
    fn complex_crash_scenario_is_clean() {
        let r = run_crash_scenario(
            SystemConfig::default(),
            3,
            CrashKind::Complex(vec![1]),
            spec(),
            10,
            3,
        )
        .unwrap();
        assert!(
            r.is_clean(),
            "{:?} / {:?}",
            r.verify_after_recovery,
            r.verify_final
        );
    }
}
