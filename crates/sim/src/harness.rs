//! Workload driver: every committer a green task on one worker pool.

use crate::oracle::Oracle;
use crate::setup::DatabaseLayout;
use crate::workload::{Op, WorkloadSpec};
use fgl::{NetSnapshot, ObjectId, Result, Snapshot, System};
use fgl_common::rng::DetRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Driver parameters.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    pub spec: WorkloadSpec,
    /// Transactions each client executes (committed or given up).
    pub txns_per_client: usize,
    /// Master seed; each client derives its own stream.
    pub seed: u64,
    /// Retries after a deadlock/timeout abort before giving up on a
    /// transaction.
    pub max_retries: usize,
    /// Concurrent committers per client (each runs
    /// `txns_per_client` transactions against the same `ClientCore`).
    /// `> 1` exercises group commit: overlapping commits on one private
    /// log coalesce their forces.
    ///
    /// The LLM follows the paper's model of one transaction at a time
    /// per client: conflicting transactions of *different* clients are
    /// serialized by the GLM, but two local transactions covered by the
    /// same cached lock are not serialized against each other. Each
    /// thread therefore draws from its own workload partition (the spec
    /// sees `clients × threads` logical clients), so concurrent local
    /// transactions have disjoint footprints under partitioned workloads
    /// (PRIVATE regions, HICON hot-page slots).
    pub threads_per_client: usize,
    /// Size of the worker pool the committers run on as green tasks;
    /// `0` picks [`fgl_sched::default_workers`].
    pub event_workers: usize,
    /// Green-task stack size in KiB; `0` keeps the scheduler's current
    /// default. Harness workloads have a known shallow depth, so scaling
    /// runs shrink this well below the 256 KiB general-purpose default.
    /// Applied via
    /// [`fgl_sched::set_stack_size`] (process-wide; the
    /// `FGL_SCHED_STACK_KB` env override wins), and validated there —
    /// sizes below the floor or not page-multiples panic.
    pub sched_stack_kb: usize,
}

impl HarnessOptions {
    pub fn new(spec: WorkloadSpec, txns_per_client: usize) -> Self {
        HarnessOptions {
            spec,
            txns_per_client,
            seed: 42,
            max_retries: 10,
            threads_per_client: 1,
            event_workers: 0,
            sched_stack_kb: 0,
        }
    }
}

/// Aggregated outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    pub commits: u64,
    pub aborts: u64,
    pub elapsed: Duration,
    /// Per-commit latencies in microseconds (all clients merged).
    pub commit_latencies_us: Vec<u64>,
    /// Message-fabric delta over the run.
    pub net: NetSnapshot,
    /// Unified observability delta over the run: registry histograms
    /// (lock-wait, commit, callback RTT, …) plus every stats surface
    /// folded in as counters (see [`System::metrics_snapshot`]).
    pub metrics: Snapshot,
    /// Worker-pool threads the driver used (`0` where green tasks are
    /// unsupported and each committer ran on an OS thread of its own).
    pub driver_threads: usize,
}

impl RunReport {
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.commits as f64 / self.elapsed.as_secs_f64()
    }

    pub fn abort_rate(&self) -> f64 {
        let total = self.commits + self.aborts;
        if total == 0 {
            return 0.0;
        }
        self.aborts as f64 / total as f64
    }

    /// Latency percentile in microseconds (p in [0, 100]).
    pub fn latency_us(&self, p: f64) -> u64 {
        if self.commit_latencies_us.is_empty() {
            return 0;
        }
        let mut v = self.commit_latencies_us.clone();
        v.sort_unstable();
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    pub fn messages_per_commit(&self) -> f64 {
        if self.commits == 0 {
            return 0.0;
        }
        self.net.total_messages() as f64 / self.commits as f64
    }
}

/// Per-committer tally: (commits, aborts, commit latencies in µs).
type DriverResult = Result<(u64, u64, Vec<u64>)>;

/// Run the workload: `threads_per_client` committers per client, each a
/// green task on a [`fgl_sched::run_scoped`] worker pool running
/// `txns_per_client` transactions, deadlock/timeout aborts retried.
/// Committed write sets are recorded into `oracle` when provided.
pub fn run_workload(
    sys: &System,
    layout: &DatabaseLayout,
    oracle: Option<&Arc<Oracle>>,
    opts: &HarnessOptions,
) -> Result<RunReport> {
    let n = sys.clients.len();
    let threads = n * opts.threads_per_client.max(1);
    let before = sys.net.snapshot();
    let metrics_before = sys.metrics_snapshot();
    let sched_before = fgl_sched::sched_stats();
    let start = Instant::now();
    let mut master = DetRng::new(opts.seed);
    let seeds: Vec<u64> = (0..threads)
        .map(|t| master.fork(t as u64).next_u64())
        .collect();

    // One committer body, run as one green task per committer.
    let oracle = oracle.cloned();
    let drive = |t: usize| -> DriverResult {
        let client = &sys.clients[t % n];
        let mut rng = DetRng::new(seeds[t]);
        let mut commits = 0u64;
        let mut aborts = 0u64;
        let mut latencies = Vec::with_capacity(opts.txns_per_client);
        for _ in 0..opts.txns_per_client {
            // Partition by committer, not by client: each committer is a
            // logical workload client so concurrent local transactions
            // stay disjoint (see `threads_per_client`). With one
            // committer per client this is the identity.
            let template = opts.spec.next_txn(t, threads, &mut rng);
            let mut attempts = 0;
            loop {
                match run_one_txn(
                    client,
                    &template,
                    layout.object_size,
                    oracle.as_deref(),
                    &mut rng,
                ) {
                    Ok(latency) => {
                        commits += 1;
                        latencies.push(latency.as_micros() as u64);
                        break;
                    }
                    Err(e) if e.is_transaction_abort() => {
                        aborts += 1;
                        attempts += 1;
                        if attempts > opts.max_retries {
                            break; // give up on this template
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((commits, aborts, latencies))
    };

    if opts.sched_stack_kb > 0 {
        fgl_sched::set_stack_size(opts.sched_stack_kb * 1024);
    }
    let slots: Vec<Mutex<Option<DriverResult>>> = (0..threads).map(|_| Mutex::new(None)).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
        .map(|t| {
            let drive = &drive;
            let slot = &slots[t];
            Box::new(move || {
                *slot.lock().unwrap() = Some(drive(t));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let workers = if opts.event_workers == 0 {
        fgl_sched::default_workers()
    } else {
        opts.event_workers
    };
    let driver_threads = fgl_sched::run_scoped(workers, jobs);
    let results: Vec<DriverResult> = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("committer task ran"))
        .collect();

    let mut report = RunReport {
        elapsed: start.elapsed(),
        driver_threads,
        ..RunReport::default()
    };
    for r in results {
        let (c, a, lat) = r?;
        report.commits += c;
        report.aborts += a;
        report.commit_latencies_us.extend(lat);
    }
    report.net = sys.net.snapshot().delta_since(&before);
    report.metrics = sys.metrics_snapshot().delta_since(&metrics_before);
    // Scheduler profile for the interval (counters are deltas; the stack
    // size is a gauge).
    let sched = fgl_sched::sched_stats().delta_since(&sched_before);
    report.metrics.fold("sched_", sched.counts());
    Ok(report)
}

/// Execute one transaction template; returns the commit latency. Every
/// read is checked against the oracle ([`Oracle::check_read`]), and the
/// committed write set is recorded into it inside the commit's
/// pre-lock-release window so oracle order equals serialization order.
fn run_one_txn(
    client: &Arc<fgl::ClientCore>,
    template: &crate::workload::TxnTemplate,
    object_size: usize,
    oracle: Option<&Oracle>,
    rng: &mut DetRng,
) -> Result<Duration> {
    let txn = client.begin()?;
    let mut writes: Vec<(ObjectId, Option<Vec<u8>>)> = Vec::new();
    for op in &template.ops {
        match op {
            Op::Read(o) => {
                let got = client.read(txn, *o)?;
                if let Some(oracle) = oracle {
                    let own = writes.iter().rev().find(|(w, _)| w == o).map(|(_, v)| v);
                    oracle.check_read(*o, &got, own);
                }
            }
            Op::Write(o) => {
                let mut value = vec![0u8; object_size];
                rng.fill_bytes(&mut value);
                client.write(txn, *o, &value)?;
                writes.push((*o, Some(value)));
            }
            Op::Resize(o) => {
                // Grow then shrink: exercises the structural (page-X)
                // path while leaving the committed value unchanged.
                client.resize(txn, *o, object_size + 8)?;
                client.resize(txn, *o, object_size)?;
            }
        }
    }
    let commit_start = Instant::now();
    client.commit_with(txn, || {
        if let Some(o) = oracle {
            o.commit_writes(&writes);
        }
    })?;
    Ok(commit_start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::populate;
    use crate::workload::WorkloadKind;
    use fgl::{System, SystemConfig};

    fn small_spec(kind: WorkloadKind) -> WorkloadSpec {
        let mut s = WorkloadSpec::new(kind);
        s.pages = 16;
        s.objects_per_page = 8;
        s.ops_per_txn = 4;
        s
    }

    #[test]
    fn single_client_run_commits_everything() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let spec = small_spec(WorkloadKind::Private);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let report = run_workload(&sys, &layout, None, &HarnessOptions::new(spec, 20)).unwrap();
        assert_eq!(report.commits, 20);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.commit_latencies_us.len(), 20);
        // The unified metrics delta must cover the run: one commit
        // histogram sample per commit, and the folded-in counters.
        let commit_hist = report.metrics.hist(fgl::HistKind::Commit).unwrap();
        assert_eq!(commit_hist.count, 20);
        assert_eq!(report.metrics.counters["client_commits"], 20);
    }

    #[test]
    fn multi_committer_threads_share_one_client() {
        let sys = System::build(SystemConfig::default(), 2).unwrap();
        let spec = small_spec(WorkloadKind::Private);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let mut opts = HarnessOptions::new(spec, 10);
        opts.threads_per_client = 4;
        let report = run_workload(&sys, &layout, None, &opts).unwrap();
        // 2 clients × 4 threads × 10 txns, private pages ⇒ no aborts.
        assert_eq!(report.commits, 80);
        // Every ClientLog commit resolves through the group-commit path:
        // it either forced the private log or piggybacked on a cohort
        // member's force.
        let forced = report.metrics.counters["client_commits_forced"];
        let piggybacked = report.metrics.counters["client_commits_piggybacked"];
        assert_eq!(forced + piggybacked, 80);
    }

    #[test]
    fn multi_committer_run_with_oracle_verifies() {
        let sys = System::build(SystemConfig::default(), 2).unwrap();
        let spec = small_spec(WorkloadKind::Private);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let mut opts = HarnessOptions::new(spec, 15);
        opts.threads_per_client = 4;
        let report = run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        assert!(report.commits > 0);
        let verify = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(verify.is_clean(), "{:?}", verify.mismatches);
    }

    #[test]
    fn multi_client_run_with_oracle_verifies() {
        let sys = System::build(SystemConfig::default(), 3).unwrap();
        let spec = small_spec(WorkloadKind::HotCold);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let report =
            run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(spec, 15)).unwrap();
        assert!(report.commits > 0);
        let verify = oracle.verify_via_reads(sys.client(1)).unwrap();
        assert!(
            verify.is_clean(),
            "oracle mismatch on {:?}",
            verify.mismatches
        );
    }

    #[test]
    fn hicon_concurrent_same_page_updates_verify() {
        let sys = System::build(SystemConfig::default(), 4).unwrap();
        let mut spec = small_spec(WorkloadKind::HiCon);
        spec.write_fraction = 0.8;
        spec.hot_pages = 2;
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let report =
            run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(spec, 10)).unwrap();
        assert!(report.commits > 0);
        let verify = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(
            verify.is_clean(),
            "oracle mismatch on {:?}",
            verify.mismatches
        );
    }

    #[test]
    fn event_scheduler_runs_more_clients_than_workers() {
        let sys = System::build(SystemConfig::default(), 8).unwrap();
        let spec = small_spec(WorkloadKind::Private);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let report =
            run_workload(&sys, &layout, Some(&oracle), &HarnessOptions::new(spec, 5)).unwrap();
        assert_eq!(report.commits, 40);
        assert_eq!(report.aborts, 0);
        // 8 committers multiplexed onto the fixed worker pool.
        assert!(
            report.driver_threads <= fgl_sched::default_workers(),
            "event mode used {} driver threads",
            report.driver_threads
        );
        let verify = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(verify.is_clean(), "{:?}", verify.mismatches);
    }

    #[test]
    fn report_percentiles_are_ordered() {
        let r = RunReport {
            commits: 4,
            commit_latencies_us: vec![10, 20, 30, 40],
            ..Default::default()
        };
        assert!(r.latency_us(50.0) <= r.latency_us(95.0));
        assert_eq!(r.latency_us(0.0), 10);
        assert_eq!(r.latency_us(100.0), 40);
    }
}
