//! Shared scaffolding for the experiment binaries (`ci/experiments.txt`,
//! `DESIGN.md`).
//!
//! Every experiment binary accepts `--quick` to shrink the sweep (used by
//! CI and `run_experiments.sh --quick`); defaults are sized to finish in
//! tens of seconds on a laptop.

// Experiment sweeps mutate one config field at a time; the
// default-then-assign pattern is the point.
#![allow(clippy::field_reassign_with_default)]

use fgl::{CommitPolicy, LockGranularity, Snapshot, SystemConfig, UpdatePolicy};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use std::path::PathBuf;
use std::time::Duration;

/// Simulated device/network costs shared by the experiments: a 1996-ish
/// ratio (disk force ≫ LAN hop ≫ CPU) scaled down so sweeps finish
/// quickly. Only *relative* shapes matter (see DESIGN.md).
pub fn experiment_config() -> SystemConfig {
    SystemConfig {
        disk_latency: Duration::from_micros(400),
        net_latency: Duration::from_micros(40),
        lock_timeout: Duration::from_secs(2),
        ..Default::default()
    }
}

/// A zero-latency config for pure-algorithm measurements.
pub fn fast_config() -> SystemConfig {
    SystemConfig::default()
}

/// The standard experiment workload geometry.
pub fn standard_spec(kind: WorkloadKind, clients: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new(kind);
    spec.pages = (16 * clients.max(1)).max(32);
    spec.objects_per_page = 16;
    spec.ops_per_txn = 8;
    spec.write_fraction = 0.3;
    spec
}

/// `--quick` flag handling for experiment binaries.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Transactions per client for a sweep point.
pub fn txns_per_client() -> usize {
    if quick_mode() {
        40
    } else {
        150
    }
}

/// Client counts swept by the scalability experiments.
pub fn client_sweep() -> Vec<usize> {
    if quick_mode() {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 12, 16]
    }
}

/// Human-readable name for a commit policy.
pub fn policy_name(p: CommitPolicy) -> &'static str {
    match p {
        CommitPolicy::ClientLog => "client-log",
        CommitPolicy::ServerLog => "server-log",
        CommitPolicy::ShipPagesAtCommit => "ship-pages",
    }
}

/// Human-readable name for a lock granularity.
pub fn granularity_name(g: LockGranularity) -> &'static str {
    match g {
        LockGranularity::Object => "object",
        LockGranularity::Page => "page",
        LockGranularity::Adaptive => "adaptive",
    }
}

/// Human-readable name for an update policy.
pub fn update_policy_name(u: UpdatePolicy) -> &'static str {
    match u {
        UpdatePolicy::MergeCopies => "merge-copies",
        UpdatePolicy::UpdateToken => "update-token",
    }
}

/// Standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("==== {id} ====");
    println!("{claim}");
    println!();
}

/// Machine-readable metrics output for the experiment binaries.
///
/// Each sweep point becomes one row: the sweep parameters plus the
/// unified metrics [`Snapshot`] delta for that run.
/// [`finish`](MetricsEmitter::finish) writes
/// `$FGL_METRICS_DIR/<experiment>.json` (default `./metrics/`) with
/// schema
///
/// ```json
/// {"experiment": "e1", "rows": [{"params": {...}, "metrics": {...}}]}
/// ```
///
/// where each `metrics` object is [`Snapshot::to_json`] (counters +
/// histograms with p50/p95/p99).
pub struct MetricsEmitter {
    experiment: String,
    rows: Vec<String>,
}

impl MetricsEmitter {
    pub fn new(experiment: &str) -> MetricsEmitter {
        MetricsEmitter {
            experiment: experiment.to_string(),
            rows: Vec::new(),
        }
    }

    /// Record one sweep point. `params` are (name, value) pairs; numeric
    /// values pass through bare, anything else is quoted.
    pub fn row(&mut self, params: &[(&str, String)], metrics: &Snapshot) {
        let params_json: Vec<String> = params
            .iter()
            .map(|(k, v)| {
                if v.parse::<f64>().is_ok() {
                    format!("\"{k}\": {v}")
                } else {
                    format!("\"{k}\": \"{v}\"")
                }
            })
            .collect();
        self.rows.push(format!(
            "{{\"params\": {{{}}}, \"metrics\": {}}}",
            params_json.join(", "),
            metrics.to_json()
        ));
    }

    /// Adopt an already-encoded `{"params": ..., "metrics": ...}` row —
    /// used by sweeps that isolate each cell in a child process (E16) and
    /// merge the children's rows into one file.
    pub fn raw_row(&mut self, row_json: String) {
        self.rows.push(row_json);
    }

    /// The encoded rows collected so far, in emission order. A cell
    /// subprocess uses this to hand its row(s) to the parent sweep.
    pub fn rows_json(&self) -> &[String] {
        &self.rows
    }

    /// Where the JSON will land: `$FGL_METRICS_DIR` or `./metrics`.
    pub fn out_path(&self) -> PathBuf {
        let dir = std::env::var("FGL_METRICS_DIR").unwrap_or_else(|_| "metrics".to_string());
        PathBuf::from(dir).join(format!("{}.json", self.experiment))
    }

    /// Write the collected rows; prints the path so runs are traceable.
    pub fn finish(&self) {
        let path = self.out_path();
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("metrics: cannot create {}: {e}", parent.display());
                return;
            }
        }
        let json = format!(
            "{{\"experiment\": \"{}\", \"rows\": [\n{}\n]}}\n",
            self.experiment,
            self.rows.join(",\n")
        );
        match std::fs::write(&path, json) {
            Ok(()) => println!("metrics written to {}", path.display()),
            Err(e) => eprintln!("metrics: cannot write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        experiment_config().validate().unwrap();
        fast_config().validate().unwrap();
    }

    #[test]
    fn spec_scales_with_clients() {
        let s = standard_spec(WorkloadKind::HotCold, 8);
        assert!(s.pages >= 128);
        let s1 = standard_spec(WorkloadKind::HotCold, 1);
        assert!(s1.pages >= 32);
    }
}
