//! System-wide configuration.
//!
//! The configuration doubles as the ablation surface: the baselines the
//! paper argues against in §3.1 and §4 (page-level locking, the
//! update-token scheme, ARIES/CSA-style server-based logging) are selected
//! here rather than implemented as separate systems, so every experiment
//! runs the same code paths except for the policy under study.

use crate::error::{FglError, Result};
use std::time::Duration;

/// Granularity of concurrency control (§2, §3.1, §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockGranularity {
    /// Object-level locks with page-level intention locks — the paper's
    /// primary setting.
    Object,
    /// Page-level locks only — the shared-disk / \[17\] baseline.
    Page,
    /// Adaptive (\[3\]): clients acquire page locks until a conflict forces
    /// de-escalation to object locks on that page.
    Adaptive,
}

/// How concurrent updates by different clients to the same page are
/// reconciled (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Multiple outstanding updates; the server (and callbacks) merge page
    /// copies — the paper's approach.
    MergeCopies,
    /// An exclusive "update token" (realized as a page-level X lock on any
    /// update) serializes updaters — the \[17\]/\[18\] baseline the paper calls
    /// communication-intensive.
    UpdateToken,
}

/// Which log modes the clients' transactions may use. Orthogonal to
/// [`CommitPolicy`]: strategies other than the default require
/// `CommitPolicy::ClientLog`, because they reshape the private-log record
/// stream that the server-log baselines ship verbatim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoggingStrategyKind {
    /// The paper's client-based ARIES: physical before/after images,
    /// losers redone and then undone along their log chain — the default.
    #[default]
    ClientAries,
    /// REDO-only logging (Sauer & Härder, arXiv 1409.3682): update
    /// records carry no before-image; undo information lives in memory
    /// and is spilled to the log only when an uncommitted dirty page
    /// leaves the client. Restart skips losers in redo and undoes them
    /// from the spills.
    RedoOnly,
}

impl LoggingStrategyKind {
    /// Stable snake_case name used for metrics keys and CLI/env parsing.
    pub fn name(&self) -> &'static str {
        match self {
            LoggingStrategyKind::ClientAries => "client_aries",
            LoggingStrategyKind::RedoOnly => "redo_only",
        }
    }

    /// All strategies, in shootout order.
    pub const ALL: [LoggingStrategyKind; 2] = [
        LoggingStrategyKind::ClientAries,
        LoggingStrategyKind::RedoOnly,
    ];
}

impl std::str::FromStr for LoggingStrategyKind {
    type Err = FglError;

    fn from_str(s: &str) -> Result<Self> {
        match s.replace('-', "_").as_str() {
            "client_aries" | "aries" => Ok(LoggingStrategyKind::ClientAries),
            "redo_only" => Ok(LoggingStrategyKind::RedoOnly),
            other => Err(FglError::Config(format!(
                "unknown logging strategy {other:?} (expected client_aries or redo_only)"
            ))),
        }
    }
}

/// Which transport carries the client↔server protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process counted fabric: requests are direct method calls,
    /// deterministic and byte-accounted — the default.
    #[default]
    Sim,
    /// Real TCP sockets (loopback in the harness): length-prefixed frames
    /// over one connection per client.
    Tcp,
    /// Unix-domain sockets, same framing as TCP.
    Uds,
}

impl TransportKind {
    /// Stable snake_case name used for metrics keys and CLI/env parsing.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }

    /// All transports, in comparison order (E17).
    pub const ALL: [TransportKind; 3] =
        [TransportKind::Sim, TransportKind::Tcp, TransportKind::Uds];
}

impl std::str::FromStr for TransportKind {
    type Err = FglError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "tcp" => Ok(TransportKind::Tcp),
            "uds" | "unix" => Ok(TransportKind::Uds),
            other => Err(FglError::Config(format!(
                "unknown transport {other:?} (expected sim, tcp, or uds)"
            ))),
        }
    }
}

/// Where log records live and what commit ships (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Client-based logging: force the *private* log at commit; nothing is
    /// shipped to the server — the paper's approach.
    ClientLog,
    /// ARIES/CSA-shape baseline: ship all log records to the server at
    /// commit; the server forces its global log. Client crash recovery is
    /// then performed from the server log.
    ServerLog,
    /// Versant-shape baseline: ship all *modified pages* to the server at
    /// commit in addition to server logging.
    ShipPagesAtCommit,
}

/// Tunable parameters of a running system.
///
/// Defaults model a small workstation network: 4 KiB pages, modest caches,
/// and zero injected latency (pure algorithmic costs); benchmarks override
/// what they sweep.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Size of a database page in bytes.
    pub page_size: usize,
    /// Number of page frames in each client cache.
    pub client_cache_pages: usize,
    /// Number of page frames in the server buffer pool.
    pub server_cache_pages: usize,
    /// Capacity of each client's private log in bytes (circular).
    pub client_log_bytes: u64,
    /// Capacity of the server log in bytes (circular).
    pub server_log_bytes: u64,
    /// Lock granularity policy.
    pub granularity: LockGranularity,
    /// Concurrent-update reconciliation policy.
    pub update_policy: UpdatePolicy,
    /// Commit/logging policy.
    pub commit_policy: CommitPolicy,
    /// Which log modes client transactions may use (DESIGN §9).
    pub logging_strategy: LoggingStrategyKind,
    /// A client takes a fuzzy checkpoint after this many log records.
    pub client_checkpoint_every: u64,
    /// The server takes a fuzzy checkpoint after this many log records.
    pub server_checkpoint_every: u64,
    /// Lock-wait timeout backstop (deadlocks are normally found by the
    /// waits-for graph at the server).
    pub lock_timeout: Duration,
    /// Simulated latency added to every message delivery (one way).
    pub net_latency: Duration,
    /// Simulated latency added to every disk I/O (log force, page write).
    pub disk_latency: Duration,
    /// Number of independent server *instances* (partitioned scale-out).
    /// Pages are partitioned across instances by `PageId %
    /// server_instances`; each instance is a full `ServerCore` — its own
    /// GLM, store partition, DCT, server log, checkpoints and §4.1
    /// commit-log ship — and clients route requests through a
    /// `PartitionedServer`. `1` reproduces the single-server system.
    pub server_instances: usize,
    /// Per-thread flight-recorder ring capacity (events retained before
    /// the oldest is evicted). Raise it for trace-assembly runs that need
    /// the whole event window; evictions are counted in the
    /// `ring_dropped_events` metric either way.
    pub obs_ring_entries: usize,
    /// Which transport carries the protocol: the in-process counted
    /// fabric (deterministic default) or real sockets (TCP/UDS) speaking
    /// the `fgl-net` frame codec. Socket transports ignore `net_latency`
    /// (the wire supplies its own) and cap `page_size` at 32 KiB (frame
    /// page-length fields are 16-bit).
    pub transport: TransportKind,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            page_size: 4096,
            client_cache_pages: 64,
            server_cache_pages: 256,
            client_log_bytes: 8 * 1024 * 1024,
            server_log_bytes: 32 * 1024 * 1024,
            granularity: LockGranularity::Object,
            update_policy: UpdatePolicy::MergeCopies,
            commit_policy: CommitPolicy::ClientLog,
            logging_strategy: LoggingStrategyKind::ClientAries,
            client_checkpoint_every: 2_000,
            server_checkpoint_every: 4_000,
            lock_timeout: Duration::from_secs(5),
            net_latency: Duration::ZERO,
            disk_latency: Duration::ZERO,
            server_instances: 1,
            obs_ring_entries: 256,
            transport: TransportKind::Sim,
        }
    }
}

impl SystemConfig {
    /// Validate internal consistency. Called by the system builder.
    pub fn validate(&self) -> Result<()> {
        // Page offsets are 16-bit, which caps the page size at 64 KiB.
        if self.page_size < 128 || self.page_size > 1 << 16 {
            return Err(FglError::Config(format!(
                "page_size {} out of supported range [128, 64KiB]",
                self.page_size
            )));
        }
        if !self.page_size.is_power_of_two() {
            return Err(FglError::Config("page_size must be a power of two".into()));
        }
        if self.client_cache_pages == 0 || self.server_cache_pages == 0 {
            return Err(FglError::Config("cache sizes must be non-zero".into()));
        }
        if self.client_log_bytes < 64 * 1024 {
            return Err(FglError::Config(
                "client log must be at least 64 KiB".into(),
            ));
        }
        if self.server_log_bytes < 64 * 1024 {
            return Err(FglError::Config(
                "server log must be at least 64 KiB".into(),
            ));
        }
        if self.lock_timeout < Duration::from_millis(10) {
            return Err(FglError::Config("lock_timeout below 10ms".into()));
        }
        if self.server_instances == 0 || self.server_instances > 64 {
            return Err(FglError::Config(format!(
                "server_instances {} out of supported range [1, 64]",
                self.server_instances
            )));
        }
        if self.obs_ring_entries < 16 || self.obs_ring_entries > 1 << 20 {
            return Err(FglError::Config(format!(
                "obs_ring_entries {} out of supported range [16, 1M]",
                self.obs_ring_entries
            )));
        }
        if self.transport != TransportKind::Sim && self.page_size > 32 * 1024 {
            return Err(FglError::Config(format!(
                "page_size {} exceeds the 32 KiB socket-transport cap \
                 (callback-frame page-length fields are 16-bit)",
                self.page_size
            )));
        }
        if self.logging_strategy != LoggingStrategyKind::ClientAries
            && self.commit_policy != CommitPolicy::ClientLog
        {
            return Err(FglError::Config(format!(
                "logging_strategy {:?} requires CommitPolicy::ClientLog \
                 (server-log baselines ship the default record stream)",
                self.logging_strategy
            )));
        }
        Ok(())
    }

    /// Builder-style setter for the lock granularity.
    pub fn with_granularity(mut self, g: LockGranularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style setter for the update policy.
    pub fn with_update_policy(mut self, p: UpdatePolicy) -> Self {
        self.update_policy = p;
        self
    }

    /// Builder-style setter for the commit policy.
    pub fn with_commit_policy(mut self, p: CommitPolicy) -> Self {
        self.commit_policy = p;
        self
    }

    /// Builder-style setter for the logging strategy.
    pub fn with_logging_strategy(mut self, s: LoggingStrategyKind) -> Self {
        self.logging_strategy = s;
        self
    }

    /// Builder-style setter for the server instance (partition) count.
    pub fn with_server_instances(mut self, n: usize) -> Self {
        self.server_instances = n;
        self
    }

    /// Builder-style setter for the flight-recorder ring capacity.
    pub fn with_obs_ring_entries(mut self, entries: usize) -> Self {
        self.obs_ring_entries = entries;
        self
    }

    /// Builder-style setter for the transport backend.
    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_tiny_and_odd_page_sizes() {
        let mut c = SystemConfig {
            page_size: 64,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.page_size = 5000;
        assert!(c.validate().is_err());
        c.page_size = 8192;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_caches_and_tiny_logs() {
        let c = SystemConfig {
            client_cache_pages: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            client_log_bytes: 1024,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn obs_ring_entries_bounds() {
        assert_eq!(SystemConfig::default().obs_ring_entries, 256);
        let mut c = SystemConfig::default().with_obs_ring_entries(8);
        assert!(c.validate().is_err());
        c.obs_ring_entries = (1 << 20) + 1;
        assert!(c.validate().is_err());
        c.obs_ring_entries = 65_536;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_setters_chain() {
        let c = SystemConfig::default()
            .with_granularity(LockGranularity::Page)
            .with_update_policy(UpdatePolicy::UpdateToken)
            .with_commit_policy(CommitPolicy::ServerLog)
            .with_server_instances(4);
        assert_eq!(c.granularity, LockGranularity::Page);
        assert_eq!(c.update_policy, UpdatePolicy::UpdateToken);
        assert_eq!(c.commit_policy, CommitPolicy::ServerLog);
        assert_eq!(c.server_instances, 4);
    }

    #[test]
    fn logging_strategy_parses_and_defaults() {
        assert_eq!(
            SystemConfig::default().logging_strategy,
            LoggingStrategyKind::ClientAries
        );
        for k in LoggingStrategyKind::ALL {
            assert_eq!(k.name().parse::<LoggingStrategyKind>().unwrap(), k);
        }
        assert_eq!(
            "redo-only".parse::<LoggingStrategyKind>().unwrap(),
            LoggingStrategyKind::RedoOnly
        );
        assert!("paranoid".parse::<LoggingStrategyKind>().is_err());
        assert!("hybrid".parse::<LoggingStrategyKind>().is_err());
    }

    #[test]
    fn non_default_strategy_requires_client_log() {
        let c = SystemConfig::default()
            .with_logging_strategy(LoggingStrategyKind::RedoOnly)
            .with_commit_policy(CommitPolicy::ServerLog);
        assert!(c.validate().is_err());
        let c = SystemConfig::default().with_logging_strategy(LoggingStrategyKind::RedoOnly);
        c.validate().unwrap();
    }

    #[test]
    fn transport_parses_and_defaults() {
        assert_eq!(SystemConfig::default().transport, TransportKind::Sim);
        for t in TransportKind::ALL {
            assert_eq!(t.name().parse::<TransportKind>().unwrap(), t);
        }
        assert_eq!("unix".parse::<TransportKind>().unwrap(), TransportKind::Uds);
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
    }

    #[test]
    fn socket_transport_caps_page_size() {
        let big = SystemConfig {
            page_size: 64 * 1024,
            ..Default::default()
        };
        big.validate().unwrap();
        let big_uds = big.clone().with_transport(TransportKind::Uds);
        assert!(big_uds.validate().is_err());
        let ok = SystemConfig::default().with_transport(TransportKind::Tcp);
        ok.validate().unwrap();
    }

    #[test]
    fn rejects_zero_or_excessive_instances() {
        assert_eq!(SystemConfig::default().server_instances, 1);
        let mut c = SystemConfig {
            server_instances: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.server_instances = 65;
        assert!(c.validate().is_err());
        c.server_instances = 4;
        assert!(c.validate().is_ok());
        assert_eq!(
            SystemConfig::default()
                .with_server_instances(2)
                .server_instances,
            2
        );
    }
}
