//! **fgl** — *Fine-granularity Locking and Client-Based Logging for
//! Distributed Architectures* (Panagos, Biliris, Jagadish, Rastogi —
//! EDBT 1996), reproduced as a Rust library.
//!
//! `fgl` implements a page-server DBMS in which every transactional
//! facility is provided locally at the client:
//!
//! * fine-granularity (object) locking with callback locking and lock
//!   de-escalation;
//! * **client-based logging**: each client has a private ARIES-style
//!   write-ahead log; commits force only the local log, never shipping
//!   pages or log records to the server;
//! * concurrent updates by different clients to *different objects on the
//!   same page*, reconciled by PSN-based page-copy merging;
//! * independent fuzzy checkpoints, private-log space reclamation, and
//!   restart recovery from client crashes, server crashes, and complex
//!   (simultaneous) crashes — private logs are never merged.
//!
//! # Quick start
//!
//! ```
//! use fgl::{System, SystemConfig};
//!
//! let sys = System::build(SystemConfig::default(), 2).unwrap();
//! let alice = sys.client(0);
//! let bob = sys.client(1);
//!
//! // Alice creates a page and an object, transactionally.
//! let t = alice.begin().unwrap();
//! let page = alice.create_page(t).unwrap();
//! let obj = alice.insert(t, page, b"hello").unwrap();
//! alice.commit(t).unwrap();
//!
//! // Bob reads it — the callback protocol moves the page across.
//! let t = bob.begin().unwrap();
//! assert_eq!(bob.read(t, obj).unwrap(), b"hello");
//! bob.commit(t).unwrap();
//! ```
//!
//! The [`System`] builder wires a [`ServerCore`] and N [`ClientCore`]s
//! over the counted in-process message fabric; every piece is also usable
//! on its own.

pub use fgl_client::{ClientCore, ClientRecoveryReport, ClientStats, RecoveryOptions};
pub use fgl_common::config::{
    CommitPolicy, LockGranularity, LoggingStrategyKind, SystemConfig, TransportKind, UpdatePolicy,
};
pub use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SlotId, TxnId};
pub use fgl_locks::mode::{LockTarget, Mode, ObjMode};
pub use fgl_locks::DeadlockCoordinator;
pub use fgl_net::stats::{MsgKind, NetSim, NetSnapshot, NetStats};
pub use fgl_net::transport::socket::{RemoteServer, SocketServer};
pub use fgl_net::{PartitionedServer, ServerApi};
pub use fgl_obs::{
    CaptureSink, Event, HistKind, HistSnapshot, LogOwner, Metrics, RecoveryPhase, Snapshot,
};
pub use fgl_server::{RestartReport, ServerCore, ServerStats};
pub use fgl_storage::page::Page;

use fgl_storage::disk::{DiskBackend, MemDisk, SimDisk};
use std::sync::Arc;

/// A wired system: one *or more* page servers plus N clients sharing a
/// counted message fabric.
///
/// With `transport = sim` (the default) the clients call straight into
/// the [`ServerCore`] and the wiring is exactly what it always was. With
/// `transport = tcp` or `uds` the builder additionally stands up a
/// [`SocketServer`] on a loopback/temp endpoint and hands every client a
/// connected [`RemoteServer`] stub instead — same process, real frames
/// on a real socket, so the full codec and correlation machinery is
/// exercised by ordinary [`System`] tests.
///
/// With `cfg.server_instances = N > 1` the builder stands up N
/// independent server instances (instance `k` owns pages with
/// `PageId % N == k`, each with its own GLM, store partition, DCT,
/// server log and checkpoints), joins their wait graphs through a
/// [`fgl_locks::DeadlockCoordinator`], and hands every client one
/// [`PartitionedServer`] routing by page residue class — on either
/// transport. [`System::server`] stays the instance-0 handle so
/// single-server call sites keep working; [`System::servers`] holds all
/// of them.
pub struct System {
    /// Instance 0 — *the* server of a single-instance system, and the
    /// handle legacy call sites use.
    pub server: Arc<ServerCore>,
    /// Every server instance, in partition order (length
    /// `cfg.server_instances`; `servers[0]` is `server`).
    pub servers: Vec<Arc<ServerCore>>,
    pub clients: Vec<Arc<ClientCore>>,
    pub net: Arc<NetSim>,
    /// Present when [`System::build`] wired the latency-injecting disk —
    /// lets [`metrics_snapshot`](System::metrics_snapshot) fold I/O counts in.
    sim_disk: Option<Arc<SimDisk>>,
    /// Present under the socket transports.
    transport: Option<TransportHandle>,
}

/// Live socket-mode wiring: one accept loop **per server instance** plus
/// each client's connected stubs, with per-partition wire-stats sinks
/// recording real encoded frame sizes.
struct TransportHandle {
    remotes: Vec<Arc<RemoteServer>>,
    /// Real frame traffic per partition, index = instance.
    wires: Vec<Arc<NetStats>>,
    /// Declared after `remotes` so the stubs disconnect first and every
    /// connection thread exits on a clean EOF before the listeners stop.
    socks: Vec<SocketServer>,
}

impl TransportHandle {
    /// Connect one client to every partition's listener (partition order).
    fn connect(&mut self, id: ClientId, metrics: Arc<Metrics>) -> Result<Vec<Arc<RemoteServer>>> {
        let mut connected = Vec::with_capacity(self.socks.len());
        for (sock, wire) in self.socks.iter().zip(&self.wires) {
            let remote = if let Some(addr) = sock.local_addr() {
                RemoteServer::connect_tcp(
                    &addr.to_string(),
                    id,
                    wire.clone(),
                    Some(metrics.clone()),
                )?
            } else {
                let path = sock
                    .uds_path()
                    .expect("socket server has either an address or a path")
                    .to_path_buf();
                RemoteServer::connect_uds(&path, id, wire.clone(), Some(metrics.clone()))?
            };
            self.remotes.push(remote.clone());
            connected.push(remote);
        }
        Ok(connected)
    }
}

impl Drop for TransportHandle {
    fn drop(&mut self) {
        for r in &self.remotes {
            r.disconnect();
        }
    }
}

/// Wrap per-partition `ServerApi` handles into the single handle a
/// client holds: the bare backend for one instance, the router above it
/// for several.
fn route_partitions(parts: Vec<Arc<dyn ServerApi>>) -> Arc<dyn ServerApi> {
    if parts.len() == 1 {
        parts.into_iter().next().unwrap()
    } else {
        PartitionedServer::new(parts)
    }
}

/// A collision-free socket path for an in-process UDS system.
fn fresh_uds_path() -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fgl-sys-{}-{}.sock",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

impl System {
    /// Build a system with `n_clients` clients over an in-memory server
    /// disk (with the configured simulated disk latency) and in-memory
    /// private logs with exact crash semantics.
    pub fn build(cfg: SystemConfig, n_clients: usize) -> Result<System> {
        cfg.validate()?;
        let sim = Arc::new(SimDisk::new(Arc::new(MemDisk::new()), cfg.disk_latency));
        let mut sys = Self::build_with_disk(cfg, n_clients, sim.clone())?;
        sys.sim_disk = Some(sim);
        Ok(sys)
    }

    /// Build over a caller-provided server disk backend (e.g. a
    /// `fgl_storage::disk::FileDisk`).
    pub fn build_with_disk(
        cfg: SystemConfig,
        n_clients: usize,
        disk: Arc<dyn DiskBackend>,
    ) -> Result<System> {
        cfg.validate()?;
        fgl_obs::ring::set_capacity(cfg.obs_ring_entries);
        if cfg.transport != TransportKind::Sim {
            return Self::build_socket(cfg, n_clients, disk);
        }
        let net = Arc::new(NetSim::new(cfg.net_latency));
        let disk_latency = cfg.disk_latency;
        let servers = Self::build_servers(&cfg, net.clone(), disk);
        let api = route_partitions(
            servers
                .iter()
                .map(|s| s.clone() as Arc<dyn ServerApi>)
                .collect(),
        );
        let clients = (0..n_clients)
            .map(|i| {
                ClientCore::with_log_store(
                    ClientId(i as u32 + 1),
                    api.clone(),
                    net.clone(),
                    Box::new(fgl_wal::store::SimLogStore::new(
                        Box::new(fgl_wal::store::MemLogStore::new()),
                        disk_latency,
                    )),
                )
            })
            .collect();
        Ok(System {
            server: servers[0].clone(),
            servers,
            clients,
            net,
            sim_disk: None,
            transport: None,
        })
    }

    /// Stand up `cfg.server_instances` server instances over one disk and
    /// one shared metrics registry; multi-instance systems additionally
    /// join every instance's wait graph through a deadlock coordinator so
    /// cycles spanning servers keep the youngest-victim policy.
    fn build_servers(
        cfg: &SystemConfig,
        net: Arc<NetSim>,
        disk: Arc<dyn DiskBackend>,
    ) -> Vec<Arc<ServerCore>> {
        let instances = cfg.server_instances.max(1);
        if instances == 1 {
            return vec![ServerCore::new(cfg.clone(), net, disk)];
        }
        let metrics = Arc::new(Metrics::new());
        let servers: Vec<Arc<ServerCore>> = (0..instances)
            .map(|k| {
                ServerCore::new_instance(
                    cfg.clone(),
                    net.clone(),
                    disk.clone(),
                    k,
                    instances,
                    metrics.clone(),
                )
            })
            .collect();
        let coord = DeadlockCoordinator::new();
        for s in &servers {
            s.attach_coordinator(&coord);
        }
        servers
    }

    /// Socket-mode wiring: same [`ServerCore`], but served over a real
    /// listener, with each client holding a connected [`RemoteServer`].
    ///
    /// The nominal fabric still counts every logical message — the stubs
    /// and the runtime keep calling `net.msg(..)` exactly as under sim —
    /// but injects zero latency, because the socket provides the real
    /// thing. Real encoded sizes land in the separate wire stats.
    fn build_socket(
        cfg: SystemConfig,
        n_clients: usize,
        disk: Arc<dyn DiskBackend>,
    ) -> Result<System> {
        let net = Arc::new(NetSim::new(std::time::Duration::ZERO));
        let disk_latency = cfg.disk_latency;
        let transport = cfg.transport;
        let servers = Self::build_servers(&cfg, net.clone(), disk);
        let mut socks = Vec::with_capacity(servers.len());
        let mut wires = Vec::with_capacity(servers.len());
        for server in &servers {
            let api: Arc<dyn ServerApi> = server.clone();
            socks.push(match transport {
                TransportKind::Tcp => SocketServer::serve_tcp(api, "127.0.0.1:0")?,
                TransportKind::Uds => SocketServer::serve_uds(api, &fresh_uds_path())?,
                TransportKind::Sim => unreachable!("sim transport is handled by build_with_disk"),
            });
            wires.push(Arc::new(NetStats::default()));
        }
        let mut handle = TransportHandle {
            remotes: Vec::with_capacity(n_clients * servers.len()),
            wires,
            socks,
        };
        let mut clients = Vec::with_capacity(n_clients);
        for i in 0..n_clients {
            let id = ClientId(i as u32 + 1);
            let remotes = handle.connect(id, servers[0].metrics())?;
            let api = route_partitions(
                remotes
                    .into_iter()
                    .map(|r| r as Arc<dyn ServerApi>)
                    .collect(),
            );
            clients.push(ClientCore::with_log_store(
                id,
                api,
                net.clone(),
                Box::new(fgl_wal::store::SimLogStore::new(
                    Box::new(fgl_wal::store::MemLogStore::new()),
                    disk_latency,
                )),
            ));
        }
        Ok(System {
            server: servers[0].clone(),
            servers,
            clients,
            net,
            sim_disk: None,
            transport: Some(handle),
        })
    }

    /// The `i`-th client (zero-based).
    pub fn client(&self, i: usize) -> &Arc<ClientCore> {
        &self.clients[i]
    }

    /// The shared metrics registry (one per system, owned by the server).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.server.metrics()
    }

    /// One unified [`Snapshot`]: the registry's histograms and counters
    /// plus the four legacy stats surfaces — [`ServerStats`] (summed and
    /// per instance), the summed [`ClientStats`], the per-kind
    /// [`NetSnapshot`] and the simulated-disk I/O counts — folded in as
    /// named counters. Two of these subtract cleanly via
    /// [`Snapshot::delta_since`] to measure an interval.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.server.metrics().snapshot();

        // Server counters sum across instances; each instance also
        // reports under its own `srv{k}_*` namespace.
        let per_instance: Vec<ServerStats> = self.servers.iter().map(|s| s.stats()).collect();
        let sum = |f: fn(&ServerStats) -> u64| per_instance.iter().map(f).sum::<u64>();
        snap.set_counter("server_lock_requests", sum(|s| s.lock_requests));
        snap.set_counter("server_page_fetches", sum(|s| s.page_fetches));
        snap.set_counter("server_pages_received", sum(|s| s.pages_received));
        snap.set_counter("server_pages_flushed", sum(|s| s.pages_flushed));
        snap.set_counter("server_replacement_records", sum(|s| s.replacement_records));
        snap.set_counter("server_checkpoints", sum(|s| s.server_checkpoints));
        snap.set_counter("server_commit_log_ships", sum(|s| s.commit_log_ships));
        snap.set_counter("server_merges", sum(|s| s.merges));
        for (k, s) in per_instance.iter().enumerate() {
            snap.set_counter(&format!("srv{k}_lock_requests"), s.lock_requests);
            snap.set_counter(&format!("srv{k}_page_fetches"), s.page_fetches);
            snap.set_counter(&format!("srv{k}_pages_received"), s.pages_received);
            snap.set_counter(&format!("srv{k}_commit_log_ships"), s.commit_log_ships);
            snap.set_counter(&format!("srv{k}_merges"), s.merges);
        }

        // Active-client set: clients that never ran a transaction report
        // all-zero stats and an empty WAL, so the population scans below
        // skip them with one relaxed atomic load instead of taking each
        // client's state mutex — at 100k mostly-idle simulated clients
        // the snapshot cost tracks the *active* count.
        let mut c = ClientStats::default();
        for client in self.clients.iter().filter(|c| c.is_touched()) {
            let cs = client.stats();
            c.commits += cs.commits;
            c.aborts += cs.aborts;
            c.deadlock_victims += cs.deadlock_victims;
            c.lock_timeouts += cs.lock_timeouts;
            c.local_grants += cs.local_grants;
            c.global_lock_requests += cs.global_lock_requests;
            c.pages_shipped += cs.pages_shipped;
            c.forced_flush_requests += cs.forced_flush_requests;
            c.checkpoints += cs.checkpoints;
            c.log_forces += cs.log_forces;
            c.log_bytes += cs.log_bytes;
            c.log_stall_events += cs.log_stall_events;
            c.commits_forced += cs.commits_forced;
            c.commits_piggybacked += cs.commits_piggybacked;
        }
        snap.set_counter("client_commits", c.commits);
        snap.set_counter("client_aborts", c.aborts);
        snap.set_counter("client_deadlock_victims", c.deadlock_victims);
        snap.set_counter("client_lock_timeouts", c.lock_timeouts);
        snap.set_counter("client_local_grants", c.local_grants);
        snap.set_counter("client_global_lock_requests", c.global_lock_requests);
        snap.set_counter("client_pages_shipped", c.pages_shipped);
        snap.set_counter("client_forced_flush_requests", c.forced_flush_requests);
        snap.set_counter("client_checkpoints", c.checkpoints);
        snap.set_counter("client_log_forces", c.log_forces);
        snap.set_counter("client_log_bytes", c.log_bytes);
        snap.set_counter("client_log_stall_events", c.log_stall_events);
        snap.set_counter("client_commits_forced", c.commits_forced);
        snap.set_counter("client_commits_piggybacked", c.commits_piggybacked);

        let n = self.net.snapshot();
        for (i, (&count, &bytes)) in n.counts.iter().zip(n.bytes.iter()).enumerate() {
            let name = NetSnapshot::kind_name(i);
            snap.set_counter(&format!("msg_{name}"), count);
            snap.set_counter(&format!("msg_{name}_bytes"), bytes);
        }
        snap.set_counter("net_total_messages", n.total_messages());
        snap.set_counter("net_total_bytes", n.total_bytes());

        // Socket transports additionally report REAL encoded frame
        // traffic next to the nominal accounting, same kind names under
        // a `wire_` prefix — E17 reads the ratio straight off these.
        if let Some(t) = &self.transport {
            let per_wire: Vec<NetSnapshot> = t.wires.iter().map(|w| w.snapshot()).collect();
            let w = per_wire
                .iter()
                .fold(NetSnapshot::default(), |acc, s| acc.merge(s));
            for (i, (&count, &bytes)) in w.counts.iter().zip(w.bytes.iter()).enumerate() {
                let name = NetSnapshot::kind_name(i);
                snap.set_counter(&format!("wire_{name}"), count);
                snap.set_counter(&format!("wire_{name}_bytes"), bytes);
            }
            snap.set_counter("wire_total_messages", w.total_messages());
            snap.set_counter("wire_total_bytes", w.total_bytes());
            if per_wire.len() > 1 {
                for (k, w) in per_wire.iter().enumerate() {
                    snap.set_counter(&format!("srv{k}_wire_total_messages"), w.total_messages());
                    snap.set_counter(&format!("srv{k}_wire_total_bytes"), w.total_bytes());
                }
            }
        }

        if let Some(disk) = &self.sim_disk {
            let (reads, writes, syncs) = disk.stats.snapshot();
            snap.set_counter("disk_reads", reads);
            snap.set_counter("disk_writes", writes);
            snap.set_counter("disk_syncs", syncs);
        }

        // Per-record-kind WAL byte accounting, summed across every client
        // log plus the server log.
        let mut by_kind: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for client in self.clients.iter().filter(|c| c.is_touched()) {
            for (kind, bytes) in client.wal_bytes_by_kind() {
                *by_kind.entry(kind).or_insert(0) += bytes;
            }
        }
        for server in &self.servers {
            for (kind, bytes) in server.wal_bytes_by_kind() {
                *by_kind.entry(kind).or_insert(0) += bytes;
            }
        }
        for (kind, bytes) in by_kind {
            snap.set_counter(&format!("wal_bytes_{kind}"), bytes);
        }

        // Flight-recorder pressure and the GLM contention profile: the
        // top-4 hottest pages by cumulative wait time, flattened into
        // rank-indexed counters so JSON consumers need no new schema.
        snap.set_counter("ring_dropped_events", fgl_obs::ring::dropped_events());
        snap.set_counter(
            "contention_pages_tracked",
            self.servers
                .iter()
                .map(|s| s.contention_pages_tracked() as u64)
                .sum(),
        );
        let mut hot: Vec<_> = self
            .servers
            .iter()
            .flat_map(|s| s.contention_top(4))
            .collect();
        hot.sort_by_key(|e| std::cmp::Reverse(e.1.wait_us));
        hot.truncate(4);
        for (rank, (page, c)) in hot.into_iter().enumerate() {
            snap.set_counter(&format!("hot_page_rank{rank}_page"), page.0);
            snap.set_counter(&format!("hot_page_rank{rank}_wait_us"), c.wait_us);
            snap.set_counter(&format!("hot_page_rank{rank}_waits"), c.waits);
            snap.set_counter(&format!("hot_page_rank{rank}_callbacks"), c.callbacks);
        }
        snap
    }

    /// Real encoded wire traffic, both directions (socket transports
    /// only — `None` under the in-process sim fabric).
    pub fn wire_snapshot(&self) -> Option<NetSnapshot> {
        self.transport.as_ref().map(|t| {
            t.wires
                .iter()
                .map(|w| w.snapshot())
                .fold(NetSnapshot::default(), |acc, s| acc.merge(&s))
        })
    }

    /// Attach one more client to a running system.
    pub fn add_client(&mut self) -> Arc<ClientCore> {
        let id = ClientId(self.clients.len() as u32 + 1);
        let metrics = self.server.metrics();
        let c = match &mut self.transport {
            None => {
                let api = route_partitions(
                    self.servers
                        .iter()
                        .map(|s| s.clone() as Arc<dyn ServerApi>)
                        .collect(),
                );
                ClientCore::new(id, api, self.net.clone())
            }
            Some(t) => {
                let remotes = t
                    .connect(id, metrics)
                    .expect("socket transport: connecting a new client failed");
                let api = route_partitions(
                    remotes
                        .into_iter()
                        .map(|r| r as Arc<dyn ServerApi>)
                        .collect(),
                );
                ClientCore::new(id, api, self.net.clone())
            }
        };
        self.clients.push(c.clone());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn single_client_crud_roundtrip() {
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let a = c.insert(t, page, b"alpha").unwrap();
        let b = c.insert(t, page, b"beta!").unwrap();
        assert_eq!(c.read(t, a).unwrap(), b"alpha");
        c.write(t, a, b"ALPHA").unwrap();
        c.write_at(t, b, 0, b"B").unwrap();
        c.resize(t, b, 2).unwrap();
        assert_eq!(c.read(t, b).unwrap(), b"Be");
        c.remove(t, a).unwrap();
        assert!(c.read(t, a).is_err());
        c.commit(t).unwrap();
        // Next transaction still sees the committed state.
        let t2 = c.begin().unwrap();
        assert_eq!(c.read(t2, b).unwrap(), b"Be");
        c.commit(t2).unwrap();
    }

    #[test]
    fn abort_rolls_everything_back() {
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let a = c.insert(t, page, b"keep").unwrap();
        c.commit(t).unwrap();

        let t = c.begin().unwrap();
        c.write(t, a, b"temp").unwrap();
        let b = c.insert(t, page, b"gone").unwrap();
        c.abort(t).unwrap();

        let t = c.begin().unwrap();
        assert_eq!(c.read(t, a).unwrap(), b"keep");
        assert!(c.read(t, b).is_err(), "aborted insert must vanish");
        c.commit(t).unwrap();
    }

    #[test]
    fn savepoint_partial_rollback() {
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let a = c.insert(t, page, b"v0v0").unwrap();
        c.savepoint(t, "sp").unwrap();
        c.write(t, a, b"v1v1").unwrap();
        let extra = c.insert(t, page, b"extra").unwrap();
        c.rollback_to(t, "sp").unwrap();
        assert_eq!(c.read(t, a).unwrap(), b"v0v0");
        assert!(c.read(t, extra).is_err());
        // Transaction continues and commits the post-savepoint write.
        c.write(t, a, b"v2v2").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        assert_eq!(c.read(t, a).unwrap(), b"v2v2");
        c.commit(t).unwrap();
    }

    #[test]
    fn two_clients_share_data_via_callbacks() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let obj = alice.insert(t, page, b"from-alice").unwrap();
        alice.commit(t).unwrap();

        // Bob reads (S request → alice downgrades, ships the page).
        let t = bob.begin().unwrap();
        assert_eq!(bob.read(t, obj).unwrap(), b"from-alice");
        bob.commit(t).unwrap();

        // Bob updates (X request → alice releases).
        let t = bob.begin().unwrap();
        bob.write(t, obj, b"from-bob!!").unwrap();
        bob.commit(t).unwrap();

        // Alice sees bob's committed update.
        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, obj).unwrap(), b"from-bob!!");
        alice.commit(t).unwrap();
    }

    #[test]
    fn concurrent_updates_to_different_objects_on_one_page() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let oa = alice.insert(t, page, b"aaaa").unwrap();
        let ob = alice.insert(t, page, b"bbbb").unwrap();
        alice.commit(t).unwrap();

        // Both clients hold X locks on different objects of the same page
        // at the same time — the paper's headline concurrency.
        let ta = alice.begin().unwrap();
        let tb = bob.begin().unwrap();
        alice.write(ta, oa, b"AAAA").unwrap();
        bob.write(tb, ob, b"BBBB").unwrap();
        alice.commit(ta).unwrap();
        bob.commit(tb).unwrap();

        // A third view sees both updates merged.
        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, oa).unwrap(), b"AAAA");
        assert_eq!(alice.read(t, ob).unwrap(), b"BBBB");
        alice.commit(t).unwrap();
    }

    #[test]
    fn commit_ships_nothing_under_client_logging() {
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let obj = c.insert(t, page, b"data").unwrap();
        c.commit(t).unwrap();
        let before = sys.net.snapshot();
        let t = c.begin().unwrap();
        c.write(t, obj, b"more").unwrap();
        c.commit(t).unwrap();
        let delta = sys.net.snapshot().delta_since(&before);
        assert_eq!(
            delta.count(MsgKind::PageShip),
            0,
            "client-based logging must not ship pages at commit"
        );
        assert_eq!(delta.count(MsgKind::CommitLogShip), 0);
    }

    #[test]
    fn client_crash_recovery_restores_committed_state() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let obj = alice.insert(t, page, b"committed!").unwrap();
        alice.commit(t).unwrap();

        // An uncommitted update is in flight when alice crashes. The
        // checkpoint forces the log, so the update's record survives the
        // crash and restart must roll it back.
        let t = alice.begin().unwrap();
        alice.write(t, obj, b"dirtydirty").unwrap();
        alice.checkpoint().unwrap();
        alice.crash();
        let report = alice.recover().unwrap();
        assert!(report.losers >= 1, "the in-flight txn must roll back");

        // Bob reads the committed value.
        let t = bob.begin().unwrap();
        assert_eq!(bob.read(t, obj).unwrap(), b"committed!");
        bob.commit(t).unwrap();
    }

    #[test]
    fn page_x_callbacks_to_one_holder_ship_as_one_batch() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let oa = alice.insert(t, page, b"aaaa").unwrap();
        let ob = alice.insert(t, page, b"bbbb").unwrap();
        alice.commit(t).unwrap();
        let t = alice.begin().unwrap();
        alice.write(t, oa, b"AAAA").unwrap();
        alice.write(t, ob, b"BBBB").unwrap();
        alice.commit(t).unwrap();

        // Alice now caches X locks on both objects and a dirty copy of the
        // page. Bob's structural update needs page X, which calls back
        // *both* of alice's object locks — one batch message, one reply,
        // one shipped page copy carrying both committed updates.
        let before = sys.net.snapshot();
        let t = bob.begin().unwrap();
        bob.resize(t, oa, 2).unwrap();
        bob.commit(t).unwrap();
        let delta = sys.net.snapshot().delta_since(&before);
        assert_eq!(
            delta.count(MsgKind::Callback),
            1,
            "two callbacks to one holder must ship as one batch message"
        );
        assert_eq!(delta.count(MsgKind::CallbackReply), 1);

        // Bob's fetched copy observed both of alice's updates (the single
        // page copy in the batch reply was absorbed PSN-monotonically).
        let t = bob.begin().unwrap();
        assert_eq!(bob.read(t, oa).unwrap(), b"AA");
        assert_eq!(bob.read(t, ob).unwrap(), b"BBBB");
        bob.commit(t).unwrap();
    }

    #[test]
    fn crash_of_deferring_holder_does_not_strand_waiter() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let oa = alice.insert(t, page, b"aaaa").unwrap();
        let ob = alice.insert(t, page, b"bbbb").unwrap();
        alice.commit(t).unwrap();

        // Alice's in-flight transaction holds X on both objects, so bob's
        // page-X request defers its whole callback batch behind her txn.
        let ta = alice.begin().unwrap();
        alice.write(ta, oa, b"dirt").unwrap();
        alice.write(ta, ob, b"dirt").unwrap();

        let bob2 = bob.clone();
        let waiter = std::thread::spawn(move || {
            let tb = bob2.begin().unwrap();
            bob2.resize(tb, oa, 2)?;
            bob2.commit(tb)
        });
        // Let bob park behind the deferred callbacks, then crash alice
        // mid-defer. Her exclusive locks survive the crash (§3.3), so the
        // grant stays pending until recovery resolves her loser txn and
        // releases them — at which point bob must wake, not time out.
        std::thread::sleep(std::time::Duration::from_millis(100));
        alice.crash();
        alice.recover().unwrap();
        waiter
            .join()
            .unwrap()
            .expect("waiter must be granted after the holder recovers");

        // Alice's uncommitted writes rolled back; bob's resize committed.
        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, oa).unwrap(), b"aa");
        assert_eq!(alice.read(t, ob).unwrap(), b"bbbb");
        alice.commit(t).unwrap();
    }

    #[test]
    fn group_commit_returns_only_durable_commits() {
        // Four concurrent committers on one client coalesce their log
        // forces (group commit); a commit that returned Ok must survive a
        // crash immediately after — the force it piggybacked on has to
        // cover its commit record, or this loses data.
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let objs: Vec<_> = (0..4)
            .map(|_| c.insert(t, page, b"....").unwrap())
            .collect();
        c.commit(t).unwrap();

        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = objs
            .iter()
            .map(|&obj| {
                let c = c.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let t = c.begin().unwrap();
                    c.write(t, obj, b"done").unwrap();
                    c.commit(t)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap().expect("commit must succeed");
        }

        // Crash drops the log's non-durable tail. Every commit that
        // returned Ok above must still be there.
        c.crash();
        c.recover().unwrap();
        let t = c.begin().unwrap();
        for &obj in &objs {
            assert_eq!(
                c.read(t, obj).unwrap(),
                b"done",
                "a commit that returned Ok must be durable across a crash"
            );
        }
        c.commit(t).unwrap();
        let snap = sys.metrics_snapshot();
        let forced = snap
            .counters
            .get("client_commits_forced")
            .copied()
            .unwrap_or(0);
        let piggybacked = snap
            .counters
            .get("client_commits_piggybacked")
            .copied()
            .unwrap_or(0);
        assert_eq!(
            forced + piggybacked,
            6,
            "every commit is forced or piggybacked"
        );
    }

    fn strategy_cfg(kind: LoggingStrategyKind) -> SystemConfig {
        SystemConfig::default().with_logging_strategy(kind)
    }

    /// A committed update must survive a client crash + recovery under
    /// every logging strategy, and an in-flight one must roll back.
    #[test]
    fn every_strategy_commits_durably_and_rolls_back_losers() {
        for kind in LoggingStrategyKind::ALL {
            let sys = System::build(strategy_cfg(kind), 1).unwrap();
            let c = sys.client(0);
            let t = c.begin().unwrap();
            let page = c.create_page(t).unwrap();
            let obj = c.insert(t, page, b"durable!").unwrap();
            c.commit(t).unwrap();

            let t = c.begin().unwrap();
            c.write(t, obj, b"in-flite").unwrap();
            c.checkpoint().unwrap();
            c.crash();
            c.recover().unwrap();

            let t = c.begin().unwrap();
            assert_eq!(
                c.read(t, obj).unwrap(),
                b"durable!",
                "strategy {kind:?}: commit lost or loser not undone"
            );
            c.commit(t).unwrap();
        }
    }

    /// Rollback without a crash (plain abort) must work under the
    /// redo-only strategies, which undo from the in-memory stack rather
    /// than the log's undo chain.
    #[test]
    fn redo_only_abort_uses_memory_undo() {
        for kind in [LoggingStrategyKind::RedoOnly, LoggingStrategyKind::Hybrid] {
            let sys = System::build(strategy_cfg(kind), 1).unwrap();
            let c = sys.client(0);
            let t = c.begin().unwrap();
            let page = c.create_page(t).unwrap();
            let a = c.insert(t, page, b"keep").unwrap();
            c.commit(t).unwrap();

            let t = c.begin().unwrap();
            c.write(t, a, b"temp").unwrap();
            let b = c.insert(t, page, b"gone").unwrap();
            c.abort(t).unwrap();

            let t = c.begin().unwrap();
            assert_eq!(c.read(t, a).unwrap(), b"keep", "strategy {kind:?}");
            assert!(c.read(t, b).is_err(), "strategy {kind:?}: insert survived");
            c.commit(t).unwrap();
        }
    }

    /// REDO-only logging writes no before-images, so the same committed
    /// workload must produce a strictly smaller log than full ARIES.
    #[test]
    fn redo_only_logs_fewer_bytes_than_aries() {
        let run = |kind| {
            let sys = System::build(strategy_cfg(kind), 1).unwrap();
            let c = sys.client(0);
            let t = c.begin().unwrap();
            let page = c.create_page(t).unwrap();
            let obj = c.insert(t, page, &[7u8; 200]).unwrap();
            c.commit(t).unwrap();
            for _ in 0..20 {
                let t = c.begin().unwrap();
                c.write(t, obj, &[9u8; 200]).unwrap();
                c.commit(t).unwrap();
            }
            sys.client(0).stats().log_bytes
        };
        let aries = run(LoggingStrategyKind::ClientAries);
        let redo = run(LoggingStrategyKind::RedoOnly);
        assert!(
            redo < aries,
            "redo-only ({redo} B) must log less than aries ({aries} B)"
        );
    }

    /// The hybrid strategy picks physical (ARIES) logging for large
    /// payloads and redo-only for small ones, per transaction; a redo-only
    /// transaction whose page ships spills its before-image, counted
    /// apart from its redo records.
    #[test]
    fn hybrid_mixes_update_and_ext_records() {
        let sys = System::build(strategy_cfg(LoggingStrategyKind::Hybrid), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let small = c.insert(t, page, b"tiny").unwrap(); // <= threshold → redo-only
        let big = c.insert(t, page, &[1u8; 120]).unwrap(); // > threshold → physical
        c.commit(t).unwrap();
        for _ in 0..3 {
            let t = c.begin().unwrap();
            c.write(t, small, b"tidy").unwrap();
            // The page leaves the client mid-transaction: one spill.
            c.harden().unwrap();
            c.commit(t).unwrap();
            let t = c.begin().unwrap();
            c.write(t, big, &[2u8; 120]).unwrap();
            c.commit(t).unwrap();
        }
        let snap = sys.metrics_snapshot();
        let bytes = |kind: &str| {
            snap.counters
                .get(&format!("wal_bytes_{kind}"))
                .copied()
                .unwrap_or(0)
        };
        assert!(
            bytes("redo_update") > 0,
            "hybrid must emit redo-only records"
        );
        assert!(
            bytes("update") > 0,
            "hybrid must emit physical update records"
        );
        // Three spills of the 4-byte image "tiny": 24 + 4 payload bytes
        // each, framed alike.
        let spill = bytes("undo_spill");
        assert!(
            spill > 0 && spill % 3 == 0,
            "one spill per hardened txn: {spill}"
        );
        assert!(!snap.counters.contains_key("wal_bytes_ext"));
    }

    /// wal_bytes_<kind> counters fold into the unified snapshot and cover
    /// the commit/update traffic of an ordinary ARIES run.
    #[test]
    fn metrics_snapshot_folds_wal_bytes_by_kind() {
        let sys = System::build(quiet_cfg(), 1).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        let page = c.create_page(t).unwrap();
        let obj = c.insert(t, page, b"data").unwrap();
        c.commit(t).unwrap();
        let t = c.begin().unwrap();
        c.write(t, obj, b"more").unwrap();
        c.commit(t).unwrap();
        let snap = sys.metrics_snapshot();
        for kind in ["begin", "update", "commit"] {
            let v = snap
                .counters
                .get(&format!("wal_bytes_{kind}"))
                .copied()
                .unwrap_or(0);
            assert!(v > 0, "wal_bytes_{kind} must be non-zero");
        }
    }

    /// Lazy client init: an idle client's hot maps stay unallocated and
    /// it stays out of the active set; the first `begin` pre-sizes the
    /// maps from config.
    #[test]
    fn lazy_client_init_defers_and_presizes_hot_state() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (active, idle) = (sys.client(0), sys.client(1));
        assert!(!active.is_touched() && !idle.is_touched());
        assert_eq!(idle.hot_map_capacities(), (0, 0, 0));

        let t = active.begin().unwrap();
        let page = active.create_page(t).unwrap();
        let obj = active.insert(t, page, b"data").unwrap();
        active.commit(t).unwrap();
        let _ = obj;

        assert!(active.is_touched(), "begin marks the client active");
        assert!(!idle.is_touched(), "idle client stays out of the set");
        let (dpt, txns, in_transit) = active.hot_map_capacities();
        assert!(
            dpt >= quiet_cfg().client_cache_pages,
            "dpt pre-sized from client_cache_pages, got {dpt}"
        );
        assert!(txns >= 8 && in_transit >= 8);
        assert_eq!(idle.hot_map_capacities(), (0, 0, 0));
    }

    /// The config is shared behind one `Arc`, not cloned per client.
    #[test]
    fn config_is_shared_not_cloned() {
        let sys = System::build(quiet_cfg(), 3).unwrap();
        let shared = sys.server.config_shared();
        // 1 (server) + 3 (clients) + 1 (this handle); sanity-bound it.
        assert!(Arc::strong_count(&shared) >= 5);
        assert!(std::ptr::eq(sys.server.config(), sys.client(2).config()));
    }

    /// The full sharing workload of `two_clients_share_data_via_callbacks`,
    /// but over real sockets: frames, correlation IDs, reverse RPCs and
    /// the wire-stats surface all get exercised without a second process.
    #[test]
    fn socket_transport_shares_data_and_counts_wire_bytes() {
        for kind in [TransportKind::Uds, TransportKind::Tcp] {
            let sys = System::build(quiet_cfg().with_transport(kind), 2).unwrap();
            let (alice, bob) = (sys.client(0), sys.client(1));
            let t = alice.begin().unwrap();
            let page = alice.create_page(t).unwrap();
            let obj = alice.insert(t, page, b"from-alice").unwrap();
            alice.commit(t).unwrap();

            let t = bob.begin().unwrap();
            assert_eq!(bob.read(t, obj).unwrap(), b"from-alice", "{kind:?}");
            bob.commit(t).unwrap();

            let t = bob.begin().unwrap();
            bob.write(t, obj, b"from-bob!!").unwrap();
            bob.commit(t).unwrap();

            let t = alice.begin().unwrap();
            assert_eq!(alice.read(t, obj).unwrap(), b"from-bob!!", "{kind:?}");
            alice.commit(t).unwrap();

            let wire = sys.wire_snapshot().expect("socket mode exposes wire stats");
            assert!(wire.total_messages() > 0, "{kind:?}: no frames counted");
            let snap = sys.metrics_snapshot();
            let wire_bytes = snap.counters.get("wire_total_bytes").copied().unwrap_or(0);
            let nominal = snap.counters.get("net_total_bytes").copied().unwrap_or(0);
            assert!(
                wire_bytes > 0,
                "{kind:?}: wire bytes must fold into snapshot"
            );
            assert!(
                nominal > 0,
                "{kind:?}: nominal accounting must keep running"
            );
            assert_no_socket_errors(&sys);
        }
    }

    /// Every socket error counter is registered, and none has counted.
    fn assert_no_socket_errors(sys: &System) {
        let counters = sys.metrics_snapshot().counters;
        for name in [
            "socket_conn_setup_failed",
            "socket_read_failed",
            "socket_bad_frame",
            "socket_register_failed",
        ] {
            assert_eq!(counters.get(name), Some(&0), "{name}");
        }
    }

    /// §3.3 over a socket: a crashed client re-registers over the same
    /// live connection, replays its private log and rolls back losers.
    #[test]
    fn socket_transport_client_crash_recovery() {
        let sys = System::build(quiet_cfg().with_transport(TransportKind::Uds), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let obj = alice.insert(t, page, b"committed!").unwrap();
        alice.commit(t).unwrap();

        let t = alice.begin().unwrap();
        alice.write(t, obj, b"dirtydirty").unwrap();
        alice.checkpoint().unwrap();
        alice.crash();
        let report = alice.recover().unwrap();
        assert!(report.losers >= 1, "the in-flight txn must roll back");

        let t = bob.begin().unwrap();
        assert_eq!(bob.read(t, obj).unwrap(), b"committed!");
        bob.commit(t).unwrap();
        assert_no_socket_errors(&sys);
    }

    #[test]
    fn server_crash_recovery_with_operational_clients() {
        let sys = System::build(quiet_cfg(), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let t = alice.begin().unwrap();
        let page = alice.create_page(t).unwrap();
        let oa = alice.insert(t, page, b"aaaa").unwrap();
        let ob = alice.insert(t, page, b"bbbb").unwrap();
        alice.commit(t).unwrap();
        // Bob takes over object b and commits an update.
        let t = bob.begin().unwrap();
        bob.write(t, ob, b"BOB!").unwrap();
        bob.commit(t).unwrap();

        sys.server.crash();
        let report = sys.server.restart_recovery().unwrap();
        let _ = report;

        // Committed state is intact after restart.
        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, oa).unwrap(), b"aaaa");
        assert_eq!(alice.read(t, ob).unwrap(), b"BOB!");
        alice.commit(t).unwrap();
    }

    /// Allocate one page per partition: with the shared round-robin
    /// allocation cursor the first two `create_page` calls land on
    /// different residue classes.
    fn two_pages_two_partitions(
        sys: &System,
        client: &Arc<ClientCore>,
    ) -> (fgl_common::PageId, fgl_common::PageId) {
        let t = client.begin().unwrap();
        let pa = client.create_page(t).unwrap();
        let pb = client.create_page(t).unwrap();
        client.commit(t).unwrap();
        assert_eq!(sys.servers.len(), 2);
        assert_ne!(
            pa.0 % 2,
            pb.0 % 2,
            "round-robin allocation must spread partitions"
        );
        assert!(sys.servers[(pa.0 % 2) as usize].owns_page(pa));
        assert!(sys.servers[(pb.0 % 2) as usize].owns_page(pb));
        (pa, pb)
    }

    /// Tentpole smoke: two server instances, a transaction spanning both,
    /// callback-mediated sharing across clients — all through one routed
    /// `ServerApi` handle.
    #[test]
    fn multi_instance_clients_share_across_partitions() {
        let sys = System::build(quiet_cfg().with_server_instances(2), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let (pa, pb) = two_pages_two_partitions(&sys, alice);

        // One transaction writes both partitions, committing atomically
        // from the client's single WAL force.
        let t = alice.begin().unwrap();
        let oa = alice.insert(t, pa, b"part-a").unwrap();
        let ob = alice.insert(t, pb, b"part-b").unwrap();
        alice.commit(t).unwrap();

        // Bob takes both over via callbacks, updating cross-partition.
        let t = bob.begin().unwrap();
        bob.write(t, oa, b"BOB-a!").unwrap();
        bob.write(t, ob, b"BOB-b!").unwrap();
        bob.commit(t).unwrap();

        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, oa).unwrap(), b"BOB-a!");
        assert_eq!(alice.read(t, ob).unwrap(), b"BOB-b!");
        alice.commit(t).unwrap();

        // Both instances actually served lock traffic, their counters
        // sum to the global axis, and instances are the only partition
        // axis the metrics name.
        let snap = sys.metrics_snapshot();
        let mut per_instance = 0;
        for k in 0..2 {
            let served = snap
                .counters
                .get(&format!("srv{k}_lock_requests"))
                .copied()
                .unwrap_or(0);
            assert!(served > 0, "instance {k} saw no lock traffic");
            per_instance += served;
        }
        assert_eq!(snap.counters["server_lock_requests"], per_instance);
        assert!(!snap.counters.keys().any(|name| name.contains("shard")));
    }

    /// The router composes with the socket transport: two server
    /// processes' worth of listeners, each with its own wire accounting.
    #[test]
    fn multi_instance_socket_transport_routes_frames() {
        let cfg = quiet_cfg()
            .with_transport(TransportKind::Uds)
            .with_server_instances(2);
        let sys = System::build(cfg, 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));

        // Socket mode gives each client its own allocation cursor, so
        // alice's first two pages still alternate partitions.
        let (pa, pb) = two_pages_two_partitions(&sys, alice);
        let t = alice.begin().unwrap();
        let oa = alice.insert(t, pa, b"sock-a").unwrap();
        let ob = alice.insert(t, pb, b"sock-b").unwrap();
        alice.commit(t).unwrap();

        let t = bob.begin().unwrap();
        assert_eq!(bob.read(t, oa).unwrap(), b"sock-a");
        assert_eq!(bob.read(t, ob).unwrap(), b"sock-b");
        bob.commit(t).unwrap();

        let snap = sys.metrics_snapshot();
        for k in 0..2 {
            let frames = snap
                .counters
                .get(&format!("srv{k}_wire_total_messages"))
                .copied()
                .unwrap_or(0);
            assert!(frames > 0, "partition {k} listener saw no frames");
        }
        let merged = sys.wire_snapshot().unwrap();
        let per: u64 = (0..2)
            .map(|k| {
                snap.counters
                    .get(&format!("srv{k}_wire_total_messages"))
                    .copied()
                    .unwrap()
            })
            .sum();
        assert_eq!(merged.total_messages(), per);
        assert_no_socket_errors(&sys);
    }

    /// A deadlock cycle spanning two server instances: each instance's
    /// local wait graph holds one edge, only the coordinator's merged
    /// search can close the cycle — and it must kill the youngest
    /// transaction, exactly as a single-server cycle would.
    #[test]
    fn cross_server_deadlock_picks_youngest_victim() {
        let sys = System::build(quiet_cfg().with_server_instances(2), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let (pa, pb) = two_pages_two_partitions(&sys, alice);
        let t = alice.begin().unwrap();
        let oa = alice.insert(t, pa, b"aaaa").unwrap();
        let ob = alice.insert(t, pb, b"bbbb").unwrap();
        alice.commit(t).unwrap();

        // ta holds X on partition A's object and wants partition B's;
        // tb holds the opposite — a cycle no single instance can see.
        let ta = alice.begin().unwrap();
        let tb = bob.begin().unwrap();
        alice.write(ta, oa, b"AAAA").unwrap();
        bob.write(tb, ob, b"BBBB").unwrap();

        // Same youngest-victim rule the local search applies.
        let expected = if (ta.local_seq(), ta.0) > (tb.local_seq(), tb.0) {
            ta
        } else {
            tb
        };

        let barrier = std::sync::Barrier::new(2);
        let cross = |c: &Arc<ClientCore>, t, o| -> Result<()> {
            barrier.wait();
            c.write(t, o, b"SWAP")?;
            c.commit(t)
        };
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(|| cross(alice, ta, ob));
            let hb = s.spawn(|| cross(bob, tb, oa));
            (ha.join().unwrap(), hb.join().unwrap())
        });

        let (victim_res, survivor_res) = if expected == ta { (ra, rb) } else { (rb, ra) };
        let err = victim_res.expect_err("the youngest transaction must die");
        assert!(err.is_transaction_abort(), "unexpected error: {err:?}");
        survivor_res.expect("the older transaction must commit");

        // Killed by detection, not by the timeout backstop.
        let (a, b) = (alice.stats(), bob.stats());
        assert_eq!(a.deadlock_victims + b.deadlock_victims, 1);
        assert_eq!(a.lock_timeouts + b.lock_timeouts, 0);
    }

    /// One partition restarts (§3.4 gather against only the clients that
    /// touched it) while the other keeps serving uninterrupted.
    #[test]
    fn partition_restart_while_others_serve() {
        let sys = System::build(quiet_cfg().with_server_instances(2), 2).unwrap();
        let (alice, bob) = (sys.client(0), sys.client(1));
        let (pa, pb) = two_pages_two_partitions(&sys, alice);
        let t = alice.begin().unwrap();
        let oa = alice.insert(t, pa, b"stay").unwrap();
        let ob = alice.insert(t, pb, b"stay").unwrap();
        alice.commit(t).unwrap();

        let down = (pa.0 % 2) as usize;
        let live = 1 - down;
        sys.servers[down].crash();

        // The other partition keeps serving while its sibling is down.
        let t = bob.begin().unwrap();
        bob.write(t, ob, b"live").unwrap();
        bob.commit(t).unwrap();
        assert!(sys.servers[live].owns_page(pb));

        // The crashed partition recovers independently, gathering only
        // its own residue class from the clients that touched it.
        sys.servers[down].restart_recovery().unwrap();

        let t = alice.begin().unwrap();
        assert_eq!(alice.read(t, oa).unwrap(), b"stay");
        assert_eq!(alice.read(t, ob).unwrap(), b"live");
        alice.commit(t).unwrap();
    }
}
