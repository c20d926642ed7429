//! One system under test: a server and its clients, built either the way
//! a user builds one (`System::build`) or, for the decorated half of a
//! traced run, from the same public parts with the benchmark's decorators
//! in between. Also the database the clients load and the oracle that
//! says what every object must read back as.

use crate::decor::{Side, TracedDisk, TracedLogStore, TracedServer};
use crate::opgen::{object_bytes, LoadSpec, OBJECTS_PER_PAGE};
use crate::trace::Tracer;
use fgl::{
    ClientCore, ClientId, FglError, NetSim, ObjectId, RemoteServer, Result, ServerApi, ServerCore,
    SocketServer, System, SystemConfig, TransportKind,
};
use fgl_net::NetStats;
use fgl_storage::disk::{DiskBackend, MemDisk, SimDisk};
use fgl_wal::store::{MemLogStore, SimLogStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub struct Rig {
    pub server: Arc<ServerCore>,
    pub clients: Vec<Arc<ClientCore>>,
    pub net: Arc<NetSim>,
    /// Keeps a plainly built system (and its transport) alive.
    sys: Option<System>,
    /// Decorated socket wiring: stubs first, so they disconnect before
    /// the listener stops (the order `System` uses).
    remotes: Vec<Arc<RemoteServer>>,
    wire: Option<Arc<NetStats>>,
    _sock: Option<SocketServer>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        for r in &self.remotes {
            r.disconnect();
        }
    }
}

fn socket_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fgl-bench-{}-{}.sock",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

impl Rig {
    /// Build a system of `n` clients. With a tracer, every public seam is
    /// decorated; without, this is exactly `System::build`.
    pub fn build(cfg: &SystemConfig, n: usize, tracer: Option<&Arc<Tracer>>) -> Result<Rig> {
        let Some(tracer) = tracer else {
            let sys = System::build(cfg.clone(), n)?;
            return Ok(Rig {
                server: sys.server.clone(),
                clients: sys.clients.clone(),
                net: sys.net.clone(),
                sys: Some(sys),
                remotes: Vec::new(),
                wire: None,
                _sock: None,
            });
        };
        cfg.validate()?;
        fgl_obs::ring::set_capacity(cfg.obs_ring_entries);
        let socket = cfg.transport != TransportKind::Sim;
        let net = Arc::new(NetSim::new(if socket {
            Duration::ZERO
        } else {
            cfg.net_latency
        }));
        let disk: Arc<dyn DiskBackend> = Arc::new(TracedDisk {
            inner: Arc::new(SimDisk::new(Arc::new(MemDisk::new()), cfg.disk_latency)),
            tracer: tracer.clone(),
        });
        let server = ServerCore::new(cfg.clone(), net.clone(), disk);
        let front = TracedServer::wrap(server.clone(), tracer.clone(), Side::Server);
        let mut rig = Rig {
            server: server.clone(),
            clients: Vec::with_capacity(n),
            net: net.clone(),
            sys: None,
            remotes: Vec::new(),
            wire: None,
            _sock: None,
        };
        let path = socket_path();
        if socket {
            if cfg.transport != TransportKind::Uds {
                return Err(FglError::Config(
                    "the decorated rig wires sim and uds only".into(),
                ));
            }
            rig._sock = Some(SocketServer::serve_uds(front.clone(), &path)?);
            rig.wire = Some(Arc::new(NetStats::default()));
        }
        for i in 0..n {
            let id = ClientId(i as u32 + 1);
            let api: Arc<dyn ServerApi> = match &rig.wire {
                None => front.clone(),
                Some(wire) => {
                    let remote =
                        RemoteServer::connect_uds(&path, id, wire.clone(), Some(server.metrics()))?;
                    rig.remotes.push(remote.clone());
                    TracedServer::wrap(remote, tracer.clone(), Side::Rpc)
                }
            };
            rig.clients.push(ClientCore::with_log_store(
                id,
                api,
                net.clone(),
                Box::new(TracedLogStore {
                    inner: Box::new(SimLogStore::new(
                        Box::new(MemLogStore::new()),
                        cfg.disk_latency,
                    )),
                    tracer: tracer.clone(),
                }),
            ));
        }
        Ok(rig)
    }

    /// Real encoded bytes on the socket so far (0 on the sim fabric).
    pub fn wire_bytes(&self) -> u64 {
        match (&self.sys, &self.wire) {
            (Some(sys), _) => sys.wire_snapshot().map_or(0, |w| w.total_bytes()),
            (None, Some(w)) => w.snapshot().total_bytes(),
            (None, None) => 0,
        }
    }

    /// Bytes appended so far to the server log (the private logs' are in
    /// each client's stats).
    pub fn server_log_bytes(&self) -> u64 {
        self.server.wal_bytes_by_kind().iter().map(|(_, b)| b).sum()
    }
}

/// The loaded database and what it must contain: object `i` lives at
/// `ids[i]` and was last written by the write stamped `stamps[i]`
/// (0 = as loaded). Stamps are set inside `commit_with`'s window, after
/// the commit is durable and before its locks are released, so their
/// order is the serialization order.
pub struct Database {
    ids: Vec<OnceLock<ObjectId>>,
    stamps: Vec<AtomicU64>,
    pub load: LoadSpec,
}

impl Database {
    pub fn new(load: LoadSpec) -> Database {
        let n = (load.pages * OBJECTS_PER_PAGE) as usize;
        Database {
            ids: (0..n).map(|_| OnceLock::new()).collect(),
            stamps: (0..n).map(|_| AtomicU64::new(0)).collect(),
            load,
        }
    }

    pub fn id(&self, object: u32) -> ObjectId {
        *self.ids[object as usize]
            .get()
            .expect("object used before its page was loaded")
    }

    pub fn stamp(&self, object: u32, stamp: u64) {
        self.stamps[object as usize].store(stamp, Ordering::Relaxed);
    }

    fn region(&self, client: usize) -> std::ops::Range<u32> {
        let pages = self.load.pages / self.load.clients;
        let first = client as u32 * pages;
        first..first + pages
    }

    /// Client `client` creates its own region, one page per transaction,
    /// and hardens it: afterwards its pages are on the server's disk, its
    /// log is cold and its cache holds what fits.
    pub fn populate(&self, client_no: usize, client: &ClientCore) -> Result<()> {
        for page in self.region(client_no) {
            let t = client.begin()?;
            let pid = client.create_page(t)?;
            for slot in 0..OBJECTS_PER_PAGE {
                let object = page * OBJECTS_PER_PAGE + slot;
                let oid = client.insert(t, pid, &object_bytes(object, 0))?;
                let _ = self.ids[object as usize].set(oid);
            }
            client.commit(t)?;
        }
        client.harden()
    }

    /// Client `client` reads its own region back through the ordinary
    /// lock/callback protocol, one page per transaction, and compares
    /// every object with the oracle. Returns the objects that differ.
    pub fn verify(&self, client_no: usize, client: &ClientCore) -> Result<u64> {
        let mut wrong = 0;
        for page in self.region(client_no) {
            let t = client.begin()?;
            for slot in 0..OBJECTS_PER_PAGE {
                let object = page * OBJECTS_PER_PAGE + slot;
                let stamp = self.stamps[object as usize].load(Ordering::Relaxed);
                let got = client.read(t, self.id(object))?;
                if got != object_bytes(object, stamp) {
                    wrong += 1;
                }
            }
            client.commit(t)?;
        }
        Ok(wrong)
    }
}
