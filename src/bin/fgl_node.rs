//! `fgl_node` — run the page server and its clients as **separate
//! processes** over the socket transport.
//!
//! Three subcommands share a rendezvous directory:
//!
//! ```text
//! fgl_node server --dir /tmp/demo [--tcp] [--pages 8] [--objects 8] [--partition I/N]
//! fgl_node client --dir /tmp/demo --id 1 --clients 2 --txns 50 [--crash-at 25] [--partitions N]
//! fgl_node verify --dir /tmp/demo [--partitions N]
//! ```
//!
//! The server populates a database, binds a Unix-domain socket at
//! `<dir>/fgl.sock` (or an ephemeral TCP port with `--tcp`) and writes a
//! `layout` manifest — endpoint plus object geometry — that clients poll
//! for. Each client owns the objects whose index is congruent to its id
//! (mod the client count), writes only those, and reads foreign objects
//! so the callback protocol actually crosses process boundaries. Every
//! committed write is recorded in a local oracle; `--crash-at T` runs
//! the §3.3 drill mid-workload (an in-flight loser, [`ClientCore::crash`],
//! then restart recovery over the live connection). On exit the client
//! verifies its own partition over the wire, dumps the oracle to
//! `<dir>/oracle-<id>`, hardens (ships dirty pages — the paper's planned
//! shutdown) and disconnects. `verify` then joins as one more client and
//! checks *every* process's oracle against what the server-side state
//! actually serves. Exit codes are the contract: 0 means clean.
//!
//! With `--partition I/N` the server process runs instance I of an N-way
//! partitioned page service: it owns pages in the residue class
//! `PageId % N == I`, populates its own residue locally, and publishes
//! `layout-I` instead of `layout`. Clients and the verifier pass
//! `--partitions N`, wait for all N manifests, and route through a
//! [`PartitionedServer`] over one socket connection per instance. The
//! in-process deadlock coordinator does not span OS processes — true
//! cross-server deadlocks between separate server processes fall back to
//! the lock-timeout backstop (see DESIGN §13).

use fgl::{
    ClientCore, ClientId, FglError, HistKind, Metrics, NetSim, NetSnapshot, NetStats, ObjectId,
    PageId, PartitionedServer, RemoteServer, Result, ServerApi, ServerCore, SlotId, SocketServer,
    SystemConfig, TransportKind,
};
use fgl_common::rng::DetRng;
use fgl_sim::populate;
use fgl_storage::disk::MemDisk;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOADER_ID: u32 = 100;
const VERIFIER_ID: u32 = 101;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("server") => run(server_cmd(&args[1..])),
        Some("client") => run(client_cmd(&args[1..])),
        Some("verify") => run(verify_cmd(&args[1..])),
        _ => {
            eprintln!(
                "usage: fgl_node server --dir D [--tcp] [--pages N] [--objects N] \
                 [--object-size B] [--exit-when FILE] [--partition I/N]\n       \
                 fgl_node client --dir D --id K --clients N --txns T [--crash-at T2] [--seed S] \
                 [--partitions N]\n       \
                 fgl_node verify --dir D [--partitions N]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn run(r: Result<bool>) -> i32 {
    match r {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("fgl_node: error: {e}");
            1
        }
    }
}

// ---- tiny arg parser -------------------------------------------------------

struct Opts<'a> {
    args: &'a [String],
}

impl<'a> Opts<'a> {
    fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| FglError::Config(format!("{name} wants a number, got {v:?}"))),
        }
    }

    fn dir(&self) -> Result<PathBuf> {
        self.value("--dir")
            .map(PathBuf::from)
            .ok_or_else(|| FglError::Config("--dir is required".into()))
    }

    /// `--partition I/N` (server side): which instance this process runs.
    fn partition(&self) -> Result<(usize, usize)> {
        let Some(v) = self.value("--partition") else {
            return Ok((0, 1));
        };
        let parsed = v
            .split_once('/')
            .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
        match parsed {
            Some((i, n)) if n >= 1 && i < n => Ok((i, n)),
            _ => Err(FglError::Config(format!(
                "--partition wants I/N with I < N, got {v:?}"
            ))),
        }
    }
}

// ---- server ----------------------------------------------------------------

fn server_cmd(args: &[String]) -> Result<bool> {
    let o = Opts { args };
    let dir = o.dir()?;
    std::fs::create_dir_all(&dir)?;
    let transport = if o.flag("--tcp") {
        TransportKind::Tcp
    } else {
        TransportKind::Uds
    };
    let pages = o.num("--pages", 8)? as usize;
    let objects_per_page = o.num("--objects", 8)? as usize;
    let object_size = o.num("--object-size", 64)? as usize;
    let (part, parts) = o.partition()?;

    let cfg = SystemConfig::default()
        .with_transport(transport)
        .with_server_instances(parts);
    cfg.validate()?;
    let net = Arc::new(NetSim::new(Duration::ZERO));
    let server = ServerCore::new_instance(
        cfg,
        net.clone(),
        Arc::new(MemDisk::new()),
        part,
        parts,
        Arc::new(Metrics::new()),
    );

    // Populate through an in-process loader client, then harden so the
    // authoritative copies live at the server before anyone connects.
    // Each instance populates locally: its allocator only hands out pages
    // in its own residue class, so N processes build disjoint slices of
    // one database without talking to each other.
    let loader = ClientCore::new(ClientId(LOADER_ID + part as u32), server.clone(), net);
    let layout = populate(&loader, pages, objects_per_page, object_size)?;
    loader.harden()?;

    let api: Arc<dyn ServerApi> = server.clone();
    let sock_name = if parts == 1 {
        "fgl.sock".to_string()
    } else {
        format!("fgl.{part}.sock")
    };
    let (sock, endpoint) = match transport {
        TransportKind::Tcp => {
            let s = SocketServer::serve_tcp(api, "127.0.0.1:0")?;
            let addr = s.local_addr().expect("tcp listener has an address");
            (s, format!("tcp {addr}"))
        }
        _ => {
            let path = dir.join(sock_name);
            let s = SocketServer::serve_uds(api, &path)?;
            (s, format!("uds {}", path.display()))
        }
    };

    // The manifest lands atomically and *after* the listener is up, so a
    // polling client that sees it can connect immediately.
    let mut m =
        format!("endpoint {endpoint}\npartition {part} {parts}\nobject_size {object_size}\n");
    for ob in &layout.objects {
        m.push_str(&format!("obj {} {}\n", ob.page.0, ob.slot.0));
    }
    let manifest_name = if parts == 1 {
        "layout".to_string()
    } else {
        format!("layout-{part}")
    };
    write_atomic(&dir.join(manifest_name), &m)?;
    eprintln!(
        "fgl_node server[{part}/{parts}]: {} objects on {} pages, serving on {endpoint}",
        layout.objects.len(),
        layout.pages.len()
    );

    let stop_file = o.value("--exit-when").map(PathBuf::from);
    loop {
        if let Some(f) = &stop_file {
            if f.exists() {
                eprintln!("fgl_node server: stop file present, exiting");
                // Threads the request pool started vs requests served: a
                // thread per request would make the two equal.
                let mut line = format!(
                    "socket: requests={} pool_threads={}",
                    sock.requests(),
                    sock.pool_threads()
                );
                let counters = server.metrics().snapshot().counters;
                for e in ["conn_setup_failed", "read_failed", "bad_frame"] {
                    let n = counters.get(&format!("socket_{e}")).copied().unwrap_or(0);
                    line.push_str(&format!(" {e}={n}"));
                }
                eprintln!("{line}");
                return Ok(true);
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

// ---- client ----------------------------------------------------------------

struct Manifest {
    /// One endpoint per partition, in instance order.
    endpoints: Vec<String>,
    objects: Vec<ObjectId>,
    object_size: usize,
}

fn client_cmd(args: &[String]) -> Result<bool> {
    let o = Opts { args };
    let dir = o.dir()?;
    let id = o.num("--id", 0)? as u32;
    let n_clients = o.num("--clients", 1)? as usize;
    let txns = o.num("--txns", 50)?;
    let crash_at = match o.value("--crash-at") {
        Some(_) => Some(o.num("--crash-at", 0)?),
        None => None,
    };
    let seed = o.num("--seed", 42)?;
    let partitions = o.num("--partitions", 1)? as usize;
    if id == 0 || id as usize > n_clients {
        return Err(FglError::Config(format!(
            "--id must be in 1..=--clients, got {id}"
        )));
    }

    let manifest = wait_for_manifests(&dir, partitions)?;
    let (remotes, core) = connect(&manifest, ClientId(id))?;
    let own: Vec<ObjectId> = manifest
        .objects
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % n_clients == (id as usize - 1))
        .map(|(_, ob)| ob)
        .collect();
    eprintln!(
        "fgl_node client {id}: connected, {} own / {} total objects",
        own.len(),
        manifest.objects.len()
    );

    // Seed the oracle from initial reads of the owned partition.
    let mut oracle: BTreeMap<ObjectId, Vec<u8>> = BTreeMap::new();
    let t = core.begin()?;
    for &ob in &own {
        oracle.insert(ob, core.read(t, ob)?);
    }
    core.commit(t)?;

    let mut rng = DetRng::new(seed ^ ((id as u64) << 32));
    let (mut commits, mut aborts) = (0u64, 0u64);
    for i in 0..txns {
        if crash_at == Some(i) {
            crash_drill(&core, &own, manifest.object_size, &mut rng)?;
        }
        match one_txn(
            &core,
            &own,
            &manifest.objects,
            manifest.object_size,
            &mut rng,
        ) {
            Ok(writes) => {
                commits += 1;
                for (ob, v) in writes {
                    oracle.insert(ob, v);
                }
            }
            Err(e) if e.is_transaction_abort() => aborts += 1,
            Err(e) => return Err(e),
        }
    }

    // Verify the owned partition over the wire, then dump the oracle for
    // the verifier process and leave cleanly (harden ships dirty pages).
    let mut mismatches = 0usize;
    let t = core.begin()?;
    for (&ob, want) in &oracle {
        if &core.read(t, ob)? != want {
            eprintln!("fgl_node client {id}: MISMATCH at {ob:?}");
            mismatches += 1;
        }
    }
    core.commit(t)?;
    let mut m = String::new();
    for (ob, v) in &oracle {
        m.push_str(&format!("obj {} {} {}\n", ob.page.0, ob.slot.0, hex(v)));
    }
    write_atomic(&dir.join(format!("oracle-{id}")), &m)?;
    core.harden()?;

    let wire = remotes
        .iter()
        .map(|r| r.wire_stats().snapshot())
        .fold(NetSnapshot::default(), |a, b| a.merge(&b));
    let snap = remotes[0].metrics().snapshot();
    let rtt = snap.hist(HistKind::WireRtt);
    eprintln!(
        "fgl_node client {id}: {commits} commits, {aborts} aborts, {mismatches} mismatches; \
         wire {} frames / {} bytes over {} connection(s), rtt p50={}us p95={}us",
        wire.total_messages(),
        wire.total_bytes(),
        remotes.len(),
        rtt.map_or(0, |h| h.p50()),
        rtt.map_or(0, |h| h.p95()),
    );
    // Replies one caller read for another: 0 when every RPC was read by
    // the thread that made it.
    let handed_off: u64 = remotes
        .iter()
        .map(|r| r.metrics().snapshot().counters["socket_replies_handed_off"])
        .sum();
    eprintln!("socket: replies_handed_off={handed_off}");
    for r in &remotes {
        r.disconnect();
    }
    Ok(mismatches == 0)
}

/// The §3.3 drill: leave a loser in flight, crash, recover over the same
/// live connection.
fn crash_drill(
    core: &Arc<ClientCore>,
    own: &[ObjectId],
    object_size: usize,
    rng: &mut DetRng,
) -> Result<()> {
    let t = core.begin()?;
    let ob = own[rng.range_usize(0, own.len())];
    let junk = vec![0xEE; object_size];
    // The write may itself lose a deadlock; either way the txn dies here.
    let _ = core.write(t, ob, &junk);
    core.crash();
    let report = core.recover()?;
    eprintln!(
        "fgl_node client {:?}: crashed and recovered ({} losers rolled back)",
        core.id(),
        report.losers
    );
    Ok(())
}

/// One workload transaction: overwrite an owned object, read a random
/// (likely foreign) one for cross-process contention.
fn one_txn(
    core: &Arc<ClientCore>,
    own: &[ObjectId],
    all: &[ObjectId],
    object_size: usize,
    rng: &mut DetRng,
) -> Result<Vec<(ObjectId, Vec<u8>)>> {
    let t = core.begin()?;
    let mut body = || -> Result<Vec<(ObjectId, Vec<u8>)>> {
        let ob = own[rng.range_usize(0, own.len())];
        let mut val = vec![0u8; object_size];
        rng.fill_bytes(&mut val);
        core.write(t, ob, &val)?;
        let foreign = all[rng.range_usize(0, all.len())];
        core.read(t, foreign)?;
        Ok(vec![(ob, val)])
    };
    match body() {
        Ok(writes) => {
            core.commit(t)?;
            Ok(writes)
        }
        Err(e) => {
            core.abort(t).ok();
            Err(e)
        }
    }
}

// ---- verify ----------------------------------------------------------------

fn verify_cmd(args: &[String]) -> Result<bool> {
    let o = Opts { args };
    let dir = o.dir()?;
    let partitions = o.num("--partitions", 1)? as usize;
    let manifest = wait_for_manifests(&dir, partitions)?;
    let (remotes, core) = connect(&manifest, ClientId(VERIFIER_ID))?;

    let mut expected: BTreeMap<ObjectId, Vec<u8>> = BTreeMap::new();
    let mut dumps = 0usize;
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("oracle-") {
            continue;
        }
        dumps += 1;
        for line in std::fs::read_to_string(entry.path())?.lines() {
            let mut f = line.split_whitespace();
            let (Some("obj"), Some(p), Some(s), Some(h)) = (f.next(), f.next(), f.next(), f.next())
            else {
                return Err(FglError::Config(format!(
                    "bad oracle line in {name}: {line}"
                )));
            };
            let ob = ObjectId {
                page: PageId(parse(p)?),
                slot: SlotId(parse(s)? as u16),
            };
            expected.insert(ob, unhex(h)?);
        }
    }
    if dumps == 0 {
        return Err(FglError::Config(format!(
            "no oracle-* dumps in {}",
            dir.display()
        )));
    }

    let mut mismatches = 0usize;
    let t = core.begin()?;
    for (&ob, want) in &expected {
        if &core.read(t, ob)? != want {
            eprintln!("fgl_node verify: MISMATCH at {ob:?}");
            mismatches += 1;
        }
    }
    core.commit(t)?;
    for r in &remotes {
        r.disconnect();
    }
    eprintln!(
        "fgl_node verify: {} objects from {dumps} client dumps, {mismatches} mismatches",
        expected.len()
    );
    Ok(mismatches == 0)
}

// ---- shared plumbing -------------------------------------------------------

fn connect(manifest: &Manifest, id: ClientId) -> Result<(Vec<Arc<RemoteServer>>, Arc<ClientCore>)> {
    let mut remotes: Vec<Arc<RemoteServer>> = Vec::with_capacity(manifest.endpoints.len());
    for endpoint in &manifest.endpoints {
        let wire = Arc::new(NetStats::default());
        let mut parts = endpoint.split_whitespace();
        let remote = match (parts.next(), parts.next()) {
            (Some("uds"), Some(path)) => {
                RemoteServer::connect_uds(Path::new(path), id, wire, None)?
            }
            (Some("tcp"), Some(addr)) => RemoteServer::connect_tcp(addr, id, wire, None)?,
            _ => return Err(FglError::Config(format!("bad endpoint line: {endpoint:?}"))),
        };
        remotes.push(remote);
    }
    let api: Arc<dyn ServerApi> = if remotes.len() == 1 {
        remotes[0].clone()
    } else {
        PartitionedServer::new(
            remotes
                .iter()
                .map(|r| r.clone() as Arc<dyn ServerApi>)
                .collect(),
        )
    };
    let core = ClientCore::new(id, api, Arc::new(NetSim::new(Duration::ZERO)));
    Ok((remotes, core))
}

/// Wait for all `parts` per-partition manifests (`layout` when single,
/// `layout-K` otherwise) and merge them: endpoints in instance order,
/// object lists concatenated and sorted so every process derives the
/// same ownership assignment.
fn wait_for_manifests(dir: &Path, parts: usize) -> Result<Manifest> {
    let mut endpoints = Vec::with_capacity(parts);
    let mut objects = Vec::new();
    let mut object_size = 0usize;
    for k in 0..parts {
        let name = if parts == 1 {
            "layout".to_string()
        } else {
            format!("layout-{k}")
        };
        let one = read_manifest(&dir.join(name), k, parts)?;
        endpoints.push(one.0);
        objects.extend(one.1);
        object_size = one.2;
    }
    objects.sort_unstable();
    Ok(Manifest {
        endpoints,
        objects,
        object_size,
    })
}

/// Poll one partition's manifest into (endpoint, objects, object_size).
fn read_manifest(path: &Path, part: usize, parts: usize) -> Result<(String, Vec<ObjectId>, usize)> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let text = loop {
        match std::fs::read_to_string(path) {
            Ok(t) => break t,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => {
                return Err(FglError::Config(format!(
                    "no layout manifest at {}: {e}",
                    path.display()
                )))
            }
        }
    };
    let mut endpoint = None;
    let mut object_size = 0usize;
    let mut objects = Vec::new();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("endpoint") => endpoint = Some(line["endpoint ".len()..].to_string()),
            Some("partition") => {
                let (Some(i), Some(n)) = (f.next(), f.next()) else {
                    return Err(FglError::Config(format!("bad manifest line: {line}")));
                };
                if parse(i)? as usize != part || parse(n)? as usize != parts {
                    return Err(FglError::Config(format!(
                        "manifest {} declares partition {i}/{n}, expected {part}/{parts}",
                        path.display()
                    )));
                }
            }
            Some("object_size") => {
                object_size = parse(f.next().unwrap_or(""))? as usize;
            }
            Some("obj") => {
                let (Some(p), Some(s)) = (f.next(), f.next()) else {
                    return Err(FglError::Config(format!("bad manifest line: {line}")));
                };
                objects.push(ObjectId {
                    page: PageId(parse(p)?),
                    slot: SlotId(parse(s)? as u16),
                });
            }
            _ => {}
        }
    }
    match (endpoint, objects.is_empty()) {
        (Some(endpoint), false) => Ok((endpoint, objects, object_size)),
        _ => Err(FglError::Config("incomplete layout manifest".into())),
    }
}

fn parse(s: &str) -> Result<u64> {
    s.parse()
        .map_err(|_| FglError::Config(format!("expected a number, got {s:?}")))
}

/// Write via temp + rename so concurrent pollers never see a torn file.
fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(FglError::Config("odd-length hex".into()));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| FglError::Config(format!("bad hex {:?}", &s[i..i + 2])))
        })
        .collect()
}
