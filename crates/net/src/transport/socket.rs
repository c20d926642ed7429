//! The socket backend: TCP and Unix-domain sockets speaking the
//! [`crate::transport::frame`] codec.
//!
//! Two streams per client ([`StreamRole`]), three moving parts:
//!
//! * [`SocketServer`] — accept loop over an `Arc<dyn ServerApi>`. Each
//!   stream starts with a `Hello`/`HelloAck` handshake (the client
//!   announces its [`ClientId`] and the stream's role, the server answers
//!   with the full [`SystemConfig`] so both sides agree on every policy),
//!   then one reader thread per rpc stream reads request frames. A page
//!   fetch or ship ([`Request::runs_on_reader`]) runs on the reader
//!   itself; every other request goes to the server's cached worker pool
//!   — a lock request that triggers callbacks to *this* client must not
//!   block the frame reader that would deliver the callback reply.
//! * [`RemoteClientPeer`] — the server's [`ClientPeer`] view of a
//!   connected client: reverse RPCs down the events stream, correlated
//!   like forward requests. When the client is gone the peer degrades to
//!   [`unreachable_callback_reply`] — byte-for-byte the answers a dropped
//!   in-process client gives, so a vanished client behaves identically
//!   on both transports.
//! * [`RemoteServer`] — the client-side stub implementing [`ServerApi`].
//!   Each caller reads its own reply from the rpc stream under a shared
//!   read role. The stub's one reader thread reads the events stream:
//!   callbacks run on the stub's worker pool, and a `Grant` fulfils the
//!   [`GrantSlot`] that `lock` registered *before* sending — on its own
//!   stream a grant can overtake its `LockQueued` reply.
//!
//! Real encoded frame sizes are recorded client-side, both directions,
//! into a transport-owned [`NetStats`] ("wire stats") keyed by the same
//! [`MsgKind`] classification as the sim fabric — the nominal sim
//! accounting is never touched, so `transport = sim` runs stay
//! byte-identical and E17 can report the wire/nominal ratio.

use crate::api::{
    apply_callback, dispatch, unreachable_callback_reply, Callback, CallbackReplyMsg, Dispatched,
    FetchedPage, LockResponse, RecoverPagePlan, RecoveryHandshake, Reply, Request, ServerApi,
};
use crate::peer::{
    CallbackOutcome, ClientPeer, ClientStateReport, RecoverJob, RecoveredPageOutcome,
};
use crate::stats::{MsgKind, NetStats};
use crate::transport::frame::{self, FrameKind, StreamRole};
use crate::transport::pool::Pool;
use crate::wait::{grant_pair, GrantMsg, GrantSlot};
use fgl_common::config::CommitPolicy;
use fgl_common::{ClientId, FglError, Lsn, ObjectId, PageId, Psn, Result, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::{LockTarget, ObjMode};
use fgl_obs::{emit, Counter, Event, HistKind, Metrics, SocketSite};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Extra slack the server-side grant forwarder waits beyond the
/// configured lock timeout, so a verdict racing the client's own timeout
/// still gets delivered.
const GRANT_MARGIN: Duration = Duration::from_secs(5);

/// How long a reverse RPC waits for the client before degrading to the
/// unreachable-peer answer.
const CALLBACK_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected stream of either flavor. Both sides of the protocol are
/// flavor-agnostic above this enum.
pub enum ConnStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// Evaluate `$body` with `$s` bound to the inner stream of either flavor.
macro_rules! inner {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            ConnStream::Tcp($s) => $body,
            ConnStream::Unix($s) => $body,
        }
    };
}

impl ConnStream {
    fn try_clone(&self) -> std::io::Result<ConnStream> {
        Ok(match self {
            ConnStream::Tcp(s) => ConnStream::Tcp(s.try_clone()?),
            ConnStream::Unix(s) => ConnStream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) -> std::io::Result<()> {
        inner!(self, s => s.shutdown(std::net::Shutdown::Both))
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        inner!(self, s => s.set_read_timeout(t))
    }
}

impl std::io::Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        inner!(self, s => s.read(buf))
    }
}

impl std::io::Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        inner!(self, s => s.write(buf))
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        inner!(self, s => s.write_vectored(bufs))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        inner!(self, s => s.flush())
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<ConnStream> {
        Ok(match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                ConnStream::Tcp(s)
            }
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                ConnStream::Unix(s)
            }
        })
    }
}

// ---- server side -----------------------------------------------------------

/// The accepting half: serves an [`ServerApi`] over TCP or UDS until
/// dropped or [`SocketServer::shutdown`].
pub struct SocketServer {
    served: Arc<Served>,
    accept: Option<thread::JoinHandle<()>>,
    addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

/// What a [`SocketServer`] shares with its accept loop and connections.
struct Served {
    api: Arc<dyn ServerApi>,
    /// Runs every request its reader may not ([`Request::runs_on_reader`]).
    pool: Pool,
    /// Rpc connections whose events stream has not attached yet.
    awaiting: Mutex<HashMap<ClientId, Arc<ServerConn>>>,
    requests: AtomicU64,
    stop: AtomicBool,
    setup_failed: Counter,
    read_failed: Counter,
    bad_frame: Counter,
}

thread_local! {
    /// Set while a connection reader runs a request itself: nothing that
    /// request calls may wait on a peer (see [`Request::runs_on_reader`]).
    static ON_READER: Cell<bool> = const { Cell::new(false) };
}

impl SocketServer {
    /// Bind a TCP listener (use `"127.0.0.1:0"` for an ephemeral port —
    /// read it back with [`SocketServer::local_addr`]).
    pub fn serve_tcp(api: Arc<dyn ServerApi>, addr: &str) -> Result<SocketServer> {
        let l = TcpListener::bind(addr)?;
        let local = l.local_addr()?;
        SocketServer::spawn(api, Listener::Tcp(l), Some(local), None)
    }

    /// Bind a Unix-domain listener, replacing any stale socket file.
    pub fn serve_uds(api: Arc<dyn ServerApi>, path: &Path) -> Result<SocketServer> {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)?;
        SocketServer::spawn(api, Listener::Uds(l), None, Some(path.to_path_buf()))
    }

    fn spawn(
        api: Arc<dyn ServerApi>,
        listener: Listener,
        addr: Option<SocketAddr>,
        uds_path: Option<PathBuf>,
    ) -> Result<SocketServer> {
        let metrics = api.metrics();
        let served = Arc::new(Served {
            api,
            pool: Pool::new("fgl-req"),
            awaiting: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            setup_failed: metrics.counter("socket_conn_setup_failed"),
            read_failed: metrics.counter("socket_read_failed"),
            bad_frame: metrics.counter("socket_bad_frame"),
        });
        let s = served.clone();
        let accept = thread::Builder::new()
            .name("fgl-accept".into())
            .spawn(move || accept_loop(&s, listener))?;
        Ok(SocketServer {
            served,
            accept: Some(accept),
            addr,
            uds_path,
        })
    }

    /// Request frames read so far, over every connection.
    pub fn requests(&self) -> u64 {
        self.served.requests.load(Ordering::Relaxed)
    }

    /// Threads the request pool has started: the peak number of requests
    /// that ran on it at once, not the number it served.
    pub fn pool_threads(&self) -> usize {
        self.served.pool.threads_started()
    }

    /// The bound TCP address (None for UDS).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The bound socket path (None for TCP).
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// Stop accepting and join the accept loop: set `stop`, then wake the
    /// blocking `accept` with one throw-away connection. Existing
    /// connections run until their clients disconnect.
    pub fn shutdown(&mut self) {
        if let Some(h) = self.accept.take() {
            self.served.stop.store(true, Ordering::Release);
            let woke = match (&self.addr, &self.uds_path) {
                (Some(addr), _) => TcpStream::connect(addr).is_ok(),
                (None, Some(path)) => UnixStream::connect(path).is_ok(),
                (None, None) => false,
            };
            if woke {
                let _ = h.join();
            }
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(served: &Arc<Served>, listener: Listener) {
    while let Ok(stream) = listener.accept() {
        if served.stop.load(Ordering::Acquire) {
            break;
        }
        let served = served.clone();
        let _ = thread::Builder::new()
            .name("fgl-conn".into())
            .spawn(move || {
                if serve_conn(&served, stream).is_err() {
                    // A handshake that never completes is the only path
                    // here; established connections end via the reader.
                    served.setup_failed.add(1);
                    emit(Event::SocketFault {
                        client: None,
                        site: SocketSite::Setup,
                    });
                }
            });
    }
}

/// Per-client server state shared between the rpc reader, the pool
/// workers running its requests and the [`RemoteClientPeer`].
struct ServerConn {
    client: ClientId,
    /// The rpc stream: replies.
    writer: Mutex<ConnStream>,
    /// The events stream: callbacks and grants. `None` until the client
    /// attaches it, and again once the rpc stream is gone.
    events: Mutex<Option<ConnStream>>,
    cb_pending: Mutex<HashMap<u64, mpsc::Sender<CallbackReplyMsg>>>,
    cb_corr: AtomicU64,
    alive: AtomicBool,
}

impl ServerConn {
    fn send_reply(&self, corr: u64, reply: &Reply) -> Result<()> {
        let segs = frame::encode_reply(corr, reply)?;
        self.sent(frame::write_frame(&mut *self.writer.lock(), &segs))
    }

    /// Callbacks and grants go down the events stream.
    fn send_event(&self, segs: &[frame::Seg]) -> Result<()> {
        match self.events.lock().as_mut() {
            Some(stream) => self.sent(frame::write_frame(stream, segs)),
            None => Err(FglError::Disconnected("no events stream".into())),
        }
    }

    fn sent(&self, r: std::io::Result<()>) -> Result<()> {
        r.map_err(|e| {
            self.alive.store(false, Ordering::Relaxed);
            FglError::Io(e)
        })
    }
}

/// One accepted stream: the handshake, then an rpc stream's reader.
fn serve_conn(served: &Served, mut stream: ConnStream) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Handshake: the client leads with Hello; the config rides back so
    // both processes agree on every policy knob.
    let (_, body) = frame::read_kind(&mut reader, FrameKind::Hello)?;
    let (client, role) = frame::decode_hello(&body)?;
    let ack = frame::encode_hello_ack(served.api.config());
    match role {
        StreamRole::Rpc => {
            let conn = Arc::new(ServerConn {
                client,
                writer: Mutex::new(stream),
                events: Mutex::new(None),
                cb_pending: Mutex::new(HashMap::new()),
                cb_corr: AtomicU64::new(1),
                alive: AtomicBool::new(true),
            });
            // Listed before the ack: the client opens its events stream
            // only once it holds the ack. A failed ack ends the reader.
            served.awaiting.lock().insert(client, conn.clone());
            let _ = conn.sent(frame::write_frame(&mut *conn.writer.lock(), &ack));
            let peer: Arc<dyn ClientPeer> = Arc::new(RemoteClientPeer { conn: conn.clone() });
            conn_reader(served, conn, peer, reader);
        }
        StreamRole::Events => {
            let awaiting = served.awaiting.lock().remove(&client);
            let conn = awaiting.ok_or_else(|| {
                FglError::Protocol(format!("no rpc stream of {client:?} awaits events"))
            })?;
            // Attached before the client can send `Register`; never read.
            let mut events = conn.events.lock();
            frame::write_frame(&mut stream, &ack)?;
            *events = Some(stream);
        }
    }
    Ok(())
}

fn conn_reader(
    served: &Served,
    conn: Arc<ServerConn>,
    peer: Arc<dyn ClientPeer>,
    mut reader: BufReader<ConnStream>,
) {
    loop {
        let (h, body) = match frame::read_frame(&mut reader) {
            Ok(x) => x,
            Err(FglError::Disconnected(_)) => break,
            // A client that exits with frames still unread resets the
            // connection: a disconnect, not a failure.
            Err(FglError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(_) => {
                served.read_failed.add(1);
                emit(Event::SocketFault {
                    client: Some(conn.client),
                    site: SocketSite::Read,
                });
                break;
            }
        };
        match h.kind {
            FrameKind::Req => {
                if let Ok(req) = frame::decode_request(&h, &body) {
                    served.requests.fetch_add(1, Ordering::Relaxed);
                    if req.runs_on_reader() {
                        ON_READER.set(true);
                        handle_request(&*served.api, &conn, &peer, h.corr, req);
                        ON_READER.set(false);
                    } else {
                        // Dispatch may block on disk, on callbacks to
                        // other clients, or — for callbacks to *this*
                        // client — on a CbResp frame that only this reader
                        // can route. The reader must stay free.
                        let (api, conn, peer) = (served.api.clone(), conn.clone(), peer.clone());
                        let corr = h.corr;
                        served
                            .pool
                            .execute(move || handle_request(&*api, &conn, &peer, corr, req));
                    }
                    continue;
                }
            }
            FrameKind::CbResp => {
                if let Ok(reply) = frame::decode_callback_reply(&h, &body) {
                    if let Some(tx) = conn.cb_pending.lock().remove(&h.corr) {
                        let _ = tx.send(reply);
                    }
                    continue;
                }
            }
            _ => {}
        }
        // A frame that does not decode, or of a kind the rpc stream never
        // carries: the connection is dropped.
        served.bad_frame.add(1);
        emit(Event::SocketFault {
            client: Some(conn.client),
            site: SocketSite::BadFrame,
        });
        break;
    }
    // Connection gone. Deliberately NOT auto-marking the client crashed:
    // a cleanly exiting client keeps its retained locks resolvable via
    // the unreachable-peer callback fallbacks (release-with-no-copy),
    // while an actual crash announces itself through
    // `Request::ClientCrashed` before recovery. Pending reverse RPCs are
    // failed by dropping their senders; closing the events stream ends
    // the client's events reader.
    conn.alive.store(false, Ordering::Relaxed);
    conn.cb_pending.lock().clear();
    served.awaiting.lock().retain(|_, c| !Arc::ptr_eq(c, &conn));
    drop(conn.events.lock().take());
}

fn handle_request(
    api: &dyn ServerApi,
    conn: &ServerConn,
    peer: &Arc<dyn ClientPeer>,
    corr: u64,
    req: Request,
) {
    match dispatch(api, conn.client, req, peer) {
        Dispatched::Reply(reply) => {
            let _ = conn.send_reply(corr, &reply);
        }
        Dispatched::LockWait(waiter) => {
            // LockQueued on the rpc stream, then the grant under the SAME
            // correlation id on the events stream: either may arrive first.
            let _ = conn.send_reply(corr, &Reply::LockQueued);
            debug_assert!(!ON_READER.get(), "a reader-run request waited on a grant");
            let deadline = api.config().lock_timeout + GRANT_MARGIN;
            if let Some(msg) = waiter.wait(deadline) {
                let _ = conn.send_event(&frame::encode_grant(corr, &msg));
            }
            // On None the client timed out on its own waiter long ago and
            // has already sent CancelWait; nothing to deliver.
        }
    }
}

/// The server's reverse-RPC handle for one connected client.
pub struct RemoteClientPeer {
    conn: Arc<ServerConn>,
}

impl RemoteClientPeer {
    fn roundtrip(&self, cb: Callback) -> Option<CallbackReplyMsg> {
        debug_assert!(!ON_READER.get(), "a reader-run request waited on a peer");
        if !self.conn.alive.load(Ordering::Relaxed) {
            return unreachable_callback_reply(&cb);
        }
        let corr = self.conn.cb_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.conn.cb_pending.lock().insert(corr, tx);
        let segs = match frame::encode_callback(corr, &cb) {
            Ok(s) => s,
            Err(_) => {
                self.conn.cb_pending.lock().remove(&corr);
                return unreachable_callback_reply(&cb);
            }
        };
        if self.conn.send_event(&segs).is_err() {
            self.conn.cb_pending.lock().remove(&corr);
            return unreachable_callback_reply(&cb);
        }
        match rx.recv_timeout(CALLBACK_TIMEOUT) {
            Ok(reply) => Some(reply),
            Err(_) => {
                self.conn.cb_pending.lock().remove(&corr);
                unreachable_callback_reply(&cb)
            }
        }
    }

    fn one_way(&self, cb: Callback) {
        if !self.conn.alive.load(Ordering::Relaxed) {
            return;
        }
        let corr = self.conn.cb_corr.fetch_add(1, Ordering::Relaxed);
        if let Ok(segs) = frame::encode_callback(corr, &cb) {
            let _ = self.conn.send_event(&segs);
        }
    }
}

impl ClientPeer for RemoteClientPeer {
    fn client_id(&self) -> ClientId {
        self.conn.client
    }

    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        self.deliver_callback_batch(&[kind]).remove(0)
    }

    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        match self.roundtrip(Callback::DeliverBatch(kinds.to_vec())) {
            Some(CallbackReplyMsg::Outcomes(outcomes)) if outcomes.len() == kinds.len() => outcomes,
            _ => {
                let done = CallbackOutcome::Done {
                    retained: Vec::new(),
                    page_copy: None,
                };
                vec![done; kinds.len()]
            }
        }
    }

    fn notify_page_flushed(&self, page: PageId) {
        self.one_way(Callback::NotifyFlushed(page));
    }

    fn report_state(&self) -> ClientStateReport {
        match self.roundtrip(Callback::ReportState) {
            Some(CallbackReplyMsg::State(s)) => s,
            _ => ClientStateReport::default(),
        }
    }

    fn callback_list_for(
        &self,
        page: PageId,
        for_client: ClientId,
        from_lsn: Lsn,
    ) -> Vec<(ObjectId, Psn)> {
        self.callback_lists_for(&[(page, for_client, from_lsn)])
            .remove(0)
    }

    fn callback_lists_for(&self, queries: &[(PageId, ClientId, Lsn)]) -> Vec<Vec<(ObjectId, Psn)>> {
        match self.roundtrip(Callback::CallbackListsFor(queries.to_vec())) {
            Some(CallbackReplyMsg::CallbackLists(lists)) if lists.len() == queries.len() => lists,
            _ => vec![Vec::new(); queries.len()],
        }
    }

    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>> {
        self.ship_cached_pages(&[page]).remove(0)
    }

    fn ship_cached_pages(&self, pages: &[PageId]) -> Vec<Option<Arc<[u8]>>> {
        match self.roundtrip(Callback::ShipCachedPages(pages.to_vec())) {
            Some(CallbackReplyMsg::CachedPages(copies)) if copies.len() == pages.len() => copies,
            _ => vec![None; pages.len()],
        }
    }

    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        self.recover_pages(vec![RecoverJob {
            page,
            base: base.into(),
            install_psn,
            callback_list,
        }])
        .remove(0)
    }

    fn recover_pages(&self, jobs: Vec<RecoverJob>) -> Vec<RecoveredPageOutcome> {
        let n = jobs.len();
        match self.roundtrip(Callback::RecoverPages(jobs)) {
            Some(CallbackReplyMsg::RecoveredPages(outcomes)) if outcomes.len() == n => outcomes,
            _ => vec![RecoveredPageOutcome::Failed("client unreachable".into()); n],
        }
    }
}

// ---- client side -----------------------------------------------------------

/// Client-side stub: [`ServerApi`] over one rpc and one events stream.
/// The client runtime holds it as `Arc<dyn ServerApi>` exactly like the
/// in-process `ServerCore`.
pub struct RemoteServer {
    id: ClientId,
    cfg: Arc<SystemConfig>,
    /// The rpc stream: requests and callback replies.
    writer: Mutex<ConnStream>,
    /// The rpc stream's read side, shared by every caller.
    replies: Mutex<Replies>,
    /// Signalled when a reply is filed, the role freed or the stub downed.
    replied: Condvar,
    /// The rpc and events streams, kept to shut both down.
    streams: [ConnStream; 2],
    /// Pre-registered grant slots keyed by the `Lock` request's
    /// correlation id; pruned by `cancel_wait` (by transaction) and by
    /// grant delivery.
    grants: Mutex<HashMap<u64, (TxnId, GrantSlot)>>,
    next_corr: AtomicU64,
    peer: Mutex<Option<Arc<dyn ClientPeer>>>,
    /// Runs inbound callbacks.
    callbacks: Pool,
    metrics: Arc<Metrics>,
    register_failed: Counter,
    /// Replies read by a thread other than their caller.
    handed_off: Counter,
    wire: Arc<NetStats>,
    down: AtomicBool,
}

/// The read role over the rpc stream and the replies its holder filed.
struct Replies {
    /// `None` while a caller holds the read role.
    reader: Option<BufReader<ConnStream>>,
    arrived: HashMap<u64, Reply>,
}

impl RemoteServer {
    /// Connect over TCP. `wire` receives real encoded frame sizes both
    /// directions; `metrics` (the shared registry in in-process tests, a
    /// fresh one in separate processes) gets `wire_rtt_us` and counters.
    pub fn connect_tcp(
        addr: &str,
        id: ClientId,
        wire: Arc<NetStats>,
        metrics: Option<Arc<Metrics>>,
    ) -> Result<Arc<RemoteServer>> {
        let open = || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true).ok();
            Ok(ConnStream::Tcp(s))
        };
        RemoteServer::connect(open, id, wire, metrics)
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_uds(
        path: &Path,
        id: ClientId,
        wire: Arc<NetStats>,
        metrics: Option<Arc<Metrics>>,
    ) -> Result<Arc<RemoteServer>> {
        let open = || Ok(ConnStream::Unix(UnixStream::connect(path)?));
        RemoteServer::connect(open, id, wire, metrics)
    }

    fn connect(
        open: impl Fn() -> std::io::Result<ConnStream>,
        id: ClientId,
        wire: Arc<NetStats>,
        metrics: Option<Arc<Metrics>>,
    ) -> Result<Arc<RemoteServer>> {
        let mut rpc = open()?;
        let (rpc_reader, cfg) = handshake(&mut rpc, id, StreamRole::Rpc)?;
        // Attached before `Register`, so no callback precedes its stream.
        let mut events = open()?;
        let (events_reader, _) = handshake(&mut events, id, StreamRole::Events)?;
        // Individual RPCs answer fast (queued locks reply LockQueued
        // immediately); the margin covers dispatches that block on
        // callback round trips. A reader that waits longer gives up.
        rpc.set_read_timeout(Some(cfg.lock_timeout * 4 + Duration::from_secs(30)))?;
        let metrics = metrics.unwrap_or_default();
        let server = Arc::new(RemoteServer {
            id,
            cfg: Arc::new(cfg),
            writer: Mutex::new(rpc.try_clone()?),
            replies: Mutex::new(Replies {
                reader: Some(rpc_reader),
                arrived: HashMap::new(),
            }),
            replied: Condvar::new(),
            streams: [rpc, events],
            grants: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            peer: Mutex::new(None),
            callbacks: Pool::new("fgl-cb"),
            register_failed: metrics.counter("socket_register_failed"),
            handed_off: metrics.counter("socket_replies_handed_off"),
            metrics,
            wire,
            down: AtomicBool::new(false),
        });
        let rs = server.clone();
        thread::Builder::new()
            .name(format!("fgl-wire-{}", id.0))
            .spawn(move || rs.events_loop(events_reader))?;
        Ok(server)
    }

    /// The connection's wire-stats sink (real encoded bytes).
    pub fn wire_stats(&self) -> Arc<NetStats> {
        self.wire.clone()
    }

    /// Mark the stub down, shut both streams and wake every caller; the
    /// events reader (which holds an `Arc` to this stub) exits on EOF.
    pub fn disconnect(&self) {
        self.down.store(true, Ordering::Relaxed);
        for s in &self.streams {
            let _ = s.shutdown();
        }
        let _replies = self.replies.lock();
        self.replied.notify_all();
    }

    fn events_loop(self: Arc<Self>, mut reader: BufReader<ConnStream>) {
        while let Ok((h, body)) = frame::read_frame(&mut reader) {
            match h.kind {
                FrameKind::Grant => {
                    let Ok(msg) = frame::decode_grant(&h, &body) else {
                        break;
                    };
                    self.wire.record(MsgKind::LockReply, h.len as usize);
                    if let Some((_txn, slot)) = self.grants.lock().remove(&h.corr) {
                        slot.fulfil(msg);
                    }
                }
                FrameKind::Cb => {
                    let Ok(cb) = frame::decode_callback(&h, &body) else {
                        break;
                    };
                    self.wire.record(cb.msg_kind(), h.len as usize);
                    // Callbacks run on a worker: applying one can call
                    // straight back into the server (e.g. shipping a page
                    // with the outcome is a follow-up request on some
                    // paths) and must not hold up the next grant.
                    let me = self.clone();
                    let corr = h.corr;
                    self.callbacks.execute(move || me.handle_callback(corr, cb));
                }
                _ => break,
            }
        }
        // Outstanding RPCs fail with Disconnected; dropped slots leave
        // lock waiters to their timeout backstop.
        self.disconnect();
        self.grants.lock().clear();
    }

    fn handle_callback(&self, corr: u64, cb: Callback) {
        let peer = self.peer.lock().clone();
        let reply = if let Some(p) = peer {
            apply_callback(&*p, cb)
        } else {
            unreachable_callback_reply(&cb)
        };
        if let Some(reply) = reply {
            if let Ok(segs) = frame::encode_callback_reply(corr, &reply) {
                self.wire.record(reply.msg_kind(), frame::frame_len(&segs));
                if frame::write_frame(&mut *self.writer.lock(), &segs).is_err() {
                    self.disconnect();
                }
            }
        }
    }

    fn send(&self, corr: u64, req: &Request) -> Result<()> {
        let segs = frame::encode_request(corr, req)?;
        self.wire.record(req.msg_kind(), frame::frame_len(&segs));
        let sent = frame::write_frame(&mut *self.writer.lock(), &segs);
        sent.map_err(|e| {
            self.disconnect();
            FglError::Io(e)
        })
    }

    fn call(&self, req: Request) -> Result<Reply> {
        self.call_as(self.next_corr.fetch_add(1, Ordering::Relaxed), req)
    }

    /// One round trip under a correlation id the caller drew.
    fn call_as(&self, corr: u64, req: Request) -> Result<Reply> {
        if self.down.load(Ordering::Relaxed) {
            return Err(FglError::Disconnected("server connection closed".into()));
        }
        let t0 = Instant::now();
        self.send(corr, &req)?;
        let reply = self.await_reply(corr)?;
        self.metrics
            .observe(HistKind::WireRtt, t0.elapsed().as_micros() as u64);
        Ok(reply)
    }

    /// Wait for the reply to `corr` (leader/follower). A caller that finds
    /// the read role free takes it and reads until its own reply; one that
    /// finds it taken waits until its reply is filed or the role is free.
    /// A holder files the replies a callback worker's requests get, so its
    /// own reply may wait on that worker — a plain mutex would deadlock.
    fn await_reply(&self, corr: u64) -> Result<Reply> {
        let mut replies = self.replies.lock();
        loop {
            if let Some(reply) = replies.arrived.remove(&corr) {
                self.handed_off.add(1);
                return Ok(reply);
            }
            if self.down.load(Ordering::Relaxed) {
                return Err(FglError::Disconnected("server connection closed".into()));
            }
            if let Some(mut reader) = replies.reader.take() {
                drop(replies);
                let own = self.read_until(&mut reader, corr);
                self.replies.lock().reader = Some(reader);
                self.replied.notify_all();
                return own;
            }
            self.replied.wait(&mut replies);
        }
    }

    /// The read role: read replies until `corr`'s, filing the others'.
    /// Any failure (EOF, the read timeout, a non-reply) downs the stub.
    fn read_until(&self, reader: &mut BufReader<ConnStream>, corr: u64) -> Result<Reply> {
        loop {
            let read = frame::read_kind(reader, FrameKind::Resp)
                .and_then(|(h, body)| Ok((h, frame::decode_reply(&h, &body)?)));
            let (h, reply) = read.map_err(|e| {
                self.disconnect();
                FglError::Disconnected(format!("rpc stream failed: {e}"))
            })?;
            self.wire.record(reply.msg_kind(), h.len as usize);
            if h.corr == corr {
                return Ok(reply);
            }
            self.replies.lock().arrived.insert(h.corr, reply);
            self.replied.notify_all();
        }
    }
}

/// Open one stream: send its `Hello`, read the `HelloAck`, and return the
/// buffered reader the stream is read through from then on.
fn handshake(
    stream: &mut ConnStream,
    id: ClientId,
    role: StreamRole,
) -> Result<(BufReader<ConnStream>, SystemConfig)> {
    let mut reader = BufReader::new(stream.try_clone()?);
    frame::write_frame(stream, &frame::encode_hello(id, role))?;
    let (_, body) = frame::read_kind(&mut reader, FrameKind::HelloAck)?;
    Ok((reader, frame::decode_hello_ack(&body)?))
}

/// The reply `want` accepts; a `Reply::Err` is the server's error and
/// any other reply a protocol violation.
fn expect<T>(reply: Reply, want: impl FnOnce(Reply) -> std::result::Result<T, Reply>) -> Result<T> {
    want(reply).map_err(|other| match other {
        Reply::Err(e) => e.into(),
        other => FglError::Protocol(format!("unexpected reply {other:?}")),
    })
}

fn expect_unit(reply: Reply) -> Result<()> {
    expect(reply, |r| match r {
        Reply::Unit => Ok(()),
        r => Err(r),
    })
}

fn expect_page(reply: Reply) -> Result<(Vec<u8>, Option<Psn>)> {
    expect(reply, |r| match r {
        Reply::Page { bytes, psn } => Ok((bytes, psn)),
        r => Err(r),
    })
}

impl ServerApi for RemoteServer {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
        *self.peer.lock() = Some(peer);
        if self.call(Request::Register).and_then(expect_unit).is_err() {
            self.register_failed.add(1);
            emit(Event::SocketFault {
                client: Some(self.id),
                site: SocketSite::Register,
            });
        }
    }

    fn lock(
        &self,
        _client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<LockResponse> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        // Register the slot BEFORE the request leaves: the grant travels
        // on the events stream and can overtake the LockQueued reply.
        let (slot, waiter) = grant_pair();
        self.grants.lock().insert(corr, (txn, slot));
        let reply = self.call_as(
            corr,
            Request::Lock {
                txn,
                target,
                cached_psn,
            },
        );
        if !matches!(reply, Ok(Reply::LockQueued)) {
            self.grants.lock().remove(&corr);
        }
        expect(reply?, |r| match r {
            Reply::LockGranted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            } => Ok(LockResponse::Decided(GrantMsg::Granted {
                target,
                first_exclusive_on_page,
                evidence,
                page,
            })),
            Reply::LockQueued => Ok(LockResponse::Wait(waiter)),
            r => Err(r),
        })
    }

    fn cancel_wait(&self, _client: ClientId, txn: TxnId) {
        // Prune local slots first so a racing grant hits a dead letter,
        // then tell the server to dequeue.
        self.grants.lock().retain(|_, (t, _)| *t != txn);
        let _ = self.call(Request::CancelWait { txn });
    }

    fn callback_complete(
        &self,
        _client: ClientId,
        kind: CallbackKind,
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    ) -> Result<()> {
        self.call(Request::CallbackComplete {
            kind,
            retained,
            page_copy,
        })
        .and_then(expect_unit)
    }

    fn fetch_page(&self, _client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        self.call(Request::FetchPage { page }).and_then(expect_page)
    }

    fn allocate_page(&self, _client: ClientId, txn: TxnId) -> Result<Vec<u8>> {
        expect(self.call(Request::AllocatePage { txn })?, |r| match r {
            Reply::PageImage(bytes) => Ok(bytes),
            r => Err(r),
        })
    }

    fn ship_page(&self, _client: ClientId, bytes: Arc<[u8]>, replaced: bool) -> Result<()> {
        self.call(Request::ShipPage { bytes, replaced })
            .and_then(expect_unit)
    }

    fn force_page(&self, _client: ClientId, page: PageId) -> Result<()> {
        self.call(Request::ForcePage { page }).and_then(expect_unit)
    }

    fn fetch_pages(&self, _client: ClientId, pages: &[PageId]) -> Result<Vec<FetchedPage>> {
        let want = pages.len();
        let pages = pages.to_vec();
        expect(self.call(Request::FetchPages { pages })?, |r| match r {
            Reply::Pages(copies) if copies.len() == want => Ok(copies),
            r => Err(r),
        })
    }

    fn ship_pages(&self, _client: ClientId, pages: Vec<Arc<[u8]>>, replaced: bool) -> Result<()> {
        self.call(Request::ShipPages { pages, replaced })
            .and_then(expect_unit)
    }

    fn force_pages(&self, _client: ClientId, pages: &[PageId]) -> Result<()> {
        let pages = pages.to_vec();
        self.call(Request::ForcePages { pages })
            .and_then(expect_unit)
    }

    fn commit_ship_log(
        &self,
        _client: ClientId,
        records: Vec<u8>,
        touched: Vec<PageId>,
    ) -> Result<()> {
        self.call(Request::CommitShipLog { records, touched })
            .and_then(expect_unit)
    }

    fn fetch_client_log(&self, _client: ClientId) -> Result<Vec<u8>> {
        expect(self.call(Request::FetchClientLog)?, |r| match r {
            Reply::Bytes(bytes) => Ok(bytes),
            r => Err(r),
        })
    }

    fn server_logging(&self) -> bool {
        self.cfg.commit_policy != CommitPolicy::ClientLog
    }

    fn client_crashed(&self, _client: ClientId) {
        let _ = self.call(Request::ClientCrashed);
    }

    fn client_recovery_begin(
        &self,
        _client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        *self.peer.lock() = Some(peer);
        expect(self.call(Request::RecoveryBegin)?, |r| match r {
            Reply::Handshake {
                locks,
                pages,
                dct_complete,
            } => Ok((locks, pages, dct_complete)),
            r => Err(r),
        })
    }

    fn client_recovery_end(&self, _client: ClientId) -> Result<()> {
        self.call(Request::RecoveryEnd).and_then(expect_unit)
    }

    fn recovery_fetch(
        &self,
        _client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        self.call(Request::RecoveryFetch { page, need })
            .and_then(expect_page)
    }

    fn recover_client_page(&self, _client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        expect(
            self.call(Request::RecoverClientPage { page })?,
            |r| match r {
                Reply::RecoverPlan {
                    base,
                    install_psn,
                    callback_list,
                } => Ok((base, install_psn, callback_list)),
                r => Err(r),
            },
        )
    }

    fn poll_recovery_needs(&self, _provider: ClientId) -> Vec<(PageId, Psn)> {
        match self.call(Request::PollRecoveryNeeds) {
            Ok(Reply::Needs(v)) => v,
            _ => Vec::new(),
        }
    }

    fn install_recovered(&self, _client: ClientId, bytes: Vec<u8>) -> Result<()> {
        self.call(Request::InstallRecovered { bytes })
            .and_then(expect_unit)
    }

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn config_shared(&self) -> Arc<SystemConfig> {
        self.cfg.clone()
    }

    fn metrics(&self) -> Arc<Metrics> {
        self.metrics.clone()
    }
}
