//! The benchmark's decorators on the product's public seams: a
//! [`ServerApi`] wrapper (which in turn wraps every [`ClientPeer`] that
//! registers through it), a [`LogStore`] wrapper and a [`DiskBackend`]
//! wrapper. Each opens a span around the call it forwards and counts what
//! crosses the boundary. Used only in the decorated half of a traced run.

use crate::trace::{Kind, Tracer};
use fgl::{ClientId, Lsn, ObjMode, ObjectId, PageId, Psn, Result, ServerApi, SystemConfig, TxnId};
use fgl_locks::glm::CallbackKind;
use fgl_locks::mode::LockTarget;
use fgl_net::api::{LockResponse, RecoverPagePlan, RecoveryHandshake};
use fgl_net::{CallbackOutcome, ClientPeer, ClientStateReport, RecoveredPageOutcome};
use fgl_obs::Metrics;
use fgl_storage::disk::DiskBackend;
use fgl_storage::page::Page;
use fgl_wal::store::{LogStore, MasterAnchor};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Which side of the wire a [`TracedServer`] stands on: in front of the
/// server runtime itself, or in front of the client's socket stub (where
/// a call's duration includes the wire and the server's threads).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Server,
    Rpc,
}

pub struct TracedServer {
    inner: Arc<dyn ServerApi>,
    tracer: Arc<Tracer>,
    side: Side,
}

impl TracedServer {
    pub fn wrap(inner: Arc<dyn ServerApi>, tracer: Arc<Tracer>, side: Side) -> Arc<dyn ServerApi> {
        Arc::new(TracedServer {
            inner,
            tracer,
            side,
        })
    }

    fn kind(&self, server: Kind, rpc: Kind) -> Kind {
        match self.side {
            Side::Server => server,
            Side::Rpc => rpc,
        }
    }

    fn peer(&self, peer: Arc<dyn ClientPeer>) -> Arc<dyn ClientPeer> {
        Arc::new(TracedPeer {
            inner: peer,
            tracer: self.tracer.clone(),
        })
    }
}

impl ServerApi for TracedServer {
    fn register_client(&self, peer: Arc<dyn ClientPeer>) {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.register_client(self.peer(peer));
    }

    fn lock(
        &self,
        client: ClientId,
        txn: TxnId,
        target: LockTarget,
        cached_psn: Option<Psn>,
    ) -> Result<LockResponse> {
        let _s = self.tracer.span(self.kind(Kind::SrvLock, Kind::RpcLock));
        self.inner.lock(client, txn, target, cached_psn)
    }

    fn cancel_wait(&self, client: ClientId, txn: TxnId) {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.cancel_wait(client, txn);
    }

    fn callback_complete(
        &self,
        client: ClientId,
        kind: CallbackKind,
        retained: Vec<(ObjectId, ObjMode)>,
        page_copy: Option<Arc<[u8]>>,
    ) -> Result<()> {
        let _s = self
            .tracer
            .span(self.kind(Kind::SrvCbComplete, Kind::RpcOther));
        self.inner
            .callback_complete(client, kind, retained, page_copy)
    }

    fn fetch_page(&self, client: ClientId, page: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        let _s = self.tracer.span(self.kind(Kind::SrvFetch, Kind::RpcPage));
        self.inner.fetch_page(client, page)
    }

    fn allocate_page(&self, client: ClientId, txn: TxnId) -> Result<Vec<u8>> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcPage));
        self.inner.allocate_page(client, txn)
    }

    fn ship_page(&self, client: ClientId, bytes: Arc<[u8]>, replaced: bool) -> Result<()> {
        let _s = self.tracer.span(self.kind(Kind::SrvShip, Kind::RpcPage));
        self.inner.ship_page(client, bytes, replaced)
    }

    fn force_page(&self, client: ClientId, page: PageId) -> Result<()> {
        let _s = self
            .tracer
            .span(self.kind(Kind::SrvForcePage, Kind::RpcPage));
        self.inner.force_page(client, page)
    }

    fn commit_ship_log(
        &self,
        client: ClientId,
        records: Vec<u8>,
        touched: Vec<PageId>,
    ) -> Result<()> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.commit_ship_log(client, records, touched)
    }

    fn fetch_client_log(&self, client: ClientId) -> Result<Vec<u8>> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.fetch_client_log(client)
    }

    fn server_logging(&self) -> bool {
        self.inner.server_logging()
    }

    fn client_crashed(&self, client: ClientId) {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.client_crashed(client);
    }

    fn client_recovery_begin(
        &self,
        client: ClientId,
        peer: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.client_recovery_begin(client, self.peer(peer))
    }

    fn client_recovery_end(&self, client: ClientId) -> Result<()> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.client_recovery_end(client)
    }

    fn recovery_fetch(
        &self,
        client: ClientId,
        page: PageId,
        need: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.recovery_fetch(client, page, need)
    }

    fn recover_client_page(&self, client: ClientId, page: PageId) -> Result<RecoverPagePlan> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.recover_client_page(client, page)
    }

    fn poll_recovery_needs(&self, provider: ClientId) -> Vec<(PageId, Psn)> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.poll_recovery_needs(provider)
    }

    fn install_recovered(&self, client: ClientId, bytes: Vec<u8>) -> Result<()> {
        let _s = self.tracer.span(self.kind(Kind::SrvOther, Kind::RpcOther));
        self.inner.install_recovered(client, bytes)
    }

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn config_shared(&self) -> Arc<SystemConfig> {
        self.inner.config_shared()
    }

    fn metrics(&self) -> Arc<Metrics> {
        self.inner.metrics()
    }
}

struct TracedPeer {
    inner: Arc<dyn ClientPeer>,
    tracer: Arc<Tracer>,
}

impl TracedPeer {
    fn note(&self, kinds: &[CallbackKind]) {
        let de = kinds
            .iter()
            .filter(|k| matches!(k, CallbackKind::DeEscalatePage(_)))
            .count() as u64;
        self.tracer
            .callbacks
            .fetch_add(kinds.len() as u64, Ordering::Relaxed);
        self.tracer.deescalations.fetch_add(de, Ordering::Relaxed);
    }
}

impl ClientPeer for TracedPeer {
    fn client_id(&self) -> ClientId {
        self.inner.client_id()
    }

    fn deliver_callback(&self, kind: CallbackKind) -> CallbackOutcome {
        let _s = self.tracer.span(Kind::Callback);
        self.note(&[kind]);
        self.inner.deliver_callback(kind)
    }

    fn deliver_callback_batch(&self, kinds: &[CallbackKind]) -> Vec<CallbackOutcome> {
        let _s = self.tracer.span(Kind::Callback);
        self.note(kinds);
        self.inner.deliver_callback_batch(kinds)
    }

    fn notify_page_flushed(&self, page: PageId) {
        let _s = self.tracer.span(Kind::PeerOther);
        self.inner.notify_page_flushed(page);
    }

    fn report_state(&self) -> ClientStateReport {
        let _s = self.tracer.span(Kind::PeerOther);
        self.inner.report_state()
    }

    fn callback_list_for(
        &self,
        page: PageId,
        for_client: ClientId,
        from_lsn: Lsn,
    ) -> Vec<(ObjectId, Psn)> {
        let _s = self.tracer.span(Kind::PeerOther);
        self.inner.callback_list_for(page, for_client, from_lsn)
    }

    fn ship_cached_page(&self, page: PageId) -> Option<Arc<[u8]>> {
        let _s = self.tracer.span(Kind::PeerOther);
        self.inner.ship_cached_page(page)
    }

    fn recover_page(
        &self,
        page: PageId,
        base: Vec<u8>,
        install_psn: Psn,
        callback_list: Vec<(ObjectId, Psn)>,
    ) -> RecoveredPageOutcome {
        let _s = self.tracer.span(Kind::PeerOther);
        self.inner
            .recover_page(page, base, install_psn, callback_list)
    }
}

pub struct TracedLogStore {
    pub inner: Box<dyn LogStore>,
    pub tracer: Arc<Tracer>,
}

impl LogStore for TracedLogStore {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let _s = self.tracer.span(Kind::LogAppend);
        self.inner.append(bytes)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let _s = self.tracer.span(Kind::LogOther);
        self.inner.read(offset, len)
    }

    fn sync(&mut self) -> Result<()> {
        let _s = self.tracer.span(Kind::LogForce);
        self.inner.sync()
    }

    fn sync_range(&mut self, upto: u64) -> Result<()> {
        let _s = self.tracer.span(Kind::LogForce);
        self.inner.sync_range(upto)
    }

    fn write_master(&mut self, anchor: MasterAnchor) -> Result<()> {
        let _s = self.tracer.span(Kind::LogOther);
        self.inner.write_master(anchor)
    }

    fn read_master(&self) -> Result<MasterAnchor> {
        self.inner.read_master()
    }

    fn crash(&mut self) {
        self.inner.crash();
    }
}

pub struct TracedDisk {
    pub inner: Arc<dyn DiskBackend>,
    pub tracer: Arc<Tracer>,
}

impl DiskBackend for TracedDisk {
    fn read_page(&self, id: PageId) -> Result<Option<Page>> {
        let _s = self.tracer.span(Kind::DiskRead);
        self.inner.read_page(id)
    }

    fn write_page(&self, page: &Page) -> Result<()> {
        let _s = self.tracer.span(Kind::DiskWrite);
        self.inner.write_page(page)
    }

    fn sync(&self) -> Result<()> {
        let _s = self.tracer.span(Kind::DiskSync);
        self.inner.sync()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}
