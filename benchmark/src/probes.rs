//! Micro-probes: one public function of one layer at a time, called in a
//! loop on one thread. Nanoseconds per operation, median of five ~20 ms
//! batches after a warm-up batch. They explain a move of an end-to-end
//! metric; they gate nothing.

use fgl::{
    ClientId, Lsn, ObjMode, ObjectId, PageId, Psn, Result, ServerApi, SlotId, SystemConfig, TxnId,
};
use fgl_common::config::{LockGranularity, UpdatePolicy};
use fgl_locks::glm::{CallbackKind, GlmCore};
use fgl_locks::llm::LlmCore;
use fgl_locks::mode::LockTarget;
use fgl_locks::WaitGraph;
use fgl_net::api::{LockResponse, RecoverPagePlan, RecoveryHandshake, Reply, Request};
use fgl_net::transport::frame;
use fgl_net::{ClientPeer, PartitionedServer};
use fgl_obs::{Event, Histogram, Metrics, SpanKind};
use fgl_sched::TimerWheel;
use fgl_storage::bufferpool::BufferPool;
use fgl_storage::merge::merge_pages;
use fgl_storage::page::Page;
use fgl_wal::manager::LogManager;
use fgl_wal::records::{LogPayload, UpdateRecord};
use fgl_wal::store::MemLogStore;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

pub struct Probes {
    batch: Duration,
    pub results: Vec<(&'static str, f64)>,
}

impl Probes {
    /// Time `f`, which performs `ops` operations per call.
    fn run(&mut self, name: &'static str, ops: u64, mut f: impl FnMut()) {
        let batch = |f: &mut dyn FnMut()| -> f64 {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                f();
                calls += 1;
                let el = start.elapsed();
                if el >= self.batch {
                    return el.as_nanos() as f64 / (calls * ops) as f64;
                }
            }
        };
        batch(&mut f);
        let mut ns: Vec<f64> = (0..BATCHES).map(|_| batch(&mut f)).collect();
        ns.sort_by(f64::total_cmp);
        self.results.push((name, ns[BATCHES / 2]));
    }
}

fn filled_page(id: u64, fill: u8) -> (Page, Vec<SlotId>) {
    let mut p = Page::format(4096, PageId(id), Psn::ZERO);
    let slots = (0..16)
        .map(|_| {
            p.insert_object(&[fill; 64])
                .expect("16 x 64 B fit a 4 KiB page")
        })
        .collect();
    (p, slots)
}

fn update_record() -> LogPayload {
    LogPayload::Update(UpdateRecord {
        txn: TxnId::compose(ClientId(1), 1),
        prev_lsn: Lsn::NIL,
        object: ObjectId::new(PageId(1), SlotId(0)),
        psn_before: Psn(3),
        before: Some(vec![0u8; 64]),
        after: Some(vec![1u8; 64]),
        structural: false,
    })
}

fn storage(p: &mut Probes) {
    let (mut page, slots) = filled_page(1, 1);
    let mut i = 0usize;
    p.run("storage.page_read_ns", 64, || {
        for _ in 0..64 {
            i += 1;
            black_box(page.read_object(slots[i % 16]).expect("live slot"));
        }
    });
    p.run("storage.page_overwrite_ns", 64, || {
        for _ in 0..64 {
            i += 1;
            page.write_object(slots[i % 16], &[i as u8; 64])
                .expect("same-size overwrite");
        }
    });
    p.run("storage.page_insert_ns", 16, || {
        black_box(filled_page(1, 7));
    });
    p.run("storage.page_codec_ns", 1, || {
        black_box(Page::from_bytes(page.as_bytes().to_vec()).expect("valid page"));
    });

    let (base, slots) = filled_page(9, 0);
    let (mut a, mut b) = (base.clone(), base);
    for (i, s) in slots.iter().enumerate() {
        let side = if i % 2 == 0 { &mut a } else { &mut b };
        side.write_object(*s, &[1 + (i % 2) as u8; 64])
            .expect("same-size overwrite");
    }
    p.run("storage.merge_16x64_ns", 1, || {
        black_box(merge_pages(&a, &b).expect("disjoint updates merge"));
    });

    let mut pool = BufferPool::new(64);
    pool.warm();
    for id in 0..64 {
        pool.insert(filled_page(id, 2).0, false);
    }
    let mut id = 0u64;
    p.run("storage.bufferpool_hit_ns", 64, || {
        for _ in 0..64 {
            id += 1;
            black_box(pool.get(PageId(id % 64)));
        }
    });
    // 128 page ids through a 64-frame pool: every insert misses and
    // evicts the least recently used frame, whose page is reused when its
    // id comes round again.
    let mut spare: VecDeque<Page> = (64..128).map(|id| filled_page(id, 2).0).collect();
    p.run("storage.bufferpool_miss_evict_ns", 16, || {
        for _ in 0..16 {
            let page = spare.pop_front().expect("64 spare pages");
            let out = pool.insert(page, false).expect("full pool evicts");
            spare.push_back(out.page);
        }
    });
}

fn wal(p: &mut Probes) {
    let record = update_record();
    let mut log = LogManager::new(Box::new(MemLogStore::new()), 1 << 30);
    let mut appended = 0u64;
    p.run("wal.append_ns", 64, || {
        // A fresh log every 64 Ki records keeps the store's buffer small.
        if appended >= 1 << 16 {
            log = LogManager::new(Box::new(MemLogStore::new()), 1 << 30);
            appended = 0;
        }
        for _ in 0..64 {
            black_box(log.append(&record).expect("1 GiB log has room"));
        }
        appended += 64;
    });
    p.run("wal.force_ns", 64, || {
        for _ in 0..64 {
            black_box(log.force().expect("memory store syncs"));
        }
    });
    p.run("wal.codec_ns", 1, || {
        let bytes = record.encode();
        black_box(LogPayload::decode(&bytes).expect("round trip"));
    });
    let (_, before, _) = log.stats();
    log.append(&record).expect("room");
    let (_, after, _) = log.stats();
    p.results
        .push(("wal.bytes_per_64B_update", (after - before) as f64));
}

fn locks(p: &mut Probes) {
    let txn = TxnId::compose(ClientId(1), 1);
    let object = |i: u16| ObjectId::new(PageId((i / 16) as u64), SlotId(i % 16));
    p.run("locks.glm_object_lock_ns", 64, || {
        let mut glm = GlmCore::new();
        for i in 0..64 {
            glm.lock(ClientId(1), txn, LockTarget::Object(object(i), ObjMode::X));
        }
        black_box(&glm);
    });
    p.run("locks.glm_shared_grant_ns", 3, || {
        let mut glm = GlmCore::new();
        for c in 1..=3 {
            let t = TxnId::compose(ClientId(c), 1);
            glm.lock(ClientId(c), t, LockTarget::Object(object(0), ObjMode::S));
        }
        black_box(&glm);
    });

    let mut llm = LlmCore::new(LockGranularity::Object, UpdatePolicy::MergeCopies);
    for i in 0..64 {
        llm.global_granted(
            txn,
            object(i),
            ObjMode::X,
            LockTarget::Object(object(i), ObjMode::X),
        );
    }
    let mut i = 0u16;
    p.run("locks.llm_cached_hit_ns", 64, || {
        for _ in 0..64 {
            i = (i + 1) % 64;
            black_box(llm.acquire(txn, object(i), ObjMode::X, false));
        }
    });

    let graph = WaitGraph::new();
    let other = TxnId::compose(ClientId(2), 1);
    p.run("locks.waitgraph_edge_ns", 1, || {
        graph.add_deferrals(txn, &[other]);
        black_box(graph.find_victim(txn));
        graph.remove_waiter_row(txn);
    });
}

fn net(p: &mut Probes) {
    let lock = Request::Lock {
        txn: TxnId::compose(ClientId(1), 1),
        target: LockTarget::Object(ObjectId::new(PageId(7), SlotId(3)), ObjMode::X),
        cached_psn: Some(Psn(11)),
    };
    p.run("net.frame_encode_ns", 1, || {
        black_box(frame::encode_request(42, &lock).expect("encodes"));
    });
    let wire = frame::frame_bytes(&frame::encode_request(42, &lock).expect("encodes"));
    p.run("net.frame_decode_ns", 1, || {
        let (h, body) = frame::read_frame(&mut &wire[..]).expect("whole frame");
        black_box(frame::decode_request(&h, &body).expect("decodes"));
    });

    let page: Arc<[u8]> = filled_page(7, 5).0.into_bytes().into();
    let ship = Request::ShipPage {
        bytes: page.clone(),
        replaced: true,
    };
    p.run("net.frame_page_encode_ns", 1, || {
        black_box(frame::encode_request(43, &ship).expect("encodes"));
    });
    let reply = Reply::Page {
        bytes: page.to_vec(),
        psn: Some(Psn(11)),
    };
    let wire = frame::frame_bytes(&frame::encode_reply(43, &reply).expect("encodes"));
    p.run("net.frame_page_decode_ns", 1, || {
        let (h, body) = frame::read_frame(&mut &wire[..]).expect("whole frame");
        black_box(frame::decode_reply(&h, &body).expect("decodes"));
    });

    let null = || Arc::new(NullServer(SystemConfig::default())) as Arc<dyn ServerApi>;
    let router = PartitionedServer::new(vec![null(), null()]);
    let mut id = 0u64;
    p.run("net.router_route_ns", 64, || {
        for _ in 0..64 {
            id += 1;
            black_box(router.force_page(ClientId(1), PageId(id))).expect("null server");
        }
    });
}

fn sched(p: &mut Probes) {
    p.run("sched.spawn_ns", 256, || {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..256)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        fgl_sched::run_scoped(1, jobs);
    });
    // Two tasks on one worker handing the processor to each other.
    p.run("sched.switch_ns", 512, || {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..2)
            .map(|_| {
                Box::new(|| {
                    for _ in 0..256 {
                        fgl_sched::yield_now();
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        fgl_sched::run_scoped(1, jobs);
    });
    let tick = Duration::from_micros(20);
    let mut wheel: TimerWheel<u32> = TimerWheel::new(tick);
    p.run("sched.timer_insert_fire_ns", 128, || {
        let now = Instant::now();
        for i in 0..128u32 {
            wheel.insert(now + tick * (1 + i % 64), i);
        }
        black_box(wheel.advance(now + tick * 128));
    });
}

fn obs(p: &mut Probes) {
    let event = Event::DeadlockVictim { txn: TxnId(7) };
    p.run("obs.ring_push_ns", 64, || {
        for _ in 0..64 {
            fgl_obs::emit(event);
        }
    });
    let hist = Histogram::new();
    let mut v = 1u64;
    p.run("obs.hist_record_ns", 64, || {
        for _ in 0..64 {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 44);
        }
    });
    // The price every instrumented call site pays while tracing is off.
    p.run("obs.event_off_ns", 64, || {
        for _ in 0..64 {
            black_box(fgl_obs::trace::span(SpanKind::Commit, TxnId(7)));
        }
    });
}

/// Run every probe; `batch` is the length of one timed batch.
pub fn run_all(batch: Duration) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        batch,
        results: Vec::new(),
    };
    storage(&mut p);
    wal(&mut p);
    locks(&mut p);
    net(&mut p);
    sched(&mut p);
    obs(&mut p);
    p.results
}

/// A server that answers at once: what is left when `PartitionedServer`
/// routes to it is the routing.
struct NullServer(SystemConfig);

impl ServerApi for NullServer {
    fn register_client(&self, _: Arc<dyn ClientPeer>) {}
    fn lock(
        &self,
        _: ClientId,
        _: TxnId,
        target: LockTarget,
        _: Option<Psn>,
    ) -> Result<LockResponse> {
        Ok(LockResponse::Granted {
            target,
            first_exclusive_on_page: false,
            evidence: None,
        })
    }
    fn cancel_wait(&self, _: ClientId, _: TxnId) {}
    fn callback_complete(
        &self,
        _: ClientId,
        _: CallbackKind,
        _: Vec<(ObjectId, ObjMode)>,
        _: Option<Arc<[u8]>>,
    ) -> Result<()> {
        Ok(())
    }
    fn fetch_page(&self, _: ClientId, _: PageId) -> Result<(Vec<u8>, Option<Psn>)> {
        Ok((Vec::new(), None))
    }
    fn allocate_page(&self, _: ClientId, _: TxnId) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn ship_page(&self, _: ClientId, _: Arc<[u8]>, _: bool) -> Result<()> {
        Ok(())
    }
    fn force_page(&self, _: ClientId, _: PageId) -> Result<()> {
        Ok(())
    }
    fn commit_ship_log(&self, _: ClientId, _: Vec<u8>, _: Vec<PageId>) -> Result<()> {
        Ok(())
    }
    fn fetch_client_log(&self, _: ClientId) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn server_logging(&self) -> bool {
        false
    }
    fn client_crashed(&self, _: ClientId) {}
    fn client_recovery_begin(
        &self,
        _: ClientId,
        _: Arc<dyn ClientPeer>,
    ) -> Result<RecoveryHandshake> {
        Ok((Vec::new(), Vec::new(), true))
    }
    fn client_recovery_end(&self, _: ClientId) -> Result<()> {
        Ok(())
    }
    fn recovery_fetch(
        &self,
        _: ClientId,
        _: PageId,
        _: Option<(ClientId, Psn)>,
    ) -> Result<(Vec<u8>, Option<Psn>)> {
        Ok((Vec::new(), None))
    }
    fn recover_client_page(&self, _: ClientId, _: PageId) -> Result<RecoverPagePlan> {
        Ok((Vec::new(), Psn::ZERO, Vec::new()))
    }
    fn poll_recovery_needs(&self, _: ClientId) -> Vec<(PageId, Psn)> {
        Vec::new()
    }
    fn install_recovered(&self, _: ClientId, _: Vec<u8>) -> Result<()> {
        Ok(())
    }
    fn config(&self) -> &SystemConfig {
        &self.0
    }
    fn config_shared(&self) -> Arc<SystemConfig> {
        Arc::new(self.0.clone())
    }
    fn metrics(&self) -> Arc<Metrics> {
        Arc::new(Metrics::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_number_once() {
        let r = run_all(Duration::from_micros(200));
        let mut names: Vec<&str> = r.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), crate::report::PROBE_NAMES.len());
        assert!(r.iter().all(|(_, v)| *v > 0.0), "{r:?}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.len());
    }
}
