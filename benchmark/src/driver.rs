//! The round loop: fresh system, set-up, warm-up, fixed-work burst,
//! read-back against the oracle; and between bursts the crash drills.
//! Everything a run measures is gathered here, per round, and handed to
//! `report` to be reduced to the metrics `BENCHMARK.json` names.

use crate::hist::Hist;
use crate::opgen::{object_bytes, LoadSpec, OpGen, Txn, OPS_PER_TXN};
use crate::rig::{Database, Rig};
use crate::sys;
use crate::trace::{Kind, SpanGuard, Tracer};
use crate::workloads::Workload;
use crate::yardstick::{self, Reading};
use fgl::{ClientCore, FglError, SystemConfig, TxnId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A deadlock or timeout abort is retried this often, then given up.
const MAX_RETRIES: u32 = 10;
/// One yardstick reading per this much burst time, all clients together
/// (1.25 ms of reference work: 6 % duty, taken out of the burst's elapsed
/// and CPU time again).
const YARD_EVERY_NS: u64 = 20_000_000;
/// Readings taken immediately before and after a timed set-up or drill.
const YARD_AROUND: usize = 5;

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1.0 for a real run; `--check` shrinks every count by this.
    pub scale: f64,
    /// Write one wrong byte behind the oracle's back (self-test of the
    /// correctness check).
    pub plant: bool,
}

/// Span hooks of the driver: nothing in a plain round, the tracer in a
/// decorated one. Generic so a plain round compiles to no hook at all.
pub trait Spans: Sync {
    type Guard<'a>
    where
        Self: 'a;
    fn span(&self, kind: Kind) -> Self::Guard<'_>;
    /// Open the transaction's root span; returns its guard and id.
    fn txn(&self, client: usize) -> (Self::Guard<'_>, u64);
    fn end_txn(&self, client: usize, root: u64);
}

pub struct NoSpans;

impl Spans for NoSpans {
    type Guard<'a> = ();
    fn span(&self, _: Kind) {}
    fn txn(&self, _: usize) -> ((), u64) {
        ((), 0)
    }
    fn end_txn(&self, _: usize, _: u64) {}
}

impl Spans for Tracer {
    type Guard<'a> = Option<SpanGuard<'a>>;
    fn span(&self, kind: Kind) -> Option<SpanGuard<'_>> {
        Tracer::span(self, kind)
    }
    fn txn(&self, client: usize) -> (Option<SpanGuard<'_>>, u64) {
        let g = Tracer::txn(self, client);
        let id = g.id();
        (Some(g), id)
    }
    fn end_txn(&self, client: usize, root: u64) {
        Tracer::end_txn(self, client, root);
    }
}

/// What one client did in one phase (warm-up, burst or drill load).
#[derive(Default)]
pub struct ClientTally {
    pub attempted: u64,
    pub commits: u64,
    pub aborts: u64,
    pub failed: u64,
    pub reads: u64,
    pub writes: u64,
    pub hist: Hist,
    pub yard: Vec<Reading>,
    pub errors: BTreeMap<&'static str, u64>,
}

impl ClientTally {
    fn absorb(&mut self, o: ClientTally) {
        self.attempted += o.attempted;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.failed += o.failed;
        self.reads += o.reads;
        self.writes += o.writes;
        self.hist.merge(&o.hist);
        self.yard.extend(o.yard);
        for (k, v) in o.errors {
            *self.errors.entry(k).or_default() += v;
        }
    }

    fn error(&mut self, kind: &'static str) {
        self.failed += 1;
        *self.errors.entry(kind).or_default() += 1;
    }
}

pub fn error_kind(e: &FglError) -> &'static str {
    match e {
        FglError::Io(_) => "io",
        FglError::PageNotFound(_) => "page_not_found",
        FglError::ObjectNotFound(_) => "object_not_found",
        FglError::PageFull { .. } => "page_full",
        FglError::DeadlockVictim(_) => "deadlock_victim",
        FglError::LockTimeout(_) => "lock_timeout",
        FglError::TxnAborted(_) => "txn_aborted",
        FglError::InvalidTxnState { .. } => "invalid_txn_state",
        FglError::UnknownSavepoint(_) => "unknown_savepoint",
        FglError::LogFull => "log_full",
        FglError::Corrupt(_) => "corrupt",
        FglError::Disconnected(_) => "disconnected",
        FglError::Protocol(_) => "protocol",
        FglError::Config(_) => "config",
    }
}

/// Product counters read from outside, before and after a burst.
#[derive(Clone, Copy)]
#[repr(usize)]
pub enum C {
    Msgs,
    NetBytes,
    WireBytes,
    LogBytes,
    LogForces,
    LocalGrants,
    GlobalLockRequests,
    CommitsForced,
    CommitsPiggybacked,
    Merges,
    ServerFetches,
    SchedSwitches,
    SchedTimerFires,
    SchedRunnableWaitUs,
}

const COUNTERS: usize = C::SchedRunnableWaitUs as usize + 1;

#[derive(Clone, Copy, Default)]
pub struct Counters([u64; COUNTERS]);

impl Counters {
    pub fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    fn read(rig: &Rig) -> Counters {
        let mut c = Counters::default();
        let mut set = |k: C, v: u64| c.0[k as usize] += v;
        let net = rig.net.snapshot();
        set(C::Msgs, net.total_messages());
        set(C::NetBytes, net.total_bytes());
        set(C::WireBytes, rig.wire_bytes());
        set(C::LogBytes, rig.server_log_bytes());
        for cl in &rig.clients {
            let s = cl.stats();
            set(C::LogBytes, s.log_bytes);
            set(C::LogForces, s.log_forces);
            set(C::LocalGrants, s.local_grants);
            set(C::GlobalLockRequests, s.global_lock_requests);
            set(C::CommitsForced, s.commits_forced);
            set(C::CommitsPiggybacked, s.commits_piggybacked);
        }
        let s = rig.server.stats();
        set(C::Merges, s.merges);
        set(C::ServerFetches, s.page_fetches);
        let sched = fgl_sched::sched_stats();
        set(C::SchedSwitches, sched.context_switches);
        set(C::SchedTimerFires, sched.timer_fires);
        set(C::SchedRunnableWaitUs, sched.runnable_wait_us_total);
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - before.0[i]))
    }

    pub fn add(&mut self, o: &Counters) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }
}

pub struct BurstRound {
    pub decorated: bool,
    /// Build + populate + harden + warm-up, wall seconds.
    pub setup_s: f64,
    /// Host-speed factor around the set-up, and over the burst.
    pub setup_f: f64,
    pub f: f64,
    pub yard: Vec<Reading>,
    pub tally: ClientTally,
    /// Burst wall and process-CPU time, yardstick time taken out.
    pub elapsed_ns: u64,
    pub cpu_ns: u64,
    pub counters: Counters,
}

pub struct DrillRound {
    pub server_restart_ms: f64,
    pub server_f: f64,
    pub restart_units: u64,
    pub client_recovery_ms: f64,
    pub client_f: f64,
}

#[derive(Default)]
pub struct RunData {
    pub bursts: Vec<BurstRound>,
    pub drills: Vec<DrillRound>,
    /// Everything outside the bursts' own tallies: warm-up and drill
    /// transactions, and whatever went wrong in set-up or verification.
    pub other: ClientTally,
    pub mismatches: u64,
    /// `VmHWM` after the first burst and the first drill pair.
    pub peak_rss_mib: f64,
    pub pinned_cpu: Option<usize>,
    pub tracer: Option<Arc<Tracer>>,
    pub round_loop_s: f64,
}

/// Run `f(i)` for every client `i` at once: on OS threads, or as green
/// tasks on the workload's worker pool. `None` where a client panicked.
fn run_clients<R: Send>(w: &Workload, n: usize, f: &(dyn Fn(usize) -> R + Sync)) -> Vec<Option<R>> {
    if w.green_workers == 0 {
        return std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|i| s.spawn(move || f(i))).collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            Box::new(move || {
                let r = f(i);
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    // A panicking task is re-raised once the pool has drained; its slot
    // stays empty.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        fgl_sched::run_scoped(w.green_workers, jobs)
    }));
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// One transaction: 8 operations, commit, stamps set in the commit's
/// pre-release window. On failure returns the transaction to abort (none
/// when `begin` itself failed) and the error.
fn run_txn<S: Spans>(
    client: &ClientCore,
    db: &Database,
    ops: &Txn,
    stamp_base: u64,
    spans: &S,
) -> Result<(), (Option<TxnId>, FglError)> {
    let t = {
        let _g = spans.span(Kind::Begin);
        client.begin().map_err(|e| (None, e))?
    };
    let mut writes = [(0u32, 0u64); OPS_PER_TXN];
    let mut n = 0;
    for (i, op) in ops.iter().enumerate() {
        let oid = db.id(op.object);
        if op.write {
            let stamp = stamp_base | i as u64;
            let bytes = object_bytes(op.object, stamp);
            let _g = spans.span(Kind::Write);
            client.write(t, oid, &bytes).map_err(|e| (Some(t), e))?;
            writes[n] = (op.object, stamp);
            n += 1;
        } else {
            let _g = spans.span(Kind::Read);
            black_box(client.read(t, oid).map_err(|e| (Some(t), e))?);
        }
    }
    let _g = spans.span(Kind::Commit);
    client
        .commit_with(t, || {
            for &(object, stamp) in &writes[..n] {
                db.stamp(object, stamp);
            }
        })
        .map_err(|e| (Some(t), e))
}

#[derive(Clone, Copy)]
struct Phase<'a> {
    db: &'a Database,
    seed: u64,
    /// Distinguishes the streams (and stamps) of the phases of one round.
    stream: u32,
    txns: u32,
    /// This client takes a yardstick reading every so often (0: never).
    yard_every_ns: u64,
}

/// Closed loop of one client: next transaction when the previous one has
/// returned, no think time.
fn drive_client<S: Spans>(no: usize, client: &ClientCore, p: &Phase<'_>, spans: &S) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut gen = OpGen::new(p.db.load, p.seed, p.stream, no as u32);
    let mut last_yard = sys::now_ns().wrapping_sub(no as u64 * YARD_EVERY_NS);
    for seq in 0..p.txns as u64 {
        let ops = gen.next_txn();
        // Unique within one database: client, phase, sequence, operation.
        let stamp_base = (no as u64 + 1) << 56 | (p.stream as u64 & 0xFF) << 48 | (seq + 1) << 4;
        tally.attempted += 1;
        let start = sys::now_ns();
        let (root_guard, root) = spans.txn(no);
        let mut retries = 0;
        let done = loop {
            match run_txn(client, p.db, &ops, stamp_base, spans) {
                Ok(()) => break true,
                Err((_, e)) if e.is_transaction_abort() => {
                    // The client runtime has already rolled it back.
                    tally.aborts += 1;
                    retries += 1;
                    if retries > MAX_RETRIES {
                        tally.error("gave_up_after_retries");
                        break false;
                    }
                }
                Err((txn, e)) => {
                    if let Some(t) = txn {
                        let _ = client.abort(t);
                    }
                    tally.error(error_kind(&e));
                    break false;
                }
            }
        };
        drop(root_guard);
        let end = sys::now_ns();
        spans.end_txn(no, root);
        if done {
            tally.commits += 1;
            tally.hist.record(end - start);
            let w = ops.iter().filter(|o| o.write).count() as u64;
            tally.writes += w;
            tally.reads += OPS_PER_TXN as u64 - w;
        }
        if p.yard_every_ns != 0 && end.wrapping_sub(last_yard) >= p.yard_every_ns {
            tally.yard.push(yardstick::read());
            last_yard = sys::now_ns();
        }
    }
    tally
}

fn yard_around() -> Vec<Reading> {
    (0..YARD_AROUND).map(|_| yardstick::read()).collect()
}

fn factor_of(readings: &[Reading]) -> f64 {
    let ns: Vec<u64> = readings.iter().map(|r| r.ns).collect();
    yardstick::factor(&ns)
}

struct Runner<'a> {
    w: &'a Workload,
    opts: &'a RunOptions,
    data: RunData,
}

impl Runner<'_> {
    fn scaled(&self, n: u32) -> u32 {
        ((n as f64 * self.opts.scale).ceil() as u32).max(1)
    }

    /// Run one phase on every client; fold panics and tallies.
    fn phase<S: Spans>(&mut self, rig: &Rig, p: &Phase<'_>, yard: bool, spans: &S) -> ClientTally {
        let n = rig.clients.len();
        let yard_clients = if self.w.green_workers == 0 {
            n
        } else {
            self.w.green_workers.min(n)
        };
        let results = run_clients(self.w, n, &|i| {
            let mine = Phase {
                yard_every_ns: if yard && i < yard_clients {
                    YARD_EVERY_NS * yard_clients as u64
                } else {
                    0
                },
                ..*p
            };
            drive_client(i, &rig.clients[i], &mine, spans)
        });
        let mut total = ClientTally::default();
        for r in results {
            match r {
                Some(t) => total.absorb(t),
                None => total.error("panic"),
            }
        }
        total
    }

    /// Every client loads and hardens its own region. False when one of
    /// them could not: the round is then given up (and counted as failed).
    fn populate(&mut self, rig: &Rig, db: &Database) -> bool {
        let results = run_clients(self.w, rig.clients.len(), &|i| {
            db.populate(i, &rig.clients[i])
        });
        let mut loaded = true;
        for r in results {
            match r {
                Some(Ok(())) => continue,
                Some(Err(e)) => self.data.other.error(error_kind(&e)),
                None => self.data.other.error("panic"),
            }
            loaded = false;
        }
        loaded
    }

    /// Every client reads its region back and compares with the oracle.
    fn verify(&mut self, rig: &Rig, db: &Database) {
        let results = run_clients(self.w, rig.clients.len(), &|i| {
            let mut tries = 0;
            loop {
                match db.verify(i, &rig.clients[i]) {
                    Err(e) if e.is_transaction_abort() && tries < MAX_RETRIES => tries += 1,
                    other => return other,
                }
            }
        });
        for r in results {
            match r {
                Some(Ok(wrong)) => self.data.mismatches += wrong,
                // What could not be read back was not shown correct.
                Some(Err(e)) => {
                    self.data.mismatches += 1;
                    self.data.other.error(error_kind(&e));
                }
                None => {
                    self.data.mismatches += 1;
                    self.data.other.error("panic");
                }
            }
        }
    }

    fn build(&mut self, cfg: &SystemConfig, tracer: Option<&Arc<Tracer>>) -> Option<Rig> {
        match Rig::build(cfg, self.w.load.clients as usize, tracer) {
            Ok(rig) => Some(rig),
            Err(e) => {
                self.data.other.error(error_kind(&e));
                None
            }
        }
    }

    fn burst(&mut self, round: u32, tracer: Option<&Arc<Tracer>>) {
        let w = self.w;
        let db = Database::new(w.load);
        let before = yard_around();
        let t0 = Instant::now();
        let Some(rig) = self.build(&w.cfg, tracer) else {
            return;
        };
        if !self.populate(&rig, &db) {
            return;
        }
        let warm = Phase {
            db: &db,
            seed: self.opts.seed,
            stream: round * 4,
            txns: self.scaled(w.warmup_txns),
            yard_every_ns: 0,
        };
        let warmed = self.phase(&rig, &warm, false, &NoSpans);
        self.data.other.absorb(warmed);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut around = before;
        around.extend(yard_around());
        let setup_f = factor_of(&around);

        let burst = Phase {
            stream: round * 4 + 1,
            txns: self.scaled(w.burst_txns),
            ..warm
        };
        let c0 = Counters::read(&rig);
        let cpu0 = sys::process_cpu_ns();
        let t1 = Instant::now();
        let mut tally = match tracer {
            Some(t) => {
                t.set_on(true);
                let tally = self.phase(&rig, &burst, true, t.as_ref());
                t.set_on(false);
                tally
            }
            None => self.phase(&rig, &burst, true, &NoSpans),
        };
        let wall_ns = t1.elapsed().as_nanos() as u64;
        let cpu_ns = sys::process_cpu_ns() - cpu0;
        let counters = Counters::read(&rig).since(&c0);
        let mut yard = std::mem::take(&mut tally.yard);
        let yard_ns: u64 = yard.iter().map(|r| r.ns).sum();
        if yard.len() < 3 {
            // Too short a burst (`--check`) to hold readings of its own:
            // use the ones after the set-up and some taken now.
            yard.extend(around.iter().skip(YARD_AROUND).copied());
            yard.extend(yard_around());
        }
        // On one CPU the readings' CPU time is wall time the clients did
        // not have; on a latency-paced workload the wall is reported as
        // it was.
        let elapsed_ns = if w.cpu_paced() {
            wall_ns.saturating_sub(yard_ns)
        } else {
            wall_ns
        };

        if self.opts.plant && round == 0 {
            self.plant_wrong_byte(&rig, &db);
        }
        self.verify(&rig, &db);
        self.data.bursts.push(BurstRound {
            decorated: tracer.is_some(),
            setup_s,
            setup_f,
            f: factor_of(&yard),
            yard,
            tally,
            elapsed_ns,
            cpu_ns: cpu_ns.saturating_sub(yard_ns),
            counters,
        });
    }

    /// Overwrite one object without telling the oracle.
    fn plant_wrong_byte(&mut self, rig: &Rig, db: &Database) {
        let results = run_clients(self.w, 1, &|_| {
            let c = &rig.clients[0];
            let t = c.begin()?;
            let mut bytes = object_bytes(0, 0);
            bytes[0] ^= 1;
            c.write(t, db.id(0), &bytes)?;
            c.commit(t)
        });
        if !matches!(results[0], Some(Ok(()))) {
            self.data.other.error("plant_failed");
        }
    }

    /// A fresh small system of the workload's own shape, loaded and run
    /// for `txns` per client; what the crash drills crash.
    fn drill_system(
        &mut self,
        cfg: &SystemConfig,
        pages: u32,
        round: u32,
        txns: u32,
    ) -> Option<(Rig, Database)> {
        let db = Database::new(LoadSpec {
            pages,
            ..self.w.load
        });
        let rig = self.build(cfg, None)?;
        if !self.populate(&rig, &db) {
            return None;
        }
        let load = Phase {
            db: &db,
            seed: self.opts.seed,
            stream: round,
            txns: self.scaled(txns),
            yard_every_ns: 0,
        };
        let t = self.phase(&rig, &load, false, &NoSpans);
        self.data.other.absorb(t);
        Some((rig, db))
    }

    /// Time `f` on a driver thread or task, yardstick readings around it.
    /// Returns (milliseconds, host-speed factor, f's result).
    fn timed<R: Send>(&mut self, f: &(dyn Fn() -> fgl::Result<R> + Sync)) -> Option<(f64, f64, R)> {
        let mut out = run_clients(self.w, 1, &|_| {
            let mut yard = yard_around();
            let t = Instant::now();
            let r = f();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            yard.extend(yard_around());
            (ms, factor_of(&yard), r)
        });
        match out.pop().flatten() {
            Some((ms, f, Ok(r))) => Some((ms, f, r)),
            Some((_, _, Err(e))) => {
                self.data.other.error(error_kind(&e));
                None
            }
            None => {
                self.data.other.error("panic");
                None
            }
        }
    }

    fn drill_pair(&mut self, pair: u32) {
        let w = self.w;
        let base = 1_000 + pair * 2;
        let Some((rig, db)) =
            self.drill_system(&w.cfg, w.server_drill_pages, base, w.server_drill_txns)
        else {
            return;
        };
        let server = self.timed(&|| {
            rig.server.crash();
            rig.server.restart_recovery()
        });
        self.verify(&rig, &db);
        drop(rig);

        let cfg = w.client_drill_cfg();
        let Some((rig, db)) =
            self.drill_system(&cfg, w.client_drill_pages, base + 1, w.client_drill_txns)
        else {
            return;
        };
        let client = self.timed(&|| {
            rig.clients[0].crash();
            rig.clients[0].recover()
        });
        self.verify(&rig, &db);

        if let (Some((s_ms, s_f, report)), Some((c_ms, c_f, _))) = (server, client) {
            self.data.drills.push(DrillRound {
                server_restart_ms: s_ms,
                server_f: s_f,
                restart_units: report.recovery_units as u64,
                client_recovery_ms: c_ms,
                client_f: c_f,
            });
        }
    }
}

/// The whole round loop of one run.
pub fn run(w: &Workload, opts: &RunOptions, started: Instant) -> RunData {
    let mut r = Runner {
        w,
        opts,
        data: RunData::default(),
    };
    let clients = w.load.clients as usize;
    let tracer = opts.trace.then(|| Arc::new(Tracer::new(clients)));
    r.data.tracer = tracer.clone();

    // The plan at the nominal budget, stretched or shrunk with --seconds;
    // never fewer than three bursts and one drill pair.
    let share = opts.seconds / 26.0;
    let bursts = ((w.bursts as f64 * share).round() as u32).max(3);
    let drills = ((w.drills as f64 * share).round() as u32).max(1);
    let stride = (bursts / drills).max(1);
    let budget = opts.seconds;
    let loop_start = Instant::now();
    let mut drills_done = 0;
    let mut slowest_slot = 0.0f64;
    for b in 0..bursts {
        // Fixed work means a slow host needs longer: stop early, with the
        // minimum kept, when the next slot would overrun the budget.
        let used = started.elapsed().as_secs_f64();
        if b >= 3 && used + slowest_slot > budget {
            break;
        }
        let slot = Instant::now();
        // Plain and decorated rounds alternate in a traced run, so an
        // early stop leaves both kinds.
        let decorated = tracer.as_ref().filter(|_| b % 2 == 1);
        if decorated.is_some() {
            // From here on the scheduler stamps queue waits (its hook is
            // process-wide and cannot be taken out again).
            fgl_sched::set_trace_hook(|_, _| {});
        }
        r.burst(b, decorated);
        slowest_slot = slowest_slot.max(slot.elapsed().as_secs_f64());
        if b % stride == 0 && drills_done < drills {
            let used = started.elapsed().as_secs_f64();
            if drills_done >= 1 && used + slowest_slot > budget {
                continue;
            }
            let slot = Instant::now();
            r.drill_pair(drills_done);
            slowest_slot = slowest_slot.max(slot.elapsed().as_secs_f64());
            drills_done += 1;
            if drills_done == 1 {
                r.data.peak_rss_mib = sys::peak_rss_mib();
            }
        }
    }
    r.data.round_loop_s = loop_start.elapsed().as_secs_f64();
    r.data
}
