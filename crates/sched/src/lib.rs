//! fgl-sched: a dependency-free M:N green-task scheduler.
//!
//! The simulator historically modeled every client as an OS thread, and
//! every simulated disk or network latency as a `thread::sleep` — capping
//! realistic scale at a few dozen clients. This crate multiplexes client
//! transactions, as **stackful green tasks**, onto a fixed worker pool: a
//! waiting client costs a parked task (a queue entry plus a timer-wheel
//! slot), not an OS thread.
//!
//! Design:
//! - [`run_scoped`] runs a batch of jobs as green tasks on `workers` OS
//!   threads and returns when all of them (and any subtasks they spawned
//!   via [`fanout`]) have finished. Jobs may borrow from the caller —
//!   the call joins everything before returning.
//! - Each task owns a heap-allocated stack; the `ctx` module switches between the
//!   worker's stack and the task's with one small assembly routine.
//! - [`pause`] is the drop-in replacement for `thread::sleep` at the
//!   simulated-latency points: on a green task it parks in the shared
//!   [`TimerWheel`]; on a plain OS thread it sleeps, so code that is not
//!   running under the scheduler behaves exactly as before.
//! - [`current_unparker`]/[`park_until`] are the primitive the local
//!   `parking_lot` shim uses to make condition-variable waits park the
//!   *task*: blocking primitives auto-detect task context, so the same
//!   protocol code runs unchanged under both the `threads` and `event`
//!   schedulers.
//!
//! Determinism: the scheduler never reorders the *semantics* of the
//! protocol — message counting happens inside the counted fabric before
//! any wait — so per-kind message counts for conflict-free workloads are
//! identical under both schedulers (asserted by the workspace
//! `scheduler_determinism` test).
//!
//! On architectures without a context-switch implementation (anything
//! but x86-64 today), [`supported`] is `false` and [`run_scoped`] /
//! [`fanout`] degrade to one OS thread per job — the `threads` behavior.

mod ctx;
mod stack;
mod timer;

pub use timer::TimerWheel;

use stack::{Stack, StackPool};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---- instrumentation --------------------------------------------------------

static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static CONTEXT_SWITCHES: AtomicU64 = AtomicU64::new(0);
static MAX_RUN_QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
static WORKER_PARKS: AtomicU64 = AtomicU64::new(0);
static STACK_HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static RUNNABLE_WAIT_US: AtomicU64 = AtomicU64::new(0);
static RUNNABLE_WAITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide scheduler instrumentation counters (see [`sched_stats`]).
///
/// All fields except the two high-water marks are cumulative for the
/// process; scope them to a run with [`SchedStats::delta_since`].
/// `runnable_wait_*` are only tracked while a trace hook is installed
/// (see [`set_trace_hook`]) so the untraced hot path never reads the
/// clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Green tasks ever spawned (seeds and `fanout` subtasks).
    pub tasks_spawned: u64,
    /// Worker → task context switches (task activations).
    pub context_switches: u64,
    /// Deepest run queue observed at any push (high-water mark).
    pub max_run_queue_depth: u64,
    /// Idle condvar waits by workers with an empty run queue.
    pub worker_parks: u64,
    /// Timer-wheel entries visited but not yet due (later rotation).
    pub timer_cascades: u64,
    /// Timer-wheel entries fired.
    pub timer_fires: u64,
    /// Deepest task-stack use observed at any switch point, in bytes
    /// (high-water mark; an underestimate — only suspension points are
    /// sampled, not the deepest frame between them).
    pub stack_high_water_bytes: u64,
    /// Total µs tasks spent queued runnable before a worker picked them
    /// up (only while a trace hook is installed).
    pub runnable_wait_us_total: u64,
    /// Number of queued→running transitions timed into
    /// `runnable_wait_us_total`.
    pub runnable_wait_count: u64,
    /// Effective task stack size in bytes (gauge — the size new stacks
    /// are allocated with, after env/API overrides).
    pub stack_size_bytes: u64,
    /// Stacks allocated fresh (first activations the pool could not
    /// serve).
    pub stacks_allocated: u64,
    /// Stacks returned to the pool by finished tasks.
    pub stacks_pooled: u64,
    /// Stack acquisitions served from the pool. In steady state
    /// `stacks_reused / (stacks_reused + stacks_allocated)` approaches 1.
    pub stacks_reused: u64,
    /// Pooled stacks trimmed past the warm limit (pages released with
    /// `madvise(MADV_FREE)` on Linux).
    pub stacks_madvised: u64,
}

impl SchedStats {
    /// Counters accumulated since `base` was captured. Monotonic fields
    /// subtract; the high-water marks keep their current value (they are
    /// gauges, not counters).
    pub fn delta_since(&self, base: &SchedStats) -> SchedStats {
        SchedStats {
            tasks_spawned: self.tasks_spawned - base.tasks_spawned,
            context_switches: self.context_switches - base.context_switches,
            max_run_queue_depth: self.max_run_queue_depth,
            worker_parks: self.worker_parks - base.worker_parks,
            timer_cascades: self.timer_cascades - base.timer_cascades,
            timer_fires: self.timer_fires - base.timer_fires,
            stack_high_water_bytes: self.stack_high_water_bytes,
            runnable_wait_us_total: self.runnable_wait_us_total - base.runnable_wait_us_total,
            runnable_wait_count: self.runnable_wait_count - base.runnable_wait_count,
            stack_size_bytes: self.stack_size_bytes,
            stacks_allocated: self.stacks_allocated - base.stacks_allocated,
            stacks_pooled: self.stacks_pooled - base.stacks_pooled,
            stacks_reused: self.stacks_reused - base.stacks_reused,
            stacks_madvised: self.stacks_madvised - base.stacks_madvised,
        }
    }
}

/// Snapshot the process-wide scheduler counters.
pub fn sched_stats() -> SchedStats {
    SchedStats {
        tasks_spawned: TASKS_SPAWNED.load(Ordering::Relaxed),
        context_switches: CONTEXT_SWITCHES.load(Ordering::Relaxed),
        max_run_queue_depth: MAX_RUN_QUEUE_DEPTH.load(Ordering::Relaxed),
        worker_parks: WORKER_PARKS.load(Ordering::Relaxed),
        timer_cascades: timer::TIMER_CASCADES.load(Ordering::Relaxed),
        timer_fires: timer::TIMER_FIRES.load(Ordering::Relaxed),
        stack_high_water_bytes: STACK_HIGH_WATER.load(Ordering::Relaxed),
        runnable_wait_us_total: RUNNABLE_WAIT_US.load(Ordering::Relaxed),
        runnable_wait_count: RUNNABLE_WAITS.load(Ordering::Relaxed),
        stack_size_bytes: stack_size() as u64,
        stacks_allocated: stack_pool().stats.allocated.load(Ordering::Relaxed),
        stacks_pooled: stack_pool().stats.pooled.load(Ordering::Relaxed),
        stacks_reused: stack_pool().stats.reused.load(Ordering::Relaxed),
        stacks_madvised: stack_pool().stats.madvised.load(Ordering::Relaxed),
    }
}

/// Called with `(trace_tag, wait_us)` each time a task that carries a
/// non-zero trace tag is picked up after waiting runnable in the queue.
pub type TraceHook = fn(tag: u64, wait_us: u64);

static TRACE_HOOK: OnceLock<TraceHook> = OnceLock::new();
static TRACE_HOOK_SET: AtomicBool = AtomicBool::new(false);

/// Install the process-wide runnable-wait hook (first caller wins). Also
/// switches on queued-at stamping, so `runnable_wait_*` in
/// [`SchedStats`] start accumulating.
pub fn set_trace_hook(hook: TraceHook) {
    let _ = TRACE_HOOK.set(hook);
    TRACE_HOOK_SET.store(true, Ordering::Release);
}

fn sched_now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

thread_local! {
    /// Trace-tag fallback for code running on a plain OS thread.
    static THREAD_TRACE_TAG: Cell<u64> = const { Cell::new(0) };
}

/// The current trace tag: an opaque u64 the tracing layer attaches to
/// whatever logical context is executing. On a green task it lives on the
/// task (so it follows the task across worker threads); on a plain OS
/// thread it is thread-local. 0 means "none".
pub fn trace_tag() -> u64 {
    match current_task() {
        Some(task) => task.trace_tag.load(Ordering::Relaxed),
        None => THREAD_TRACE_TAG.with(|c| c.get()),
    }
}

/// Set the current trace tag (see [`trace_tag`]).
pub fn set_trace_tag(tag: u64) {
    match current_task() {
        Some(task) => task.trace_tag.store(tag, Ordering::Relaxed),
        None => THREAD_TRACE_TAG.with(|c| c.set(tag)),
    }
}

/// Granularity of the shared timer wheel. Fine enough that the smallest
/// simulated latencies in the experiment configs (tens of microseconds)
/// round up by at most one tick.
const TICK: Duration = Duration::from_micros(20);

/// Idle workers re-check for shutdown/timers at least this often.
const IDLE_POLL: Duration = Duration::from_millis(1);

// ---- task states ------------------------------------------------------------

const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const PARKED: u8 = 2;
/// An unpark arrived while the task was running (or mid-park); the next
/// park attempt consumes it and returns immediately.
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Why a task switched back to its worker.
#[derive(Clone, Copy)]
enum Intent {
    None,
    Yield,
    Park(Option<Instant>),
    Done,
}

// ---- stacks -----------------------------------------------------------------

/// Default task stack: 256 KiB reserved. Allocations this size are
/// served by `mmap` and only the touched pages become resident, so a
/// thousand mostly-idle tasks stay cheap. Harness workloads with a known
/// shallow `stack_high_water_bytes` can shrink it via [`set_stack_size`]
/// or `FGL_SCHED_STACK_KB`.
const DEFAULT_STACK: usize = 256 * 1024;

/// Smallest stack accepted: the protocol's deepest observed paths stay
/// well under this, but anything smaller risks silent corruption (task
/// stacks have no guard page).
pub const MIN_STACK: usize = 32 * 1024;

/// Panic unless `bytes` is a usable task-stack size: at least
/// [`MIN_STACK`] and a whole number of pages. A mis-sized stack fails
/// loudly here instead of overflowing mid-protocol.
fn validate_stack_size(bytes: usize, origin: &str) {
    if bytes == 0 {
        panic!("{origin}: task stack size must be non-zero");
    }
    if bytes < MIN_STACK {
        panic!(
            "{origin}: task stack of {bytes} bytes is below the {} KiB safety floor",
            MIN_STACK / 1024
        );
    }
    if !bytes.is_multiple_of(stack::PAGE) {
        panic!(
            "{origin}: task stack of {bytes} bytes is not a multiple of the {} B page size",
            stack::PAGE
        );
    }
}

/// `FGL_SCHED_STACK_KB` override, parsed and validated once. An invalid
/// value is a configuration error and panics with the offending value.
fn env_stack_size() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("FGL_SCHED_STACK_KB").ok()?;
        let kb: usize = raw
            .parse()
            .unwrap_or_else(|_| panic!("FGL_SCHED_STACK_KB must be an integer, got {raw:?}"));
        let bytes = kb
            .checked_mul(1024)
            .unwrap_or_else(|| panic!("FGL_SCHED_STACK_KB={kb} overflows"));
        validate_stack_size(bytes, "FGL_SCHED_STACK_KB");
        Some(bytes)
    })
}

static CONFIGURED_STACK: AtomicUsize = AtomicUsize::new(DEFAULT_STACK);

/// Set the task stack size for stacks allocated from now on (pooled
/// stacks of other sizes stay in their own size class). The
/// `FGL_SCHED_STACK_KB` environment override, when present, wins over
/// this. Panics on sizes below [`MIN_STACK`] or not page-multiples.
pub fn set_stack_size(bytes: usize) {
    validate_stack_size(bytes, "set_stack_size");
    CONFIGURED_STACK.store(bytes, Ordering::Relaxed);
}

/// The size new task stacks are allocated with.
pub fn stack_size() -> usize {
    env_stack_size().unwrap_or_else(|| CONFIGURED_STACK.load(Ordering::Relaxed))
}

/// The process-wide stack free list (see the `stack` module).
fn stack_pool() -> &'static StackPool {
    static POOL: OnceLock<StackPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let limit = std::env::var("FGL_SCHED_STACK_POOL_WARM")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(StackPool::DEFAULT_WARM_LIMIT);
        StackPool::new(limit)
    })
}

/// Pooled stacks kept fully resident per size class; stacks released
/// beyond this have their pages returned to the kernel (`MADV_FREE`)
/// while staying reusable. Also settable via `FGL_SCHED_STACK_POOL_WARM`.
pub fn set_stack_pool_warm_limit(n: usize) {
    stack_pool().set_warm_limit(n);
}

// ---- the shared scheduler ---------------------------------------------------

struct TimerTarget {
    task: Arc<TaskCore>,
    seq: u64,
}

struct Shared {
    queue: Mutex<VecDeque<Arc<TaskCore>>>,
    queue_cv: Condvar,
    timers: Mutex<TimerWheel<TimerTarget>>,
    seeds_left: AtomicUsize,
    shutdown: AtomicBool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct TaskCore {
    state: AtomicU8,
    /// Bumped once per park; timer entries carry the seq they were armed
    /// for, so a stale timer firing after an early wakeup is ignored.
    park_seq: AtomicU64,
    /// Saved stack pointer while the task is suspended; null until the
    /// first activation lazily acquires a stack.
    sp: Cell<*mut u8>,
    intent: Cell<Intent>,
    entry: Cell<Option<Box<dyn FnOnce() + Send + 'static>>>,
    /// Trace tag carried across worker threads (see [`trace_tag`]).
    trace_tag: AtomicU64,
    /// µs timestamp of the last queue push, `u64::MAX` when not stamped.
    /// Only written while a trace hook is installed.
    queued_at_us: AtomicU64,
    /// Highest address of the task stack, for high-water accounting
    /// (null until the stack is acquired).
    stack_top: Cell<*mut u8>,
    /// Acquired from the pool at first activation, returned on `Done`.
    stack: Cell<Option<Stack>>,
    shared: Arc<Shared>,
    /// Seed tasks gate scheduler shutdown; subtasks are joined by their
    /// parent's wait group instead.
    seed: bool,
    wg: Option<Arc<WaitGroup>>,
}

// SAFETY: `sp`, `intent`, `entry`, `stack` and `stack_top` are only
// touched by the worker currently running the task (or holding it
// freshly popped from the run queue); cross-worker handoff is
// synchronized by the queue mutex and the `state` atomic.
unsafe impl Send for TaskCore {}
unsafe impl Sync for TaskCore {}

/// Completion barrier for [`fanout`]: the parent task parks until every
/// subtask has finished; the first subtask panic is delivered to the
/// parent.
struct WaitGroup {
    remaining: AtomicUsize,
    waiter: Mutex<Option<Unparker>>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl WaitGroup {
    fn new(n: usize) -> Self {
        WaitGroup {
            remaining: AtomicUsize::new(n),
            waiter: Mutex::new(None),
            panic: Mutex::new(None),
        }
    }

    fn complete(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(u) = self.waiter.lock().unwrap().take() {
                u.unpark();
            }
        }
    }

    fn wait(&self) {
        *self.waiter.lock().unwrap() = Some(current_unparker().expect("fanout wait on a task"));
        while self.remaining.load(Ordering::Acquire) != 0 {
            park_until(None);
        }
    }
}

// ---- per-worker thread-local state ------------------------------------------

struct WorkerTls {
    shared: Arc<Shared>,
    /// Saved worker stack pointer while a task runs; the task switches
    /// back through it.
    worker_sp: Cell<*mut u8>,
    current: RefCell<Option<Arc<TaskCore>>>,
}

thread_local! {
    static TLS: RefCell<Option<Rc<WorkerTls>>> = const { RefCell::new(None) };
}

fn worker_tls() -> Option<Rc<WorkerTls>> {
    TLS.with(|t| t.borrow().clone())
}

fn current_task() -> Option<Arc<TaskCore>> {
    TLS.with(|t| {
        t.borrow()
            .as_ref()
            .and_then(|tls| tls.current.borrow().clone())
    })
}

// ---- public API -------------------------------------------------------------

/// Whether green tasks are available on this architecture.
pub fn supported() -> bool {
    ctx::SUPPORTED
}

/// True when the calling code is running on a green task.
pub fn on_task() -> bool {
    TLS.with(|t| {
        t.borrow()
            .as_ref()
            .is_some_and(|tls| tls.current.borrow().is_some())
    })
}

/// Worker-pool width used by `run_scoped` callers that don't choose one:
/// one worker per core, but at least two so a task parked mid-protocol
/// never leaves the pool without a runner.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// Drop-in replacement for `thread::sleep` at simulated-latency points:
/// parks the green task in the timer wheel when called on one, sleeps
/// the OS thread otherwise. Never returns before `d` has elapsed.
pub fn pause(d: Duration) {
    if d.is_zero() {
        return;
    }
    if !on_task() {
        std::thread::sleep(d);
        return;
    }
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        park_until(Some(deadline));
    }
}

/// Reschedule the current task (or OS thread) without blocking.
pub fn yield_now() {
    if on_task() {
        switch_out(Intent::Yield);
    } else {
        std::thread::yield_now();
    }
}

/// Wake handle for a parked task; clonable and usable from any thread.
#[derive(Clone)]
pub struct Unparker {
    task: Arc<TaskCore>,
}

impl Unparker {
    pub fn unpark(&self) {
        unpark_task(&self.task);
    }
}

/// Unparker for the calling green task; `None` on a plain OS thread.
/// The local `parking_lot` shim uses this to decide whether a condvar
/// wait should park the task or the thread.
pub fn current_unparker() -> Option<Unparker> {
    current_task().map(|task| Unparker { task })
}

/// Park the calling green task until [`Unparker::unpark`] or `deadline`.
/// May wake spuriously (a stale timer or a consumed notification), so
/// callers re-check their condition in a loop — exactly the condvar
/// contract. Must be called on a green task.
pub fn park_until(deadline: Option<Instant>) {
    let task = current_task().expect("park_until called off-task");
    // Consume a notification that raced ahead of the park.
    if task
        .state
        .compare_exchange(NOTIFIED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        return;
    }
    drop(task);
    switch_out(Intent::Park(deadline));
}

/// Push a runnable task onto the shared queue, maintaining the
/// queue-depth high-water mark and (when a trace hook is installed) the
/// queued-at stamp used for runnable-wait attribution.
fn push_runnable(shared: &Shared, task: Arc<TaskCore>) {
    if TRACE_HOOK_SET.load(Ordering::Acquire) {
        task.queued_at_us.store(sched_now_us(), Ordering::Relaxed);
    }
    let mut queue = shared.queue.lock().unwrap();
    queue.push_back(task);
    let depth = queue.len() as u64;
    drop(queue);
    MAX_RUN_QUEUE_DEPTH.fetch_max(depth, Ordering::Relaxed);
    shared.queue_cv.notify_one();
}

fn unpark_task(task: &Arc<TaskCore>) {
    loop {
        match task.state.load(Ordering::Acquire) {
            PARKED => {
                if task
                    .state
                    .compare_exchange(PARKED, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    push_runnable(&task.shared, task.clone());
                    return;
                }
            }
            RUNNING => {
                if task
                    .state
                    .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
            }
            // QUEUED and NOTIFIED already guarantee a wakeup; DONE needs
            // none.
            _ => return,
        }
    }
}

/// Run `jobs` concurrently and return once all have finished. On a green
/// task this spawns subtasks onto the running scheduler and parks the
/// caller until they complete; elsewhere it falls back to scoped OS
/// threads. Panics in a job propagate to the caller after all jobs have
/// settled, mirroring `thread::scope`.
pub fn fanout<'env>(jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    if jobs.is_empty() {
        return;
    }
    if on_task() {
        let shared = worker_tls().expect("on_task implies worker").shared.clone();
        let wg = Arc::new(WaitGroup::new(jobs.len()));
        for job in jobs {
            // SAFETY: lifetime erasure only; `wg.wait()` below joins
            // every subtask before this frame returns, so borrows in the
            // closures outlive their use.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'env>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(job)
            };
            spawn_onto(&shared, job, false, Some(wg.clone()));
        }
        wg.wait();
        if let Some(p) = wg.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
        return;
    }
    std::thread::scope(|scope| {
        for job in jobs {
            scope.spawn(job);
        }
    });
}

/// Run `f` on every item concurrently — [`fanout`]: green subtasks when
/// driven from the event scheduler, scoped OS threads otherwise — and
/// return the results in item order. A single item runs inline: no
/// thread or task to pay for.
pub fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let f = &f;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .into_iter()
        .zip(&slots)
        .map(|(item, slot)| {
            Box::new(move || {
                *slot.lock().unwrap() = Some(f(item));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    fanout(jobs);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .ok()
                .flatten()
                .expect("fanout ran every job")
        })
        .collect()
}

/// Run `jobs` as green tasks on a pool of `workers` OS threads (the
/// calling thread is one of them) and return once every job — and every
/// subtask spawned via [`fanout`] — has finished. Jobs may borrow from
/// the caller's environment. Returns the number of pool threads actually
/// used (0 when green tasks are unsupported and the call degraded to one
/// OS thread per job). The first job panic is re-raised after the pool
/// drains, mirroring `thread::scope`.
pub fn run_scoped<'env>(workers: usize, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) -> usize {
    if jobs.is_empty() {
        return 0;
    }
    assert!(!on_task(), "run_scoped cannot be nested inside a task");
    if !ctx::SUPPORTED {
        std::thread::scope(|scope| {
            for job in jobs {
                scope.spawn(job);
            }
        });
        return 0;
    }
    let workers = workers.max(1);
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        timers: Mutex::new(TimerWheel::new(TICK)),
        seeds_left: AtomicUsize::new(jobs.len()),
        shutdown: AtomicBool::new(false),
        panic: Mutex::new(None),
    });
    for job in jobs {
        // SAFETY: lifetime erasure only; the worker scope below joins
        // every task before `run_scoped` returns.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        spawn_onto(&shared, job, true, None);
    }
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let shared = shared.clone();
            scope.spawn(move || worker_loop(&shared));
        }
        worker_loop(&shared);
    });
    // Stale entries for tasks that were woken early would otherwise keep
    // task→shared→timer→task reference cycles alive.
    shared.timers.lock().unwrap().clear();
    if let Some(p) = shared.panic.lock().unwrap().take() {
        resume_unwind(p);
    }
    workers
}

// ---- scheduler internals ----------------------------------------------------

fn spawn_onto(
    shared: &Arc<Shared>,
    job: Box<dyn FnOnce() + Send + 'static>,
    seed: bool,
    wg: Option<Arc<WaitGroup>>,
) {
    // No stack yet: the first activation acquires one from the pool (see
    // `run_task`), so a large spawned-but-not-started backlog costs queue
    // entries, not stacks.
    //
    // A fresh task inherits the spawner's trace tag, so `fanout` subtasks
    // (callback deliveries, recovery jobs) stay causally linked to the
    // span that spawned them.
    let task = Arc::new(TaskCore {
        state: AtomicU8::new(QUEUED),
        park_seq: AtomicU64::new(0),
        sp: Cell::new(std::ptr::null_mut()),
        intent: Cell::new(Intent::None),
        entry: Cell::new(Some(job)),
        trace_tag: AtomicU64::new(trace_tag()),
        queued_at_us: AtomicU64::new(u64::MAX),
        stack_top: Cell::new(std::ptr::null_mut()),
        stack: Cell::new(None),
        shared: shared.clone(),
        seed,
        wg,
    });
    TASKS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    push_runnable(shared, task);
}

/// First frame of every task. Runs the job under `catch_unwind`, records
/// a panic, then switches back to the worker for good. Everything owned
/// by this frame is dropped *before* the final switch — frames live at
/// that point are abandoned with the stack, never unwound.
extern "C" fn trampoline() -> ! {
    let task = current_task().expect("trampoline without a current task");
    let job = task.entry.take().expect("task entry already taken");
    let result = catch_unwind(AssertUnwindSafe(job));
    if let Err(payload) = result {
        let slot = match &task.wg {
            Some(wg) => &wg.panic,
            None => &task.shared.panic,
        };
        let mut slot = slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    drop(task);
    switch_out(Intent::Done);
    unreachable!("completed task resumed");
}

/// Switch from the current task back to its worker. All TLS borrows and
/// owned handles are released before the switch: for `Done` the frame is
/// abandoned (drops would never run), and for the resumable intents the
/// worker mutates the same TLS cells while we are suspended.
fn switch_out(intent: Intent) {
    let (task_sp_cell, worker_sp) = TLS.with(|t| {
        let borrow = t.borrow();
        let tls = borrow.as_ref().expect("switch_out off-worker");
        let current = tls.current.borrow();
        let task = current.as_ref().expect("switch_out without current task");
        task.intent.set(intent);
        (task.sp.as_ptr(), tls.worker_sp.get())
    });
    // SAFETY: `worker_sp` is the stack the worker saved when it switched
    // into this task; `task_sp_cell` stays valid because the worker holds
    // an `Arc` to the task for the whole activation.
    unsafe { ctx::fgl_sched_switch(task_sp_cell, worker_sp) };
}

fn worker_loop(shared: &Arc<Shared>) {
    let tls = Rc::new(WorkerTls {
        shared: shared.clone(),
        worker_sp: Cell::new(std::ptr::null_mut()),
        current: RefCell::new(None),
    });
    TLS.with(|t| {
        let prev = t.borrow_mut().replace(tls.clone());
        assert!(prev.is_none(), "nested worker_loop on one thread");
    });
    loop {
        fire_due_timers(shared);
        let popped = shared.queue.lock().unwrap().pop_front();
        if let Some(task) = popped {
            run_task(&tls, task);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let wait = shared
            .timers
            .lock()
            .unwrap()
            .next_deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_POLL)
            .min(IDLE_POLL);
        let queue = shared.queue.lock().unwrap();
        if queue.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            WORKER_PARKS.fetch_add(1, Ordering::Relaxed);
            let _ = shared
                .queue_cv
                .wait_timeout(queue, wait.max(Duration::from_micros(1)))
                .unwrap();
        }
    }
    TLS.with(|t| t.borrow_mut().take());
}

fn fire_due_timers(shared: &Arc<Shared>) {
    let fired = shared.timers.lock().unwrap().advance(Instant::now());
    for t in fired {
        // A stale entry (the task was unparked early and has parked
        // again since) is ignored; at worst a matching-seq entry for a
        // task that already resumed produces a spurious notification.
        if t.task.park_seq.load(Ordering::Acquire) == t.seq {
            unpark_task(&t.task);
        }
    }
}

fn run_task(tls: &Rc<WorkerTls>, task: Arc<TaskCore>) {
    CONTEXT_SWITCHES.fetch_add(1, Ordering::Relaxed);
    if TRACE_HOOK_SET.load(Ordering::Acquire) {
        let queued_at = task.queued_at_us.swap(u64::MAX, Ordering::Relaxed);
        if queued_at != u64::MAX {
            let wait = sched_now_us().saturating_sub(queued_at);
            RUNNABLE_WAIT_US.fetch_add(wait, Ordering::Relaxed);
            RUNNABLE_WAITS.fetch_add(1, Ordering::Relaxed);
            let tag = task.trace_tag.load(Ordering::Relaxed);
            if tag != 0 {
                if let Some(hook) = TRACE_HOOK.get() {
                    hook(tag, wait);
                }
            }
        }
    }
    task.state.store(RUNNING, Ordering::Release);
    if task.sp.get().is_null() {
        // First activation: acquire a (usually recycled) stack and lay
        // out the bootstrap frame on it.
        let stack = stack_pool().acquire(stack_size());
        let top = stack.top();
        // SAFETY: `top` is one past a freshly acquired, writable stack
        // region of at least MIN_STACK bytes.
        task.sp.set(unsafe { ctx::bootstrap(top, trampoline) });
        task.stack_top.set(top);
        task.stack.set(Some(stack));
    }
    tls.current.borrow_mut().replace(task.clone());
    // SAFETY: `task.sp` holds either the bootstrap frame or the stack
    // pointer saved at the task's last `switch_out`; the queue mutex
    // hand-off ordered that write before this read.
    unsafe { ctx::fgl_sched_switch(tls.worker_sp.as_ptr(), task.sp.get()) };
    tls.current.borrow_mut().take();
    // `task.sp` now holds the stack pointer saved at the switch-out; the
    // distance from the stack top is this activation's depth.
    let used = (task.stack_top.get() as usize).saturating_sub(task.sp.get() as usize) as u64;
    STACK_HIGH_WATER.fetch_max(used, Ordering::Relaxed);
    let shared = &tls.shared;
    match task.intent.replace(Intent::None) {
        Intent::Done => {
            task.state.store(DONE, Ordering::Release);
            // The abandoned stack goes back to the free list for the
            // next spawn (the task frame was already dropped inside the
            // trampoline before its final switch).
            if let Some(stack) = task.stack.take() {
                stack_pool().release(stack);
            }
            if let Some(wg) = &task.wg {
                wg.complete();
            }
            if task.seed && shared.seeds_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                shared.shutdown.store(true, Ordering::Release);
                shared.queue_cv.notify_all();
            }
        }
        Intent::Yield => {
            task.state.store(QUEUED, Ordering::Release);
            push_runnable(shared, task);
        }
        Intent::Park(deadline) => {
            let seq = task.park_seq.fetch_add(1, Ordering::AcqRel) + 1;
            if let Some(d) = deadline {
                shared.timers.lock().unwrap().insert(
                    d,
                    TimerTarget {
                        task: task.clone(),
                        seq,
                    },
                );
            }
            if task
                .state
                .compare_exchange(RUNNING, PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Notified while switching out: runnable again at once.
                task.state.store(QUEUED, Ordering::Release);
                push_runnable(shared, task);
            }
        }
        Intent::None => unreachable!("task switched out without an intent"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn boxed<'env>(f: impl FnOnce() + Send + 'env) -> Box<dyn FnOnce() + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn runs_every_job_with_borrows() {
        let counter = AtomicU32::new(0);
        let jobs = (0..100)
            .map(|_| {
                boxed(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        run_scoped(2, jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn many_tasks_few_workers_with_pauses() {
        if !supported() {
            return;
        }
        let counter = AtomicU32::new(0);
        let jobs = (0..256)
            .map(|_| {
                boxed(|| {
                    pause(Duration::from_micros(200));
                    counter.fetch_add(1, Ordering::Relaxed);
                    pause(Duration::from_micros(100));
                })
            })
            .collect();
        run_scoped(2, jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn pause_never_returns_early() {
        if !supported() {
            return;
        }
        let jobs = (0..8)
            .map(|_| {
                boxed(|| {
                    let start = Instant::now();
                    pause(Duration::from_millis(5));
                    assert!(start.elapsed() >= Duration::from_millis(5));
                })
            })
            .collect();
        run_scoped(2, jobs);
    }

    #[test]
    fn fanout_joins_subtasks_and_their_results() {
        if !supported() {
            return;
        }
        let total = AtomicU32::new(0);
        run_scoped(
            2,
            vec![boxed(|| {
                let results: Mutex<Vec<u32>> = Mutex::new(Vec::new());
                let jobs = (0..10u32)
                    .map(|i| {
                        let results = &results;
                        boxed(move || {
                            pause(Duration::from_micros(50));
                            results.lock().unwrap().push(i);
                        })
                    })
                    .collect();
                fanout(jobs);
                let got = results.into_inner().unwrap();
                assert_eq!(got.len(), 10);
                total.fetch_add(got.iter().sum::<u32>(), Ordering::Relaxed);
            })],
        );
        assert_eq!(total.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn nested_fanout() {
        if !supported() {
            return;
        }
        let count = AtomicU32::new(0);
        run_scoped(
            3,
            vec![boxed(|| {
                fanout(
                    (0..4)
                        .map(|_| {
                            boxed(|| {
                                fanout(
                                    (0..4)
                                        .map(|_| {
                                            boxed(|| {
                                                pause(Duration::from_micros(30));
                                                count.fetch_add(1, Ordering::Relaxed);
                                            })
                                        })
                                        .collect(),
                                );
                            })
                        })
                        .collect(),
                );
            })],
        );
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn unparker_wakes_a_parked_task() {
        if !supported() {
            return;
        }
        let woke = AtomicBool::new(false);
        let handle: Mutex<Option<Unparker>> = Mutex::new(None);
        run_scoped(2, {
            vec![
                boxed(|| {
                    *handle.lock().unwrap() = Some(current_unparker().unwrap());
                    // Long backstop: the sibling's unpark must arrive first.
                    park_until(Some(Instant::now() + Duration::from_secs(5)));
                    woke.store(true, Ordering::Release);
                }),
                boxed(|| {
                    pause(Duration::from_millis(2));
                    loop {
                        if let Some(u) = handle.lock().unwrap().take() {
                            u.unpark();
                            break;
                        }
                        yield_now();
                    }
                }),
            ]
        });
        assert!(woke.load(Ordering::Acquire));
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        if !supported() {
            return;
        }
        let survived = Arc::new(AtomicU32::new(0));
        let s2 = survived.clone();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_scoped(
                2,
                vec![
                    boxed(|| panic!("boom")),
                    boxed(move || {
                        pause(Duration::from_millis(1));
                        s2.fetch_add(1, Ordering::Relaxed);
                    }),
                ],
            );
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(
            survived.load(Ordering::Relaxed),
            1,
            "other tasks still drain"
        );
    }

    #[test]
    fn stacks_recycle_across_run_scoped_generations() {
        if !supported() {
            return;
        }
        let before = sched_stats();
        for _ in 0..3 {
            let counter = AtomicU32::new(0);
            let jobs = (0..64)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            run_scoped(2, jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 64);
        }
        let delta = sched_stats().delta_since(&before);
        assert!(delta.tasks_spawned >= 192);
        // Every finished task returned its stack…
        assert!(
            delta.stacks_pooled >= 192,
            "finished tasks must pool their stacks (pooled {})",
            delta.stacks_pooled
        );
        // …and later activations were served from the pool instead of
        // the allocator (run-to-completion jobs on 2 workers need only a
        // handful of live stacks).
        assert!(
            delta.stacks_reused > 0,
            "later generations must reuse pooled stacks"
        );
        assert!(
            delta.stacks_allocated < delta.tasks_spawned,
            "lazy pooled stacks: {} allocations for {} tasks",
            delta.stacks_allocated,
            delta.tasks_spawned
        );
    }

    #[test]
    fn effective_stack_size_is_surfaced_and_settable() {
        let base = sched_stats().stack_size_bytes;
        assert!(base as usize >= MIN_STACK);
        if std::env::var("FGL_SCHED_STACK_KB").is_ok() {
            return; // env override wins; nothing to set
        }
        set_stack_size(MIN_STACK);
        assert_eq!(sched_stats().stack_size_bytes as usize, MIN_STACK);
        set_stack_size(base as usize);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_stack_size_is_rejected() {
        validate_stack_size(0, "test");
    }

    #[test]
    #[should_panic(expected = "safety floor")]
    fn tiny_stack_size_is_rejected() {
        set_stack_size(MIN_STACK - stack::PAGE);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn unaligned_stack_size_is_rejected() {
        set_stack_size(MIN_STACK + 1024);
    }

    #[test]
    fn off_task_primitives_fall_back() {
        assert!(!on_task());
        assert!(current_unparker().is_none());
        let start = Instant::now();
        pause(Duration::from_millis(2));
        assert!(start.elapsed() >= Duration::from_millis(2));
        yield_now();
    }
}
