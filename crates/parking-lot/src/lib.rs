//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a local crate with the same name exposing the (small) API
//! subset the codebase uses — `Mutex`, `RwLock` and `Condvar` with
//! guard-returning, non-poisoning `lock()`/`read()`/`write()` — backed
//! by `std::sync`. Poisoned locks are recovered into their inner guard:
//! parking_lot has no poisoning, and the panic that poisoned the lock
//! already aborts the affected test/thread, so propagating state is the
//! faithful translation.
//!
//! **Green-task awareness.** When the caller is a green task of the
//! `fgl-sched` scheduler (the simulator's `event` scheduler), blocking
//! here must never pin an OS worker thread:
//! - `lock()`/`read()`/`write()` spin on the `try_` variant and yield
//!   the *task* between rounds, so a worker whose lock holder is parked
//!   in the timer wheel keeps draining the run queue;
//! - `Condvar::wait`/`wait_for` register a task unparker, release the
//!   mutex, park the task, and re-acquire on wake — `notify_one`/
//!   `notify_all` wake both OS-thread waiters and task waiters.
//!
//! On a plain OS thread every primitive behaves exactly as before, so
//! socket threads and other non-task code are untouched.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{self, TryLockError};
use std::time::{Duration, Instant};

/// Try-acquire rounds between task yields while spinning on a held lock
/// from a green task.
const SPIN_ROUNDS: usize = 32;

/// A mutual-exclusion primitive. `lock()` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; the `Option` dance lets [`Condvar::wait_for`]
/// move the inner std guard out and re-acquire it after a task park, and
/// the `lock` back-reference is what it re-acquires from.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<sync::MutexGuard<'a, T>>,
}

fn recover<T: ?Sized>(r: sync::LockResult<sync::MutexGuard<'_, T>>) -> sync::MutexGuard<'_, T> {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Acquire `m` without ever blocking the OS thread: spin on `try_lock`,
/// yielding the green task between rounds. Only called in task context.
fn task_lock<T: ?Sized>(m: &sync::Mutex<T>) -> sync::MutexGuard<'_, T> {
    loop {
        for _ in 0..SPIN_ROUNDS {
            match m.try_lock() {
                Ok(g) => return g,
                Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
            }
        }
        fgl_sched::yield_now();
    }
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn raw_lock(&self) -> sync::MutexGuard<'_, T> {
        if fgl_sched::on_task() {
            task_lock(&self.inner)
        } else {
            recover(self.inner.lock())
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            lock: self,
            inner: Some(self.raw_lock()),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
            }),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A reader-writer lock; `read()`/`write()` return guards directly.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if fgl_sched::on_task() {
            loop {
                for _ in 0..SPIN_ROUNDS {
                    match self.inner.try_read() {
                        Ok(g) => return RwLockReadGuard { inner: g },
                        Err(TryLockError::Poisoned(p)) => {
                            return RwLockReadGuard {
                                inner: p.into_inner(),
                            }
                        }
                        Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                    }
                }
                fgl_sched::yield_now();
            }
        }
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if fgl_sched::on_task() {
            loop {
                for _ in 0..SPIN_ROUNDS {
                    match self.inner.try_write() {
                        Ok(g) => return RwLockWriteGuard { inner: g },
                        Err(TryLockError::Poisoned(p)) => {
                            return RwLockWriteGuard {
                                inner: p.into_inner(),
                            }
                        }
                        Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                    }
                }
                fgl_sched::yield_now();
            }
        }
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed condition-variable wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Condition variable operating on [`MutexGuard`]s. OS-thread waiters
/// block on the inner `std::sync::Condvar`; green-task waiters park
/// their task with an unparker registered here. Notification wakes both
/// populations.
#[derive(Default, Debug)]
pub struct Condvar {
    inner: sync::Condvar,
    /// OS threads inside `inner.wait*`, each counted in while it still
    /// holds the user mutex — so a notifier that changed the condition
    /// under that mutex sees it. With nobody counted in (every commit's
    /// notify) the notify skips the futex call std would make.
    os_waiters: AtomicUsize,
    /// Green tasks registered in `task_waiters`, counted in the same way:
    /// before the registration, while the waiter still holds the user
    /// mutex, and out only once it has left the list. With none counted
    /// in, a notify skips the list's lock.
    task_count: AtomicUsize,
    task_waiters: sync::Mutex<Vec<TaskWaiter>>,
    next_waiter: AtomicU64,
}

struct TaskWaiter {
    id: u64,
    unparker: fgl_sched::Unparker,
}

impl std::fmt::Debug for TaskWaiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskWaiter").field("id", &self.id).finish()
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            os_waiters: AtomicUsize::new(0),
            task_count: AtomicUsize::new(0),
            task_waiters: sync::Mutex::new(Vec::new()),
            next_waiter: AtomicU64::new(0),
        }
    }

    pub fn notify_one(&self) {
        if self.os_waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
        if self.task_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let waiter = {
            let mut w = recover(self.task_waiters.lock());
            if w.is_empty() {
                None
            } else {
                Some(w.remove(0))
            }
        };
        if let Some(w) = waiter {
            w.unparker.unpark();
        }
    }

    pub fn notify_all(&self) {
        if self.os_waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
        if self.task_count.load(Ordering::SeqCst) == 0 {
            return;
        }
        let drained: Vec<TaskWaiter> = std::mem::take(&mut *recover(self.task_waiters.lock()));
        for w in drained {
            w.unparker.unpark();
        }
    }

    /// Register the calling task, drop the mutex, park until notified,
    /// re-acquire. Returns once parked-and-woken at least once; spurious
    /// wakeups are possible, exactly as with the std condvar.
    fn task_wait<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        unparker: fgl_sched::Unparker,
        deadline: Option<Instant>,
    ) {
        let id = self.next_waiter.fetch_add(1, Ordering::Relaxed);
        self.task_count.fetch_add(1, Ordering::SeqCst);
        recover(self.task_waiters.lock()).push(TaskWaiter { id, unparker });
        // Counting in and registration happened while still holding the
        // user mutex, so a notifier that mutates state under it sees both
        // and cannot slip between our condition check and the park.
        let inner = guard.inner.take().expect("guard present");
        drop(inner);
        fgl_sched::park_until(deadline);
        recover(self.task_waiters.lock()).retain(|w| w.id != id);
        self.task_count.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(guard.lock.raw_lock());
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(unparker) = fgl_sched::current_unparker() {
            self.task_wait(guard, unparker, None);
            return;
        }
        let inner = guard.inner.take().expect("guard present");
        self.os_waiters.fetch_add(1, Ordering::SeqCst);
        let inner = match self.inner.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.os_waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if let Some(unparker) = fgl_sched::current_unparker() {
            let deadline = Instant::now() + timeout;
            self.task_wait(guard, unparker, Some(deadline));
            // Conservative: a wake racing the deadline reports a timeout.
            // Every call site loops on its condition, and the std condvar
            // makes the same call in that race.
            return WaitTimeoutResult {
                timed_out: Instant::now() >= deadline,
            };
        }
        let inner = guard.inner.take().expect("guard present");
        self.os_waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        self.os_waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = Arc::new(RwLock::new(0u64));
        {
            let _a = l.read();
            let _b = l.read();
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let r = cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(r.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn condvar_cross_thread_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            let r = cv.wait_for(&mut done, Duration::from_secs(2));
            if r.timed_out() {
                break;
            }
        }
        assert!(*done);
        h.join().unwrap();
    }

    /// Two threads hand a turn back and forth, each notifying *after*
    /// releasing the mutex (the client runtime's habit). A notify skipped
    /// while the peer was already counted in would leave it asleep until
    /// the timeout, which fails the round.
    #[test]
    fn condvar_handoff_never_loses_a_wakeup() {
        const ROUNDS: u32 = 20_000;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let play = |me: u32, pair: Arc<(Mutex<u32>, Condvar)>| {
            let (turn, cv) = &*pair;
            for _ in 0..ROUNDS {
                let mut t = turn.lock();
                while *t % 2 != me {
                    let r = cv.wait_for(&mut t, Duration::from_secs(10));
                    assert!(!r.timed_out(), "wakeup lost at turn {}", *t);
                }
                *t += 1;
                drop(t);
                cv.notify_all();
            }
        };
        let p2 = pair.clone();
        let h = std::thread::spawn(move || play(1, p2));
        play(0, pair.clone());
        h.join().unwrap();
        assert_eq!(*pair.0.lock(), 2 * ROUNDS);
        assert_eq!(pair.1.os_waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn poisoned_mutex_recovers_value() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 5);
    }

    // ---- green-task integration ---------------------------------------------

    fn boxed<'env>(f: impl FnOnce() + Send + 'env) -> Box<dyn FnOnce() + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn tasks_contend_on_mutex_without_blocking_workers() {
        if !fgl_sched::supported() {
            return;
        }
        let m = Mutex::new(0u64);
        // 64 tasks on 2 workers; each holds the lock across a timer park,
        // which only works if contenders yield instead of OS-blocking.
        let jobs = (0..64)
            .map(|_| {
                let m = &m;
                boxed(move || {
                    let mut g = m.lock();
                    fgl_sched::pause(Duration::from_micros(100));
                    *g += 1;
                })
            })
            .collect();
        fgl_sched::run_scoped(2, jobs);
        assert_eq!(m.into_inner(), 64);
    }

    #[test]
    fn condvar_between_tasks() {
        if !fgl_sched::supported() {
            return;
        }
        let state = Mutex::new(0u32);
        let cv = Condvar::new();
        let (state, cv) = (&state, &cv);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            boxed(move || {
                let mut g = state.lock();
                while *g != 1 {
                    cv.wait(&mut g);
                }
                *g = 2;
                drop(g);
                cv.notify_all();
            }),
            boxed(move || {
                fgl_sched::pause(Duration::from_millis(1));
                *state.lock() = 1;
                cv.notify_all();
                let mut g = state.lock();
                while *g != 2 {
                    let r = cv.wait_for(&mut g, Duration::from_secs(5));
                    if r.timed_out() {
                        panic!("handshake timed out");
                    }
                }
            }),
        ];
        fgl_sched::run_scoped(2, jobs);
        assert_eq!(*state.lock(), 2);
    }

    /// Two green tasks on two workers hand a turn back and forth through
    /// one condvar, notifying after releasing the mutex. A notify that
    /// skipped the task-waiter list while the peer was registered would
    /// leave it parked until its deadline, which fails the hand-off.
    fn tasks_hand_off(rounds: u32) {
        if !fgl_sched::supported() {
            return;
        }
        let (turn, cv) = (Mutex::new(0u32), Condvar::new());
        let play = |me: u32| {
            let (turn, cv) = (&turn, &cv);
            boxed(move || {
                for _ in 0..rounds {
                    let mut t = turn.lock();
                    while *t % 2 != me {
                        let r = cv.wait_for(&mut t, Duration::from_secs(10));
                        assert!(!r.timed_out(), "wakeup lost at turn {}", *t);
                    }
                    *t += 1;
                    drop(t);
                    cv.notify_all();
                }
            })
        };
        fgl_sched::run_scoped(2, vec![play(0), play(1)]);
        assert_eq!(*turn.lock(), 2 * rounds);
        assert_eq!(cv.task_count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn task_handoff_never_loses_a_wakeup() {
        tasks_hand_off(2_000);
    }

    /// `cargo test --release -p parking_lot -- --ignored`: 100 000
    /// hand-offs.
    #[test]
    #[ignore]
    fn task_handoff_soak() {
        tasks_hand_off(50_000);
    }

    #[test]
    fn task_wait_for_times_out() {
        if !fgl_sched::supported() {
            return;
        }
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (m, cv) = (&m, &cv);
        fgl_sched::run_scoped(
            2,
            vec![boxed(move || {
                let mut g = m.lock();
                let start = Instant::now();
                let r = cv.wait_for(&mut g, Duration::from_millis(5));
                assert!(r.timed_out());
                assert!(start.elapsed() >= Duration::from_millis(5));
            })],
        );
    }

    #[test]
    fn notify_from_plain_thread_wakes_task_waiter() {
        if !fgl_sched::supported() {
            return;
        }
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        fgl_sched::run_scoped(
            2,
            vec![boxed(move || {
                let mut done = m.lock();
                while !*done {
                    let r = cv.wait_for(&mut done, Duration::from_secs(5));
                    if r.timed_out() {
                        panic!("never notified");
                    }
                }
            })],
        );
        h.join().unwrap();
    }
}
