//! A cached worker pool: a job goes to a parked worker if one is idle,
//! else to a new thread that parks for reuse afterwards. No size limit,
//! no idle timeout, no knob: the jobs may block on a peer or a grant, so
//! the thread count is the peak number of concurrent jobs, and a steady
//! state starts none. Parked workers exit when the pool is dropped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread;

type Job = Box<dyn FnOnce() + Send>;
/// One hand-off channel per parked worker.
type Idle = Mutex<Vec<mpsc::Sender<Job>>>;

pub(crate) struct Pool {
    name: &'static str,
    idle: Arc<Idle>,
    started: AtomicUsize,
}

impl Pool {
    pub(crate) fn new(name: &'static str) -> Pool {
        Pool {
            name,
            idle: Arc::default(),
            started: AtomicUsize::new(0),
        }
    }

    /// Threads started so far: the peak number of concurrent jobs.
    pub(crate) fn threads_started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut job: Job = Box::new(job);
        while let Some(parked) = self.idle.lock().unwrap().pop() {
            match parked.send(job) {
                Ok(()) => return,
                Err(mpsc::SendError(back)) => job = back,
            }
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        let idle = Arc::downgrade(&self.idle);
        let _ = thread::Builder::new()
            .name(self.name.into())
            .spawn(move || worker(job, &idle));
    }
}

fn worker(mut job: Job, idle: &Weak<Idle>) {
    loop {
        job();
        // A job's span must never parent the next job's.
        fgl_sched::set_trace_tag(0);
        // Park. Dropping the pool drops every parked worker's sender.
        let (tx, rx) = mpsc::channel();
        if let Some(idle) = idle.upgrade() {
            idle.lock().unwrap().push(tx);
        }
        let Ok(next) = rx.recv() else { return };
        job = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_jobs_reuse_one_thread_and_blocked_jobs_do_not_starve() {
        let pool = Pool::new("fgl-test");
        for i in 0..200 {
            let (tx, rx) = mpsc::channel();
            pool.execute(move || tx.send(i).unwrap());
            assert_eq!(rx.recv().unwrap(), i);
            // Let the worker park before the next job arrives.
            while pool.idle.lock().unwrap().is_empty() {
                thread::yield_now();
            }
        }
        assert_eq!(pool.threads_started(), 1);

        // A job that waits on a later one still lets the later one run.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let done = done_tx.clone();
        pool.execute(move || {
            gate_rx.recv().unwrap();
            done.send("first").unwrap();
        });
        pool.execute(move || {
            done_tx.send("second").unwrap();
            gate_tx.send(()).unwrap();
        });
        assert_eq!(done_rx.recv().unwrap(), "second");
        assert_eq!(done_rx.recv().unwrap(), "first");
        assert_eq!(pool.threads_started(), 2);
    }
}
