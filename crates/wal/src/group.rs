//! Group commit: concurrent forces of one log share one device force.
//!
//! A writer appends its records under the log's mutex, takes a
//! [`ForceTicket`] (the end of the log as it left it) and releases the
//! mutex before forcing. The first writer to find no force in flight
//! becomes the **leader**: it captures the current end of the log as the
//! force's goal, pays the device latency with **no lock held** (the
//! window in which other writers append behind it), then promotes the
//! captured range with [`LogManager::complete_force`]. A writer whose
//! records an in-flight force covers just waits for it to retire (it
//! piggybacks, with no device time of its own); one whose records are
//! past the goal waits for the slot and leads the next force.
//!
//! A crash discards the log's pending tail. A ticket names the crash
//! epoch its records were appended in, and a force of a log that crashed
//! since fails instead of promoting bytes appended after the crash.

use crate::manager::LogManager;
use fgl_common::{FglError, Lsn, Result};
use parking_lot::{Condvar, Mutex};
use std::ops::DerefMut;
use std::time::Duration;

/// What a writer needs made durable: the end of the log after its last
/// record, in the crash epoch of the append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForceTicket {
    pub upto: Lsn,
    pub epoch: u64,
}

/// The leader/follower protocol of one log; see the module docs.
pub struct GroupForce {
    /// Whether a leader's force is in flight.
    forcing: Mutex<bool>,
    /// Woken when the in-flight force retires.
    retired: Condvar,
    /// Device time a force costs, paid by the leader with no lock held.
    latency: Duration,
}

impl GroupForce {
    pub fn new(latency: Duration) -> Self {
        GroupForce {
            forcing: Mutex::new(false),
            retired: Condvar::new(),
            latency,
        }
    }

    /// Make the log durable up to `ticket.upto`; `lock` locks the log.
    /// `Ok(true)` when this caller led a force, `Ok(false)` when its
    /// records were durable already or rode another writer's force; an
    /// error when the log crashed after the ticket was taken (its records
    /// are gone).
    pub fn force<G: DerefMut<Target = LogManager>>(
        &self,
        ticket: ForceTicket,
        lock: impl Fn() -> G,
    ) -> Result<bool> {
        let crashed = || FglError::Disconnected("the log crashed before its force".into());
        loop {
            let mut forcing = self.forcing.lock();
            // One look at the log answers both questions: are we durable
            // already, and if we lead, what does the force cover?
            let lead = {
                let log = lock();
                if log.crash_epoch() != ticket.epoch {
                    return Err(crashed());
                }
                if log.durable_lsn() >= ticket.upto {
                    return Ok(false);
                }
                (!*forcing).then(|| (log.end_lsn(), log.obs_now_us()))
            };
            let Some((goal, started)) = lead else {
                // The force in flight either covers us (wait → durable)
                // or predates our records (wait → lead the next one).
                self.retired.wait(&mut forcing);
                continue;
            };
            *forcing = true;
            drop(forcing);
            // The device works here, outside every lock: other writers
            // append behind `goal` now.
            fgl_sched::pause(self.latency);
            let done = {
                let mut log = lock();
                if log.crash_epoch() == ticket.epoch {
                    log.complete_force(goal, started)
                } else {
                    Err(crashed())
                }
            };
            *self.forcing.lock() = false;
            self.retired.notify_all();
            return done.map(|_| true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::LogPayload;
    use crate::store::MemLogStore;
    use fgl_common::TxnId;
    use std::sync::atomic::{AtomicU64, Ordering};

    const LATENCY: Duration = Duration::from_millis(20);

    fn log() -> Mutex<LogManager> {
        Mutex::new(LogManager::new(Box::new(MemLogStore::new()), 1 << 20))
    }

    fn append(log: &Mutex<LogManager>, n: u64) -> ForceTicket {
        let mut log = log.lock();
        let payload = LogPayload::Commit {
            txn: TxnId(n),
            prev_lsn: Lsn::NIL,
        };
        log.append(&payload).unwrap();
        log.force_ticket()
    }

    fn force(group: &GroupForce, log: &Mutex<LogManager>, ticket: ForceTicket) -> Result<bool> {
        group.force(ticket, || log.lock())
    }

    type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

    #[test]
    fn concurrent_writers_share_device_forces() {
        if !fgl_sched::supported() {
            return;
        }
        let (log, group) = (log(), GroupForce::new(LATENCY));
        let led = AtomicU64::new(0);
        let jobs: Vec<Job> = (0..8)
            .map(|n| {
                let (log, group, led) = (&log, &group, &led);
                Box::new(move || {
                    let ticket = append(log, n);
                    if force(group, log, ticket).unwrap() {
                        led.fetch_add(1, Ordering::Relaxed);
                    }
                    assert!(log.lock().durable_lsn() >= ticket.upto);
                }) as Job
            })
            .collect();
        fgl_sched::run_scoped(2, jobs);
        let forces = log.lock().stats().2;
        assert_eq!(forces, led.load(Ordering::Relaxed));
        assert!(forces < 8, "8 writers forced {forces} times");
    }

    /// A leader pays the device time while the log crashes and a restart
    /// appends behind the crash. Neither it nor a writer waiting on it
    /// reports its discarded records durable, and the durable end stays
    /// where the crash left it: the restart's record was never forced.
    #[test]
    fn a_crash_during_a_force_promotes_nothing_it_discarded() {
        if !fgl_sched::supported() {
            return;
        }
        // Long enough that the crash lands inside the force on a slow host.
        let latency = Duration::from_millis(200);
        let (log, group) = (log(), GroupForce::new(latency));
        append(&log, 1);
        let durable = log.lock().force().unwrap();
        let results = Mutex::new(Vec::new());
        let writer = |delay: Duration| {
            let (log, group, results) = (&log, &group, &results);
            Box::new(move || {
                fgl_sched::pause(delay);
                let ticket = append(log, 2);
                results.lock().push(force(group, log, ticket).is_err());
            }) as Job
        };
        let (log_ref, results_ref) = (&log, &results);
        let crash: Job = Box::new(move || {
            fgl_sched::pause(latency * 3 / 10);
            log_ref.lock().crash();
            append(log_ref, 3);
            results_ref
                .lock()
                .push(log_ref.lock().durable_lsn() == durable);
        });
        fgl_sched::run_scoped(2, vec![writer(Duration::ZERO), writer(latency / 10), crash]);
        assert_eq!(*results.lock(), [true, true, true]);
        let log = log.lock();
        assert_eq!(log.durable_lsn(), durable);
        assert!(log.end_lsn() > durable, "the restart's record is pending");
    }
}
