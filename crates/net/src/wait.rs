//! Parked lock grants.
//!
//! When the GLM queues a request, the requesting client thread blocks on a
//! [`GrantWaiter`] until the server fulfils the matching [`GrantSlot`]
//! (grant or deadlock-victim verdict) or the timeout backstop fires.

use fgl_common::{ClientId, Psn};
use fgl_locks::mode::LockTarget;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the waiter eventually learns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GrantMsg {
    /// The (possibly adaptive-converted) target was granted.
    Granted {
        target: LockTarget,
        first_exclusive_on_page: bool,
        /// §3.1 callback-record evidence: the client that last shipped the
        /// page to the server while this request was serviced, and the
        /// PSN the page carried. The grantee logs a callback record from
        /// it when acquiring exclusively.
        evidence: Option<(ClientId, Psn)>,
        /// The server's copy of the locked page, read after every copy the
        /// callbacks behind this grant shipped was absorbed. The grantee
        /// merges it into its cache instead of fetching the page. `None`
        /// when the server attached none: the grantee fetches it.
        page: Option<Vec<u8>>,
    },
    /// The waiter's transaction was chosen as a deadlock victim.
    Victim,
}

/// Shared one-shot cell connecting a [`GrantSlot`] to its [`GrantWaiter`].
struct Cell {
    verdict: Mutex<Option<GrantMsg>>,
    cv: Condvar,
}

/// Server-side half: fulfil once.
pub struct GrantSlot {
    cell: Arc<Cell>,
}

/// Client-side half: block until fulfilled or timed out.
pub struct GrantWaiter {
    cell: Arc<Cell>,
}

/// Create a connected slot/waiter pair.
pub fn grant_pair() -> (GrantSlot, GrantWaiter) {
    let cell = Arc::new(Cell {
        verdict: Mutex::new(None),
        cv: Condvar::new(),
    });
    (GrantSlot { cell: cell.clone() }, GrantWaiter { cell })
}

impl GrantSlot {
    /// Deliver the verdict. Ignores a waiter that already gave up
    /// (timeout) — the server also cancels such waiters explicitly.
    pub fn fulfil(&self, msg: GrantMsg) {
        let mut verdict = self.cell.verdict.lock();
        if verdict.is_none() {
            *verdict = Some(msg);
            self.cell.cv.notify_all();
        }
    }
}

impl GrantWaiter {
    /// Wait for the verdict; `None` on timeout.
    pub fn wait(&self, timeout: Duration) -> Option<GrantMsg> {
        let deadline = Instant::now() + timeout;
        let mut verdict = self.cell.verdict.lock();
        loop {
            if let Some(m) = verdict.take() {
                return Some(m);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.cell.cv.wait_for(&mut verdict, left);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::PageId;
    use fgl_locks::mode::ObjMode;

    #[test]
    fn fulfil_then_wait() {
        let (slot, waiter) = grant_pair();
        slot.fulfil(GrantMsg::Granted {
            target: LockTarget::Page(PageId(1), ObjMode::X),
            first_exclusive_on_page: true,
            evidence: None,
            page: None,
        });
        let got = waiter.wait(Duration::from_millis(10)).unwrap();
        assert!(matches!(got, GrantMsg::Granted { .. }));
    }

    #[test]
    fn wait_times_out() {
        let (_slot, waiter) = grant_pair();
        assert_eq!(waiter.wait(Duration::from_millis(5)), None);
    }

    #[test]
    fn cross_thread_delivery() {
        let (slot, waiter) = grant_pair();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            slot.fulfil(GrantMsg::Victim);
        });
        assert_eq!(waiter.wait(Duration::from_secs(1)), Some(GrantMsg::Victim));
        h.join().unwrap();
    }

    #[test]
    fn fulfil_after_waiter_dropped_is_harmless() {
        let (slot, waiter) = grant_pair();
        drop(waiter);
        slot.fulfil(GrantMsg::Victim);
    }
}
