//! The committed-state oracle.
//!
//! The harness records every *committed* write here. Strict two-phase
//! object locking serializes writers per object, so applying each
//! transaction's write set atomically at commit time (while still holding
//! its locks) yields exactly the serialization order the system produced.
//! After any crash/recovery sequence, reading every object back through a
//! live client must reproduce the oracle — the paper's §3.3–§3.5
//! correctness claim, checked mechanically (experiment E8).

use crate::setup::DatabaseLayout;
use fgl::{ClientCore, FglError, ObjectId, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Committed values per object (`None` = deleted).
#[derive(Default)]
pub struct Oracle {
    committed: Mutex<HashMap<ObjectId, Option<Vec<u8>>>>,
    /// Objects a read returned something other than [`Oracle::check_read`]
    /// expects for, in the order seen.
    stale_reads: Mutex<Vec<ObjectId>>,
}

/// Result of an oracle verification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    pub objects_checked: usize,
    pub mismatches: Vec<ObjectId>,
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl Oracle {
    pub fn new() -> Arc<Oracle> {
        Arc::new(Oracle::default())
    }

    /// Seed the oracle with the initial database contents.
    pub fn seed(&self, reader: &Arc<ClientCore>, layout: &DatabaseLayout) -> Result<()> {
        let t = reader.begin()?;
        let mut map = self.committed.lock();
        for o in &layout.objects {
            map.insert(*o, Some(reader.read(t, *o)?));
        }
        drop(map);
        reader.commit(t)
    }

    /// Record a committed transaction's write set. Call after `commit`
    /// returns `Ok`, before the next transaction of the same client runs.
    pub fn commit_writes(&self, writes: &[(ObjectId, Option<Vec<u8>>)]) {
        let mut map = self.committed.lock();
        for (o, v) in writes {
            map.insert(*o, v.clone());
        }
    }

    /// Expected value of one object.
    pub fn expected(&self, o: ObjectId) -> Option<Option<Vec<u8>>> {
        self.committed.lock().get(&o).cloned()
    }

    /// Check one read at the moment it returns, while the reader still
    /// holds its lock. Strict two-phase locking means `got` must be the
    /// reading transaction's own latest write to `o` (`own`), or else
    /// `o`'s last committed value: a writer records its commit here before
    /// it releases the lock the reader then took. A read that differs is
    /// recorded in [`Oracle::stale_reads`]. This catches a stale page at
    /// the read that used it, not only when the stale state outlives the
    /// run.
    pub fn check_read(&self, o: ObjectId, got: &[u8], own: Option<&Option<Vec<u8>>>) {
        let fresh = match own {
            Some(v) => v.as_deref() == Some(got),
            None => match self.committed.lock().get(&o) {
                Some(v) => v.as_deref() == Some(got),
                None => true, // not tracked
            },
        };
        if !fresh {
            self.stale_reads.lock().push(o);
        }
    }

    /// Every read [`Oracle::check_read`] found stale, in the order seen.
    pub fn stale_reads(&self) -> Vec<ObjectId> {
        self.stale_reads.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.committed.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.committed.lock().is_empty()
    }

    /// Read every tracked object through `reader` (full lock/callback
    /// protocol — authoritative) and compare against the oracle.
    pub fn verify_via_reads(&self, reader: &Arc<ClientCore>) -> Result<VerifyReport> {
        let expected: Vec<(ObjectId, Option<Vec<u8>>)> = {
            let map = self.committed.lock();
            let mut v: Vec<_> = map.iter().map(|(o, val)| (*o, val.clone())).collect();
            v.sort_by_key(|(o, _)| (o.page.0, o.slot.0));
            v
        };
        let t = reader.begin()?;
        let mut report = VerifyReport::default();
        for (o, want) in expected {
            report.objects_checked += 1;
            let got = match reader.read(t, o) {
                Ok(bytes) => Some(bytes),
                Err(FglError::ObjectNotFound(_)) => None,
                Err(e) => {
                    reader.abort(t).ok();
                    return Err(e);
                }
            };
            if got != want {
                report.mismatches.push(o);
            }
        }
        reader.commit(t)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::populate;
    use fgl::{System, SystemConfig};

    #[test]
    fn seed_then_verify_is_clean() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 2, 4, 16).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let report = oracle.verify_via_reads(sys.client(0)).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.objects_checked, 8);
    }

    #[test]
    fn verify_detects_divergence() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 1, 2, 8).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        // Commit a write the oracle never hears about.
        let c = sys.client(0);
        let t = c.begin().unwrap();
        c.write(t, layout.objects[0], &[9u8; 8]).unwrap();
        c.commit(t).unwrap();
        let report = oracle.verify_via_reads(c).unwrap();
        assert_eq!(report.mismatches, vec![layout.objects[0]]);
    }

    #[test]
    fn check_read_flags_what_two_phase_locking_forbids() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 1, 2, 8).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let (a, b) = (layout.objects[0], layout.objects[1]);
        let loaded = oracle.expected(a).unwrap().unwrap();
        oracle.check_read(a, &loaded, None);
        oracle.check_read(b, &[5u8; 8], Some(&Some(vec![5u8; 8])));
        assert!(oracle.stale_reads().is_empty());
        // A committed value read after a newer commit, and the committed
        // value read over the reader's own write.
        oracle.commit_writes(&[(a, Some(vec![1u8; 8]))]);
        oracle.check_read(a, &loaded, None);
        oracle.check_read(b, &loaded, Some(&Some(vec![5u8; 8])));
        assert_eq!(oracle.stale_reads(), vec![a, b]);
    }

    #[test]
    fn commit_writes_updates_expectations() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 1, 2, 8).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let c = sys.client(0);
        let t = c.begin().unwrap();
        c.write(t, layout.objects[1], &[7u8; 8]).unwrap();
        c.commit(t).unwrap();
        oracle.commit_writes(&[(layout.objects[1], Some(vec![7u8; 8]))]);
        assert!(oracle.verify_via_reads(c).unwrap().is_clean());
    }
}
