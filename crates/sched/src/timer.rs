//! A hashed timing wheel.
//!
//! Deadlines are rounded **up** to a tick boundary and hashed into a
//! fixed ring of slots; entries whose deadline lies more than one
//! rotation ahead simply stay in their slot until the wheel's cursor has
//! advanced far enough (each entry carries its absolute tick, so a slot
//! visit only fires the entries that are actually due). `advance` fires
//! everything due at or before `now`, in deadline order, so waiters with
//! coalesced deadlines wake together in one pass.
//!
//! The wheel never fires early: an entry for deadline `d` is rounded up
//! to tick `t`, and `advance(now)` only reaches `t` once
//! `now >= origin + t·tick >= d`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Entries actually fired by [`TimerWheel::advance`].
pub(crate) static TIMER_FIRES: AtomicU64 = AtomicU64::new(0);

struct Entry<T> {
    at_tick: u64,
    id: u64,
    item: T,
}

/// Fixed-size hashed timing wheel holding items of type `T`.
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    tick: Duration,
    origin: Instant,
    /// First tick not yet fired.
    cur_tick: u64,
    next_id: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// Wheel with the default ring size (256 slots).
    pub fn new(tick: Duration) -> Self {
        Self::with_slots(tick, 256)
    }

    pub fn with_slots(tick: Duration, n_slots: usize) -> Self {
        assert!(!tick.is_zero(), "tick must be non-zero");
        assert!(n_slots > 0, "need at least one slot");
        TimerWheel {
            slots: (0..n_slots).map(|_| Vec::new()).collect(),
            tick,
            origin: Instant::now(),
            cur_tick: 0,
            next_id: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick_for(&self, deadline: Instant) -> u64 {
        let since = deadline.saturating_duration_since(self.origin);
        let tick_ns = self.tick.as_nanos();
        let at = since.as_nanos().div_ceil(tick_ns) as u64;
        at.max(self.cur_tick)
    }

    /// Register `item` to fire once `now` reaches `deadline`. Returns an
    /// id usable with [`TimerWheel::cancel`].
    pub fn insert(&mut self, deadline: Instant, item: T) -> u64 {
        let at_tick = self.tick_for(deadline);
        let id = self.next_id;
        self.next_id += 1;
        let slot = (at_tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { at_tick, id, item });
        self.len += 1;
        id
    }

    /// Remove a pending entry. Returns `true` if it was still pending.
    pub fn cancel(&mut self, id: u64) -> bool {
        for slot in &mut self.slots {
            if let Some(pos) = slot.iter().position(|e| e.id == id) {
                slot.swap_remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Fire every entry due at or before `now`, in deadline order
    /// (insertion order within one coalesced tick).
    pub fn advance(&mut self, now: Instant) -> Vec<T> {
        if self.len == 0 {
            // Keep the cursor moving so a later insert near `now` lands
            // at the right tick without a catch-up scan.
            let target =
                now.saturating_duration_since(self.origin).as_nanos() / self.tick.as_nanos();
            self.cur_tick = self.cur_tick.max(target as u64 + 1);
            return Vec::new();
        }
        let target =
            (now.saturating_duration_since(self.origin).as_nanos() / self.tick.as_nanos()) as u64;
        if target < self.cur_tick {
            return Vec::new();
        }
        let n_slots = self.slots.len() as u64;
        let mut fired: Vec<Entry<T>> = Vec::new();
        // When the span covers a whole rotation, every slot is visited
        // once; otherwise only the slots the cursor passes over.
        let span = (target - self.cur_tick + 1).min(n_slots);
        for i in 0..span {
            let slot = ((self.cur_tick + i) % n_slots) as usize;
            let v = &mut self.slots[slot];
            let mut j = 0;
            while j < v.len() {
                if v[j].at_tick <= target {
                    fired.push(v.swap_remove(j));
                } else {
                    j += 1;
                }
            }
        }
        TIMER_FIRES.fetch_add(fired.len() as u64, Ordering::Relaxed);
        self.len -= fired.len();
        self.cur_tick = target + 1;
        fired.sort_by_key(|e| (e.at_tick, e.id));
        fired.into_iter().map(|e| e.item).collect()
    }

    /// Earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut min: Option<u64> = None;
        for slot in &self.slots {
            for e in slot {
                min = Some(min.map_or(e.at_tick, |m: u64| m.min(e.at_tick)));
            }
        }
        min.map(|t| {
            self.origin + Duration::from_nanos((self.tick.as_nanos() as u64).saturating_mul(t))
        })
    }

    /// Drop all pending entries.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::with_slots(ms(1), 8);
        let now = Instant::now();
        w.insert(now + ms(30), "c");
        w.insert(now + ms(10), "a");
        w.insert(now + ms(20), "b");
        let fired = w.advance(now + ms(40));
        assert_eq!(fired, vec!["a", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn does_not_fire_early() {
        let mut w = TimerWheel::new(ms(1));
        let now = Instant::now();
        w.insert(now + ms(50), ());
        assert!(w.advance(now + ms(10)).is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w.advance(now + ms(60)).len(), 1);
    }

    #[test]
    fn coalesced_deadlines_fire_together() {
        let mut w = TimerWheel::new(ms(1));
        let now = Instant::now();
        // Same tick: all three land in one slot at one tick.
        w.insert(now + ms(10), 1);
        w.insert(now + ms(10), 2);
        w.insert(now + ms(10), 3);
        let fired = w.advance(now + ms(12));
        assert_eq!(fired, vec![1, 2, 3], "one advance fires the whole tick");
        assert!(w.is_empty());
    }

    #[test]
    fn cancellation_removes_pending_entry() {
        let mut w = TimerWheel::new(ms(1));
        let now = Instant::now();
        let a = w.insert(now + ms(10), "a");
        let b = w.insert(now + ms(10), "b");
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel is a no-op");
        let fired = w.advance(now + ms(20));
        assert_eq!(fired, vec!["b"]);
        assert!(!w.cancel(b), "fired entries cannot be cancelled");
    }

    #[test]
    fn entries_beyond_one_rotation_wait_for_their_turn() {
        // 4 slots × 1ms tick: a 2ms and a 6ms deadline share slot 2.
        let mut w = TimerWheel::with_slots(ms(1), 4);
        let now = Instant::now();
        w.insert(now + ms(2), "near");
        w.insert(now + ms(6), "far");
        let fired = w.advance(now + ms(3));
        assert_eq!(fired, vec!["near"], "far entry must not fire a lap early");
        assert_eq!(w.advance(now + ms(7)), vec!["far"]);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut w = TimerWheel::new(ms(1));
        let now = Instant::now();
        assert!(w.next_deadline().is_none());
        w.insert(now + ms(30), ());
        w.insert(now + ms(10), ());
        let nd = w.next_deadline().unwrap();
        assert!(nd >= now + ms(10) && nd <= now + ms(12));
        w.advance(now + ms(15));
        let nd = w.next_deadline().unwrap();
        assert!(nd >= now + ms(30));
    }

    #[test]
    fn clear_empties_the_wheel() {
        let mut w = TimerWheel::new(ms(1));
        let now = Instant::now();
        w.insert(now + ms(5), ());
        w.insert(now + ms(500), ());
        w.clear();
        assert!(w.is_empty());
        assert!(w.advance(now + ms(600)).is_empty());
    }
}
