//! The host-speed yardstick: a fixed piece of single-thread reference work
//! whose thread-CPU time says how fast this (shared, virtual) host is
//! running right now. CPU-paced timings are divided by
//! `reading / YARD_NOMINAL_NS`, which takes out the minute-long 1.3-1.5x
//! slowdowns the host shows with no steal time to account for them.
//!
//! Frozen after the PR that introduced it: the mix, the iteration counts
//! and the nominal reading are part of the benchmark's definition (a test
//! pins the checksum and the counts). The mix is what the product's hot
//! path is made of in small: dependent integer arithmetic, clock reads,
//! trips through the kernel, an uncontended mutex and small allocations.
//! Two thirds of a reading are the kernel trips: measured side by side
//! with the CPU-paced workloads, they are the part that slows as much as
//! the product does when the host slows (slope 1.0; the arithmetic alone
//! slows a third less), see the README's yardstick study. `sched_yield`,
//! which the issue proposed as the trip, is not used: called between the
//! transactions of two threads on one CPU it changes who runs when, and
//! `hotcold_share` dropped from 8 messages per commit to 4. Big tables
//! and bulk copies are absent too: their timing wanders by 6-9 % on a
//! quiet host and would add noise of their own.

use crate::sys;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

pub const ALU_ITERS: u32 = 80_000;
pub const CLOCK_READS: u32 = 3_000;
pub const KERNEL_TRIPS: u32 = 4_000;
pub const MUTEX_LOCKS: u32 = 8_000;
pub const ALLOCS: u32 = 6_000;
pub const PARTS: usize = 5;
pub const PART_NAMES: [&str; PARTS] = ["alu", "clock", "kernel", "mutex", "alloc"];

/// Thread-CPU nanoseconds of one reading taken between the transactions
/// of `private_commit` while this host is quiet. Only a unit choice: it
/// makes corrected numbers read like ordinary ones.
pub const YARD_NOMINAL_NS: f64 = 1_250_000.0;

/// Checksum every reading must produce (the work is deterministic).
pub const CHECKSUM: u64 = 4910681778321567748;

#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    /// Thread-CPU nanoseconds of the whole mix.
    pub ns: u64,
    /// Thread-CPU nanoseconds per part, in `PART_NAMES` order.
    pub parts: [u64; PARTS],
    pub checksum: u64,
}

fn alu_chain(iters: u32, seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

/// Do the reference work once and time it.
pub fn read() -> Reading {
    let mut r = Reading::default();
    let mut sum = 0x5EED_u64;
    let start = sys::thread_cpu_ns();
    let mut mark = start;
    let mut lap = |slot: &mut u64| {
        let now = sys::thread_cpu_ns();
        *slot = now - mark;
        mark = now;
    };

    sum = alu_chain(black_box(ALU_ITERS), sum);
    lap(&mut r.parts[0]);

    for _ in 0..CLOCK_READS {
        black_box(Instant::now());
    }
    lap(&mut r.parts[1]);

    for _ in 0..KERNEL_TRIPS {
        black_box(sys::thread_cpu_ns());
    }
    lap(&mut r.parts[2]);

    let cell = Mutex::new(sum);
    for i in 0..MUTEX_LOCKS {
        let mut g = black_box(&cell).lock().unwrap_or_else(|e| e.into_inner());
        *g = g.rotate_left(7) ^ i as u64;
    }
    sum = cell.into_inner().unwrap_or_else(|e| e.into_inner());
    lap(&mut r.parts[3]);

    for i in 0..ALLOCS {
        // Sizes of a log record, a lock-table entry and a small message.
        let len = 24 + (i as usize * 40) % 232;
        let mut v = black_box(vec![i as u8; len]);
        v[len / 2] ^= sum as u8;
        sum = sum.rotate_left(5) ^ v[len / 2] as u64 ^ len as u64;
    }
    lap(&mut r.parts[4]);

    r.ns = mark - start;
    r.checksum = sum;
    r
}

/// Host-speed factor of a set of readings: their median over the nominal.
/// Above 1 the host is slower than nominal. 1.0 when there are none.
pub fn factor(readings: &[u64]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    let mut v = readings.to_vec();
    v.sort_unstable();
    v[v.len() / 2] as f64 / YARD_NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_frozen() {
        assert_eq!(
            (ALU_ITERS, CLOCK_READS, KERNEL_TRIPS, MUTEX_LOCKS, ALLOCS),
            (80_000, 3_000, 4_000, 8_000, 6_000)
        );
        let a = read();
        let b = read();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, CHECKSUM, "yardstick work changed");
        assert!(a.ns > 0 && a.parts.iter().sum::<u64>() == a.ns);
    }

    #[test]
    fn factor_is_median_over_nominal() {
        assert_eq!(factor(&[]), 1.0);
        let n = YARD_NOMINAL_NS as u64;
        assert_eq!(factor(&[n * 3, n, n * 2]), 2.0);
    }
}
