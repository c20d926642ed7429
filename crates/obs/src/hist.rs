//! Atomic log2-bucket latency histograms.
//!
//! Values (microseconds by convention) are counted into power-of-two
//! buckets: bucket 0 holds the value `0`, bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i - 1]`. Recording is two relaxed `fetch_add`s (the
//! bucket and the sum) plus a relaxed load of the maximum, raised with a
//! `fetch_max` only when the value exceeds it; the count is not stored
//! but summed from the buckets at snapshot time. So a record is safe and
//! cheap from any number of threads.
//! Quantiles are estimated by rank walk with linear interpolation inside
//! the bucket, clamped to the observed maximum — deterministic for a
//! given multiset of recorded values.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (bucket 63 absorbs everything ≥ 2^62).
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a value.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive `[low, high]` value range of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        i if i >= HIST_BUCKETS - 1 => (1u64 << (HIST_BUCKETS - 2), u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A concurrent log2-bucket histogram. There is no count field: the
/// count is the buckets' sum, so a record touches one atomic fewer.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation: two read-modify-writes, plus a third
    /// only while the maximum is still rising. A stale load can only make
    /// the `fetch_max` run needlessly, never skip a larger value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable histogram snapshot with quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Estimated value at quantile `p` in `[0, 100]`: walk buckets to the
    /// rank, interpolate linearly inside the bucket, clamp to the
    /// observed max.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let hi = hi.min(self.max);
                let within = (rank - cum) as f64 / n as f64;
                let est = lo as f64 + within * (hi.saturating_sub(lo)) as f64;
                return (est as u64).min(self.max);
            }
            cum += n;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(99.0)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise difference for an interval measurement. The maximum is
    /// carried over from `self` (a max cannot be un-observed; for
    /// interval quantiles it is only used as a clamp).
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            ..Default::default()
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(11), (1024, 2047));
    }

    #[test]
    fn quantiles_bound_and_order() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 100, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 10_000);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
        assert_eq!(s.quantile(100.0), 10_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Mix of buckets, deterministic per thread.
                        h.record((t * PER_THREAD + i) % 4096);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD);
        assert_eq!(s.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        // The threads collectively record v % 4096 for v in 0..80000, so
        // the sum and max are exact regardless of interleaving.
        let expected_sum: u64 = (0..THREADS * PER_THREAD).map(|v| v % 4096).sum();
        assert_eq!(s.sum, expected_sum);
        assert_eq!(s.max, 4095);
    }

    #[test]
    fn single_value_quantiles_hit_it() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(500);
        }
        let s = h.snapshot();
        // All mass in one bucket clamped by max = exact value at the top.
        assert!(s.p50() >= 256 && s.p50() <= 500, "p50={}", s.p50());
        assert_eq!(s.quantile(100.0), 500);
    }
}
