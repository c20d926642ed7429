//! Log-linear latency histogram over nanoseconds: 128 linear sub-buckets
//! per power of two, so a reported quantile is within 1/256 (< 0.4 %) of
//! some recorded value's true position. One per driver thread, merged
//! after the burst; nothing here is shared while timing.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^44 ns (almost five hours) keep full resolution.
const MAX_EXP: u32 = 44;
const BUCKETS: usize = SUB * (MAX_EXP - SUB_BITS + 2) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let exp = exp.min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB + if v >> (exp + 1) != 0 { SUB - 1 } else { sub }
}

/// Midpoint of the value range bucket `i` stands for.
fn value_of(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let exp = (i / SUB) as u32 + SUB_BITS - 1;
    let shift = exp - SUB_BITS;
    let low = ((SUB + i % SUB) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Value at quantile `q` in `[0, 1]` (nearest rank); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += *c as u64;
            if seen >= rank {
                return value_of(i);
            }
        }
        value_of(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgen::Prng;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_are_within_one_percent_of_exact() {
        // Latencies spread over five decades, as a burst's are (a cached
        // transaction takes microseconds, a lock wait milliseconds).
        let mut rng = Prng::new(17);
        let mut h = Hist::default();
        let mut all = Vec::new();
        for _ in 0..200_000 {
            let decade = 10u64.pow(2 + (rng.next() % 5) as u32);
            let v = decade + rng.next() % (9 * decade);
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&all, q);
            let got = h.quantile(q);
            let err = (got - exact).abs() / exact;
            assert!(err < 0.01, "q={q}: got {got}, exact {exact}, err {err}");
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn small_values_are_exact_and_huge_ones_saturate() {
        let mut h = Hist::default();
        for v in [0u64, 1, 5, 127] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 0.0);
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(1.0), 127.0);
        h.record(u64::MAX);
        assert!(h.quantile(1.0) > 1e13);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(1_000);
        b.record(9_000);
        b.record(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p = a.quantile(0.5);
        assert!((p - 9_000.0).abs() / 9_000.0 < 0.01);
    }
}
