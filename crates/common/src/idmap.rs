//! Hash tables keyed by the system's own identifiers.
//!
//! `PageId`, `ObjectId` and `TxnId` are small integers this process minted
//! or already validated, so the keyed SipHash behind `std`'s default
//! `RandomState` buys nothing for them and costs most of a look-up.
//! [`IdMap`]/[`IdSet`] hash with one multiply per word instead. Tables
//! whose keys arrive raw from the wire (the GLM's page table and the DCT)
//! keep the default hasher: a fixed hash lets a peer craft colliding keys.
//! The GLM's per-page tables do not hash at all: they are sorted vectors.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` over [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher for integer ids (the `rustc-hash` construction).
///
/// Each word is folded in with a rotate, an xor and one odd multiply; the
/// product's *high* bits depend on every input bit, so `finish` rotates
/// them down to where the table takes its bucket index. Without that
/// rotation, keys that differ only above bit `k` (page ids of stride 2^k)
/// would share their low `k` hash bits and pile into one bucket.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    /// Ids hash through the integer methods below; this is the trait's
    /// catch-all for anything else.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ObjectId, PageId, SlotId, TxnId};
    use std::hash::{BuildHasher, Hash};
    use std::time::{Duration, Instant};

    const N: usize = 1 << 20;

    /// Lay `keys` out the way `hashbrown` does — `2 * N` buckets in groups
    /// of 16, a key starting at the group its low hash bits name — and
    /// return the mean number of groups a look-up visits: a key whose home
    /// group is full spills into the next one, as in the real table.
    fn mean_probes<Kk: Hash>(keys: impl Iterator<Item = Kk>) -> f64 {
        const GROUP: usize = 16;
        let groups = 2 * N / GROUP;
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut load = vec![0usize; groups];
        let mut n = 0usize;
        let mut probes = 0usize;
        for k in keys {
            let mut g = (build.hash_one(&k) as usize / GROUP) % groups;
            let mut visited = 1;
            while load[g] == GROUP {
                g = (g + 1) % groups;
                visited += 1;
                if visited > 64 {
                    return f64::INFINITY; // degenerate: stop before it turns quadratic
                }
            }
            load[g] += 1;
            probes += visited;
            n += 1;
        }
        probes as f64 / n as f64
    }

    fn strides() -> [u64; 5] {
        [1, 16, 1 << 12, 1 << 20, 1 << 32]
    }

    #[test]
    fn page_ids_probe_once_at_every_stride() {
        for stride in strides() {
            let p = mean_probes((0..N as u64).map(|i| PageId(i.wrapping_mul(stride))));
            assert!(p < 1.1, "PageId stride {stride}: {p:.3} groups per look-up");
        }
    }

    #[test]
    fn object_ids_probe_once_at_every_stride() {
        for stride in strides() {
            // 16 slots on each of N/16 pages, pages `stride` apart.
            let p = mean_probes((0..N as u64).map(|i| {
                ObjectId::new(
                    PageId((i / 16).wrapping_mul(stride)),
                    SlotId((i % 16) as u16),
                )
            }));
            assert!(
                p < 1.1,
                "ObjectId stride {stride}: {p:.3} groups per look-up"
            );
        }
    }

    #[test]
    fn txn_ids_probe_once_per_client_and_across_clients() {
        // One client's sequence numbers, then the same few sequence
        // numbers across many clients (ids 2^32 apart).
        let p = mean_probes((0..N as u32).map(|i| TxnId::compose(ClientId(3), i)));
        assert!(p < 1.1, "TxnId by sequence: {p:.3}");
        let p = mean_probes((0..N as u32).map(|i| TxnId::compose(ClientId(i / 4), i % 4)));
        assert!(p < 1.1, "TxnId by client: {p:.3}");
    }

    /// The real table, as a backstop for the model above: a degenerate
    /// hash makes a million inserts quadratic, which no machine finishes
    /// inside the bound (checked as it goes, so the failure is a message
    /// and not a hung suite).
    #[test]
    fn a_million_keys_insert_and_look_up_in_bounded_time() {
        let start = Instant::now();
        for stride in [1u64, 16, 1 << 20] {
            let mut m: IdMap<PageId, u64> = IdMap::default();
            for i in 0..N as u64 {
                m.insert(PageId(i.wrapping_mul(stride)), i);
                if i % (1 << 14) == 0 {
                    let spent = start.elapsed();
                    assert!(
                        spent < Duration::from_secs(30),
                        "stride {stride}: {i} inserts in {spent:?}"
                    );
                }
            }
            assert_eq!(m.len(), N);
            for i in (0..N as u64).step_by(7) {
                assert_eq!(m.get(&PageId(i.wrapping_mul(stride))), Some(&i));
            }
        }
    }
}
