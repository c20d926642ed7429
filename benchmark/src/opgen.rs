//! The benchmark's own load generator. Frozen: the streams below are part
//! of the benchmark's definition (a test pins their hash), so two commits
//! are always measured on identical inputs. The product never sees the
//! generator or the seed, only the operations.

/// splitmix64: small, fast, and good enough for workload shaping.
#[derive(Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        Prng(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for our n).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next() >> 32) * n as u64) >> 32) as u32
    }

    /// True with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u32) -> bool {
        self.below(1000) < per_mille
    }
}

/// Mix a run seed with stream coordinates into an independent stream seed.
pub fn stream_seed(seed: u64, round: u32, client: u32) -> u64 {
    let mut p = Prng::new(seed ^ 0xF61_BE4C);
    let a = p.next();
    let mut q = Prng::new(a ^ ((round as u64) << 32 | client as u64));
    q.next()
}

pub const OPS_PER_TXN: usize = 8;
pub const OBJECTS_PER_PAGE: u32 = 16;
pub const OBJECT_BYTES: usize = 64;

/// How a client picks the page of an access (Carey, Franklin &
/// Zaharioudakis's shapes, which the paper takes its workload assumptions
/// from).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Every access in the client's own region: no sharing.
    Private,
    /// 80 % in the own region, the rest uniform over the whole database.
    HotCold,
}

/// What a client draws its transactions from.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    pub shape: Shape,
    pub pages: u32,
    pub clients: u32,
    /// Share of operations that write, per mille.
    pub write_per_mille: u32,
}

/// One operation: the object's index in the database (`page * 16 + slot`)
/// and whether it is a same-size overwrite or a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub object: u32,
    pub write: bool,
}

pub type Txn = [Op; OPS_PER_TXN];

/// The transaction stream of one client in one round.
pub struct OpGen {
    spec: LoadSpec,
    client: u32,
    rng: Prng,
}

impl OpGen {
    pub fn new(spec: LoadSpec, seed: u64, round: u32, client: u32) -> OpGen {
        OpGen {
            spec,
            client,
            rng: Prng::new(stream_seed(seed, round, client)),
        }
    }

    pub fn next_txn(&mut self) -> Txn {
        let region = self.spec.pages / self.spec.clients;
        let own = self.client * region;
        std::array::from_fn(|_| {
            let write = self.rng.chance(self.spec.write_per_mille);
            let page = match self.spec.shape {
                Shape::Private => own + self.rng.below(region),
                Shape::HotCold => {
                    if self.rng.chance(800) {
                        own + self.rng.below(region)
                    } else {
                        self.rng.below(self.spec.pages)
                    }
                }
            };
            let slot = self.rng.below(OBJECTS_PER_PAGE);
            Op {
                object: page * OBJECTS_PER_PAGE + slot,
                write,
            }
        })
    }
}

/// The bytes of an object after the write stamped `stamp` (0 = as loaded).
/// The oracle keeps only the stamp; a read-back regenerates the bytes.
pub fn object_bytes(object: u32, stamp: u64) -> [u8; OBJECT_BYTES] {
    let mut p = Prng::new(((object as u64) << 40) ^ stamp ^ 0x0B1E_C7ED);
    let mut out = [0u8; OBJECT_BYTES];
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&p.next().to_le_bytes());
    }
    out
}

/// FNV-1a over the first `txns` transactions of one client's stream.
#[cfg(test)]
pub fn stream_hash(spec: LoadSpec, seed: u64, client: u32, txns: usize) -> u64 {
    let mut g = OpGen::new(spec, seed, 0, client);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..txns {
        for op in g.next_txn() {
            for b in (op.object << 1 | op.write as u32).to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_stays_in_own_region_and_hotcold_spills() {
        let mut spec = LoadSpec {
            shape: Shape::Private,
            pages: 64,
            clients: 2,
            write_per_mille: 300,
        };
        let mut g = OpGen::new(spec, 1, 0, 1);
        let mut writes = 0;
        for _ in 0..2_000 {
            for op in g.next_txn() {
                let page = op.object / OBJECTS_PER_PAGE;
                assert!((32..64).contains(&page));
                writes += op.write as u32;
            }
        }
        // 30 % of 16 000 operations, within sampling noise.
        assert!((4_400..5_200).contains(&writes), "{writes}");

        spec.shape = Shape::HotCold;
        let mut g = OpGen::new(spec, 1, 0, 1);
        let mut foreign = 0;
        for _ in 0..2_000 {
            for op in g.next_txn() {
                foreign += (op.object / OBJECTS_PER_PAGE < 32) as u32;
            }
        }
        // 20 % roam the whole database, half of which is foreign.
        assert!((1_300..1_900).contains(&foreign), "{foreign}");
    }

    #[test]
    fn same_seed_same_stream_other_round_other_stream() {
        let spec = LoadSpec {
            shape: Shape::HotCold,
            pages: 64,
            clients: 2,
            write_per_mille: 300,
        };
        let a: Vec<Txn> = {
            let mut g = OpGen::new(spec, 9, 3, 0);
            (0..50).map(|_| g.next_txn()).collect()
        };
        let mut g = OpGen::new(spec, 9, 3, 0);
        assert!(a.iter().all(|t| *t == g.next_txn()));
        let mut other = OpGen::new(spec, 9, 4, 0);
        assert!(a.iter().any(|t| *t != other.next_txn()));
    }

    #[test]
    fn object_bytes_depend_on_object_and_stamp() {
        assert_eq!(object_bytes(5, 7), object_bytes(5, 7));
        assert_ne!(object_bytes(5, 7), object_bytes(5, 8));
        assert_ne!(object_bytes(5, 7), object_bytes(6, 7));
    }
}
