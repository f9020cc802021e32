//! The vector-database access benchmark (Figure 18c).
//!
//! "We deploy a vector database on external memory and sequentially,
//! fixedly, and randomly read and write 32-bit vectors to measure the
//! number of vectors processed per second." Each vector access touches one
//! DRAM burst; vectors/second is therefore bounded by the memory system's
//! behaviour under the chosen access mode — which is what the benchmark is
//! designed to expose.

use harmonia_hw::ip::dram::MemOp;
use harmonia_testkit::DetRng;

/// The access modes of Figure 18c.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Uniform random vector indices.
    Random,
    /// A fixed small set of hot vectors.
    Fixed,
    /// Ascending vector indices.
    Sequential,
}

impl AccessMode {
    /// Reporting order used by the figure.
    pub const ALL: [AccessMode; 3] = [
        AccessMode::Random,
        AccessMode::Fixed,
        AccessMode::Sequential,
    ];
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessMode::Random => "random",
            AccessMode::Fixed => "fixed",
            AccessMode::Sequential => "sequential",
        };
        f.write_str(s)
    }
}

/// The vector-database workload.
#[derive(Debug)]
pub struct VectorDbWorkload {
    rng: DetRng,
    /// Number of vectors in the database.
    vectors: u64,
    /// Bytes fetched per vector access (one DRAM burst).
    access_bytes: u32,
    /// Hot-set size for the fixed mode.
    hot_vectors: u64,
}

impl VectorDbWorkload {
    /// Creates a database of `vectors` 32-bit vectors.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is zero.
    pub fn new(seed: u64, vectors: u64) -> Self {
        assert!(vectors > 0, "empty database");
        VectorDbWorkload {
            rng: DetRng::new(seed),
            vectors,
            access_bytes: 64,
            hot_vectors: 1024.min(vectors),
        }
    }

    /// Generates `count` accesses in a mode; `write_ratio` in `[0,1]`
    /// selects the read/write mix.
    ///
    /// # Panics
    ///
    /// Panics if `write_ratio` is outside `[0, 1]`.
    pub fn accesses(&mut self, mode: AccessMode, write_ratio: f64, count: usize) -> Vec<MemOp> {
        assert!(
            (0.0..=1.0).contains(&write_ratio),
            "write ratio must be a fraction"
        );
        let (bytes, stride) = (self.access_bytes, u64::from(self.access_bytes));
        let vectors = self.vectors;
        // Sequential and fixed walk op `i` to index `i % wrap`, counting.
        let wrap = match mode {
            AccessMode::Fixed => self.hot_vectors,
            _ => vectors,
        };
        let mut next = 0;
        (0..count)
            .map(|_| {
                let index = match mode {
                    AccessMode::Random => self.rng.gen_range(0..vectors),
                    AccessMode::Sequential | AccessMode::Fixed => {
                        let index = next;
                        next += 1;
                        if next == wrap {
                            next = 0;
                        }
                        index
                    }
                };
                MemOp {
                    addr: index * stride,
                    bytes,
                    is_write: self.rng.next_f64() < write_ratio,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_walks_the_database() {
        let mut db = VectorDbWorkload::new(1, 1000);
        let ops = db.accesses(AccessMode::Sequential, 0.0, 100);
        assert_eq!(ops[0].addr, 0);
        assert_eq!(ops[99].addr, 99 * 64);
    }

    #[test]
    fn fixed_mode_stays_hot() {
        let mut db = VectorDbWorkload::new(1, 1_000_000);
        let ops = db.accesses(AccessMode::Fixed, 0.0, 10_000);
        assert!(ops.iter().all(|o| o.addr < 1024 * 64));
    }

    #[test]
    fn random_mode_covers_the_footprint() {
        let mut db = VectorDbWorkload::new(1, 1_000_000);
        let ops = db.accesses(AccessMode::Random, 0.0, 10_000);
        let far = ops.iter().filter(|o| o.addr > 500_000 * 64).count();
        assert!(far > 3_000);
    }

    #[test]
    fn write_ratio_mixes() {
        let mut db = VectorDbWorkload::new(1, 1000);
        let ops = db.accesses(AccessMode::Sequential, 0.5, 10_000);
        let writes = ops.iter().filter(|o| o.is_write).count();
        assert!((4_000..6_000).contains(&writes));
        let pure = db.accesses(AccessMode::Sequential, 1.0, 100);
        assert!(pure.iter().all(|o| o.is_write));
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn zero_vectors_rejected() {
        let _ = VectorDbWorkload::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_write_ratio_rejected() {
        let mut db = VectorDbWorkload::new(1, 10);
        let _ = db.accesses(AccessMode::Random, 1.5, 1);
    }
}
