//! Workload generators for the Harmonia evaluation.
//!
//! Deterministic (seeded) generators for every traffic type the paper's
//! benchmarks exercise:
//!
//! * [`packet`] — network packet streams (fixed-size sweeps, IMIX, flow
//!   mixes) for the BITW applications and MAC micro-benchmarks;
//! * [`memtrace`] — memory traces (sequential / fixed / random, read /
//!   write) for the DDR/HBM micro-benchmarks;
//! * [`matmul`] — the 64×64 single-precision matrix-multiplication compute
//!   benchmark (Figure 18b);
//! * [`vectordb`] — the vector-database access benchmark (Figure 18c);
//! * [`tcp`] — the TCP transmission benchmark (Figure 18d).

pub mod matmul;
pub mod memtrace;
pub mod packet;
pub mod tcp;
pub mod vectordb;

pub use matmul::MatMulWorkload;
pub use memtrace::{AccessPattern, MemTraceError, MemTraceGen};
pub use packet::{PacketGen, WorkloadPacket};
pub use tcp::TcpWorkload;
pub use vectordb::{AccessMode, VectorDbWorkload};

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::ip::dram::MemOp;
    use harmonia_testkit::prelude::*;
    use harmonia_testkit::DetRng;

    /// `MemTraceGen::trace` as it was: a modulo per fixed op and a
    /// division per random op.
    fn memtrace_modulo_loop(
        rng: &mut DetRng,
        footprint_bytes: u64,
        pattern: AccessPattern,
        write: bool,
        op_bytes: u32,
        count: usize,
    ) -> Vec<MemOp> {
        let step = u64::from(op_bytes);
        (0..count as u64)
            .map(|i| {
                let addr = match pattern {
                    AccessPattern::Sequential => i * step,
                    AccessPattern::Fixed => (i * step) % (64 << 10),
                    AccessPattern::Random => rng.gen_range(0..footprint_bytes / step) * step,
                };
                if write {
                    MemOp::write(addr, op_bytes)
                } else {
                    MemOp::read(addr, op_bytes)
                }
            })
            .collect()
    }

    /// `VectorDbWorkload::accesses` as it was: a modulo per sequential or
    /// fixed op and a checked Bernoulli draw per op.
    fn vectordb_modulo_loop(
        rng: &mut DetRng,
        vectors: u64,
        mode: AccessMode,
        write_ratio: f64,
        count: usize,
    ) -> Vec<MemOp> {
        let hot_vectors = 1024.min(vectors);
        (0..count as u64)
            .map(|i| {
                let index = match mode {
                    AccessMode::Sequential => i % vectors,
                    AccessMode::Fixed => i % hot_vectors,
                    AccessMode::Random => rng.gen_range(0..vectors),
                };
                if rng.gen_bool(write_ratio) {
                    MemOp::write(index * 64, 64)
                } else {
                    MemOp::read(index * 64, 64)
                }
            })
            .collect()
    }

    forall! {
        /// Both generators give, call after call, exactly the traces of
        /// their modulo loops: op sizes that are not powers of two (and 0,
        /// which only the random pattern rejects),
        /// footprints and databases that are and are not, counts past the
        /// fixed region's and the database's wrap, and write ratios of 0,
        /// 1 and in between.
        #[test]
        fn traces_match_the_modulo_loops(
            seed in any::<u64>(),
            op_bytes in prop_oneof![Just(48u32), Just(96), Just(100), Just(64), Just(0), 1u32..=8192],
            footprint in prop_oneof![(6u32..40).prop_map(|k| 1u64 << k), 1u64..(1 << 40)],
            vectors in prop_oneof![1u64..3000, Just(1 << 20), Just(4_000_000)],
            patterns in collection::vec((0usize..3, any::<bool>(), 0usize..3000), 1..3),
            ratio in prop_oneof![Just(0u32), Just(1000), 0u32..=1000],
        ) {
            let mut gen = MemTraceGen::new(seed).with_footprint(footprint);
            let mut db = VectorDbWorkload::new(seed, vectors);
            let (mut gen_rng, mut db_rng) = (DetRng::new(seed), DetRng::new(seed));
            let write_ratio = f64::from(ratio) / 1000.0;
            for (which, write, count) in patterns {
                let pattern = AccessPattern::ALL[which];
                // The random pattern rejects what its modulo loop would
                // divide by zero on or draw from an empty range for.
                let degenerate = op_bytes == 0 || footprint < u64::from(op_bytes);
                if pattern == AccessPattern::Random && degenerate {
                    prop_assert!(gen.trace(pattern, write, op_bytes, count).is_err());
                } else {
                    prop_assert_eq!(
                        gen.trace(pattern, write, op_bytes, count).unwrap(),
                        memtrace_modulo_loop(&mut gen_rng, footprint, pattern, write, op_bytes, count),
                        "{pattern}, {count} ops of {op_bytes} B"
                    );
                }
                let mode = AccessMode::ALL[which];
                prop_assert_eq!(
                    db.accesses(mode, write_ratio, count),
                    vectordb_modulo_loop(&mut db_rng, vectors, mode, write_ratio, count),
                    "{mode}, {count} ops over {vectors} vectors"
                );
            }
        }
    }
}
