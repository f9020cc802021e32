//! Memory-trace generation for the DDR/HBM benchmarks.

use harmonia_hw::ip::dram::MemOp;
use harmonia_testkit::DetRng;
use std::error::Error;
use std::fmt;

/// The access patterns of Figure 10c.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Consecutive addresses.
    Sequential,
    /// Repeated access to a small fixed region.
    Fixed,
    /// Uniform random addresses over the footprint.
    Random,
}

impl AccessPattern {
    /// All patterns, in reporting order.
    pub const ALL: [AccessPattern; 3] = [
        AccessPattern::Random,
        AccessPattern::Fixed,
        AccessPattern::Sequential,
    ];
}

impl std::fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AccessPattern::Sequential => "sequential",
            AccessPattern::Fixed => "fixed",
            AccessPattern::Random => "random",
        };
        f.write_str(s)
    }
}

/// Why [`MemTraceGen::trace`] cannot generate a random trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemTraceError {
    /// Zero-byte ops: the random pattern has no op-aligned address to draw.
    ZeroOpBytes,
    /// The random pattern's footprint holds no whole op.
    FootprintBelowOneOp {
        /// The footprint, in bytes.
        footprint_bytes: u64,
        /// The op size, in bytes.
        op_bytes: u32,
    },
}

impl fmt::Display for MemTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemTraceError::ZeroOpBytes => f.write_str("random trace of zero-byte ops"),
            MemTraceError::FootprintBelowOneOp {
                footprint_bytes,
                op_bytes,
            } => write!(
                f,
                "a {footprint_bytes} B footprint holds no {op_bytes} B op"
            ),
        }
    }
}

impl Error for MemTraceError {}

/// Deterministic memory-trace generator.
///
/// ```
/// use harmonia_workloads::{AccessPattern, MemTraceGen};
/// let ops = MemTraceGen::new(1).trace(AccessPattern::Sequential, false, 64, 100)?;
/// assert_eq!(ops.len(), 100);
/// assert_eq!(ops[1].addr, 64);
/// # Ok::<(), harmonia_workloads::MemTraceError>(())
/// ```
#[derive(Debug)]
pub struct MemTraceGen {
    rng: DetRng,
    /// Total footprint the random pattern spans.
    footprint_bytes: u64,
    /// Size of the fixed pattern's hot region.
    fixed_region_bytes: u64,
}

impl MemTraceGen {
    /// Creates a generator over a 4 GiB footprint with a 64 KiB hot region.
    pub fn new(seed: u64) -> Self {
        MemTraceGen {
            rng: DetRng::new(seed),
            footprint_bytes: 4 << 30,
            fixed_region_bytes: 64 << 10,
        }
    }

    /// Overrides the random-pattern footprint.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[cfg(test)]
    pub(crate) fn with_footprint(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "footprint must be non-zero");
        self.footprint_bytes = bytes;
        self
    }

    /// Generates a trace of `count` operations of `op_bytes` each: the
    /// ops of [`stream`](Self::stream), collected.
    ///
    /// # Errors
    ///
    /// As [`stream`](Self::stream).
    pub fn trace(
        &mut self,
        pattern: AccessPattern,
        write: bool,
        op_bytes: u32,
        count: usize,
    ) -> Result<Vec<MemOp>, MemTraceError> {
        Ok(self.stream(pattern, write, op_bytes, count)?.collect())
    }

    /// Streams a trace of `count` operations of `op_bytes` each, one op
    /// per draw, so a trace replayed once never needs a `Vec`.
    ///
    /// # Errors
    ///
    /// The random pattern draws op-aligned addresses within the footprint,
    /// so it fails with [`MemTraceError::ZeroOpBytes`] when `op_bytes` is
    /// zero and [`MemTraceError::FootprintBelowOneOp`] when the footprint
    /// is smaller than one op. The other patterns never fail.
    #[inline]
    pub fn stream(
        &mut self,
        pattern: AccessPattern,
        write: bool,
        op_bytes: u32,
        count: usize,
    ) -> Result<impl Iterator<Item = MemOp> + '_, MemTraceError> {
        let step = u64::from(op_bytes);
        let slots = match pattern {
            AccessPattern::Random if op_bytes == 0 => return Err(MemTraceError::ZeroOpBytes),
            AccessPattern::Random => match self.footprint_bytes / step {
                0 => {
                    return Err(MemTraceError::FootprintBelowOneOp {
                        footprint_bytes: self.footprint_bytes,
                        op_bytes,
                    })
                }
                slots => slots,
            },
            _ => 0,
        };
        // The fixed pattern's op `i` sits at `(i * step) % region`,
        // advanced by one stride per op.
        let region = self.fixed_region_bytes;
        let stride = step % region;
        let mut offset = 0;
        let rng = &mut self.rng;
        Ok((0..count as u64).map(move |i| {
            let addr = match pattern {
                AccessPattern::Sequential => i * step,
                AccessPattern::Fixed => {
                    let addr = offset;
                    offset += stride;
                    if offset >= region {
                        offset -= region;
                    }
                    addr
                }
                AccessPattern::Random => rng.gen_range(0..slots) * step,
            };
            MemOp {
                addr,
                bytes: op_bytes,
                is_write: write,
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_strided() {
        let ops = MemTraceGen::new(1)
            .trace(AccessPattern::Sequential, false, 128, 10)
            .unwrap();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.addr, i as u64 * 128);
            assert!(!op.is_write);
        }
    }

    #[test]
    fn fixed_stays_in_region() {
        let ops = MemTraceGen::new(1)
            .trace(AccessPattern::Fixed, true, 64, 10_000)
            .unwrap();
        assert!(ops.iter().all(|o| o.addr < 64 << 10));
        assert!(ops.iter().all(|o| o.is_write));
    }

    #[test]
    fn random_spreads_widely() {
        let ops = MemTraceGen::new(1)
            .trace(AccessPattern::Random, false, 64, 5_000)
            .unwrap();
        let above_1g = ops.iter().filter(|o| o.addr > 1 << 30).count();
        assert!(above_1g > 1_000, "random trace not spread: {above_1g}");
        // Aligned to the op size.
        assert!(ops.iter().all(|o| o.addr % 64 == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MemTraceGen::new(9)
            .trace(AccessPattern::Random, false, 64, 100)
            .unwrap();
        let b = MemTraceGen::new(9)
            .trace(AccessPattern::Random, false, 64, 100)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_op_bytes_rejected() {
        let mut gen = MemTraceGen::new(1);
        assert_eq!(
            gen.trace(AccessPattern::Random, false, 0, 10),
            Err(MemTraceError::ZeroOpBytes)
        );
        // Sequential and fixed traces of empty ops stay at address 0.
        for pattern in [AccessPattern::Sequential, AccessPattern::Fixed] {
            let ops = gen.trace(pattern, false, 0, 3).unwrap();
            assert!(ops.iter().all(|o| o.addr == 0 && o.bytes == 0), "{pattern}");
        }
    }

    #[test]
    fn footprint_below_one_op_rejected() {
        let mut gen = MemTraceGen::new(1).with_footprint(63);
        assert_eq!(
            gen.trace(AccessPattern::Random, false, 64, 10),
            Err(MemTraceError::FootprintBelowOneOp {
                footprint_bytes: 63,
                op_bytes: 64
            })
        );
        // A footprint of exactly one op draws address 0 every time.
        let ops = gen.trace(AccessPattern::Random, false, 63, 10).unwrap();
        assert!(ops.iter().all(|o| o.addr == 0));
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_rejected() {
        let _ = MemTraceGen::new(1).with_footprint(0);
    }
}
