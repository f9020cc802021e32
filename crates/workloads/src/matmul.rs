//! The matrix-multiplication compute benchmark (Figure 18b).
//!
//! "Single-precision floating-point matrix calculations for matrices sized
//! 64 × 64 across 1024 iterations, measuring the number of matrix
//! calculations per second." On the FPGA this maps to a DSP systolic
//! pipeline whose throughput scales with the unroll/parallelism factor;
//! the model computes matrices/second from MAC counts, DSP parallelism and
//! clock.

use harmonia_sim::Freq;

/// The Figure 18b workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatMulWorkload {
    n: usize,
}

impl MatMulWorkload {
    /// The paper's configuration: 64 × 64 matrices. The paper's 1024
    /// iterations set how long a measurement runs, not the rate, so the
    /// model does not carry them.
    pub fn paper() -> Self {
        MatMulWorkload { n: 64 }
    }

    /// Multiply-accumulate operations per matrix product.
    pub(crate) fn macs_per_matrix(&self) -> u64 {
        (self.n * self.n * self.n) as u64
    }

    /// Matrices per second on a DSP array with `parallelism` MACs/cycle at
    /// `clock`, with a pipeline efficiency factor for drain/refill between
    /// tiles.
    ///
    /// # Panics
    ///
    /// Panics if `parallelism` is zero.
    pub fn matrices_per_sec(&self, parallelism: u32, clock: Freq) -> f64 {
        assert!(parallelism > 0, "parallelism must be non-zero");
        let macs_per_sec = f64::from(parallelism) * clock.hz() as f64;
        // Tile drain/refill costs a little; deeper unrolls amortize less.
        let efficiency = 0.93 - 0.005 * f64::from(parallelism.ilog2());
        macs_per_sec * efficiency / self.macs_per_matrix() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let w = MatMulWorkload::paper();
        assert_eq!(w.n, 64);
        assert_eq!(w.macs_per_matrix(), 262_144);
    }

    #[test]
    fn throughput_scales_with_parallelism() {
        let w = MatMulWorkload::paper();
        let clk = Freq::mhz(300);
        let x4 = w.matrices_per_sec(4, clk);
        let x8 = w.matrices_per_sec(8, clk);
        let x16 = w.matrices_per_sec(16, clk);
        assert!(x8 > 1.9 * x4 && x8 < 2.0 * x4);
        assert!(x16 > 1.9 * x8 && x16 < 2.0 * x8);
        // Order of magnitude sanity: x16 @300 MHz ≈ 16k matrices/s.
        assert!((15_000.0..20_000.0).contains(&x16), "x16 = {x16:.0}");
    }
}
