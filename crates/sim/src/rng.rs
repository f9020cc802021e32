//! A tiny deterministic PRNG for simulation-internal jitter.
//!
//! This SplitMix64 is the workspace's single source of randomness: the
//! simulation kernel uses it directly for nondeterministic-looking (but
//! reproducible) arrival jitter, and `harmonia-testkit` builds its
//! distribution helpers (`DetRng`) and property-test case generation on
//! top of it, keeping the whole tree free of external RNG dependencies.

/// SplitMix64 pseudo-random generator.
///
/// ```
/// use harmonia_sim::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic per seed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        self.next_u64() % bound
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl Default for SplitMix64 {
    /// Seeds with a fixed constant — simulations must be reproducible.
    fn default() -> Self {
        SplitMix64::new(0x8A5C_D789_635D_2DFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut r = SplitMix64::new(1);
        let seq: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        let mut r2 = SplitMix64::new(1);
        let seq2: Vec<u64> = (0..3).map(|_| r2.next_u64()).collect();
        assert_eq!(seq, seq2);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn bounded_values_in_range() {
        let mut r = SplitMix64::default();
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::default();
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::default();
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SplitMix64::new(42);
        let mut below_half = 0;
        for _ in 0..10_000 {
            if r.next_f64() < 0.5 {
                below_half += 1;
            }
        }
        assert!((4_500..5_500).contains(&below_half));
    }
}
