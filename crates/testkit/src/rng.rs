//! Deterministic RNG distributions on top of [`SplitMix64`].
//!
//! This is the workspace's replacement for the `rand` crate: the workload
//! generators (`harmonia-workloads`) and the bench harness draw from a
//! [`DetRng`], so every generated trace is a pure function of its seed —
//! on every platform, offline, forever. The method names mirror the
//! `rand::Rng` surface the generators previously used (`gen_range`,
//! `gen_bool`) to keep call sites unchanged.

use harmonia_sim::SplitMix64;

/// A seeded deterministic random generator with distribution helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetRng(SplitMix64);

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng(SplitMix64::new(seed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.0.next_f64()
    }

    /// Uniform value in a range (half-open or inclusive; integer or
    /// `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.next_f64() < p
    }

    /// Uniformly chosen element.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.0.next_below(items.len() as u64) as usize]
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.0.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Index drawn with probability proportional to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "need at least one weight");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut u = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        // Float accumulation can leave u at a hair above the final
        // boundary; the last positive weight owns that sliver.
        weights.iter().rposition(|&w| w > 0.0).unwrap()
    }
}

/// Ranges [`DetRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value.
    fn sample(self, rng: &mut DetRng) -> Self::Output;
}

// Every span but the full inclusive `u64` range fits in a `u64`, so the
// remainder is a `u64` one; the full range keeps the raw draw, which is
// what a remainder by 2^64 would give.
macro_rules! int_sample_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange for ::core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl SampleRange for ::core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut DetRng) -> $t {
                assert!(self.start() <= self.end(), "empty range");
                let draw = rng.next_u64();
                let offset = match ((*self.end() - *self.start()) as u64).checked_add(1) {
                    Some(span) => draw % span,
                    None => draw,
                };
                self.start() + offset as $t
            }
        }
    )*};
}

int_sample_ranges!(u8, u16, u32, u64, usize);

impl SampleRange for ::core::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut DetRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let v = self.start + rng.next_f64() * (self.end - self.start);
        // Guard the upper bound against float rounding on huge spans.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    forall! {
        /// `gen_range` samples what the `u128` remainder of the draw by
        /// the span gives, for every integer width and both range kinds:
        /// random bounds, nearby bounds, and the type's full range.
        #[test]
        fn gen_range_matches_u128_remainder(
            seed in any::<u64>(),
            a in any::<u64>(),
            b in any::<u64>(),
            gap in any::<u8>(),
            shape in 0u8..3,
        ) {
            let draw = DetRng::new(seed).next_u64() as u128;
            macro_rules! check {
                ($($t:ty),*) => {$({
                    let x = a as $t;
                    let y = match shape {
                        0 => b as $t,
                        1 => x.saturating_add(gap as $t),
                        _ => <$t>::MAX,
                    };
                    let (lo, hi) = if shape == 2 { (<$t>::MIN, y) } else { (x.min(y), x.max(y)) };
                    let span = hi as u128 - lo as u128;
                    prop_assert_eq!(
                        DetRng::new(seed).gen_range(lo..=hi),
                        lo + (draw % (span + 1)) as $t,
                        "{}: {lo}..={hi}", stringify!($t)
                    );
                    if lo < hi {
                        prop_assert_eq!(
                            DetRng::new(seed).gen_range(lo..hi),
                            lo + (draw % span) as $t,
                            "{}: {lo}..{hi}", stringify!($t)
                        );
                    }
                })*};
            }
            check!(u8, u16, u32, u64, usize);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::new(3);
        let mut b = DetRng::new(3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = DetRng::new(1);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }

    #[test]
    fn weighted_skips_zero_weights() {
        let mut r = DetRng::new(5);
        for _ in 0..500 {
            let i = r.weighted_index(&[0.0, 2.0, 0.0, 1.0]);
            assert!(i == 1 || i == 3);
        }
    }
}
