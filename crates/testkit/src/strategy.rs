//! Value strategies: how a property's inputs are generated from a
//! [`DataSource`].
//!
//! The surface deliberately mirrors the subset of `proptest` this
//! workspace used — `any::<T>()`, integer ranges, tuples, `Just`,
//! `prop_map`, `prop_oneof!`, `collection::vec`, `option::of` — so the
//! property suites migrated with mechanical edits. Shrinking is not
//! implemented per-strategy: the runner shrinks the underlying draw tape
//! (see [`crate::shrink`]), which covers every combinator uniformly.

use crate::source::DataSource;

/// A generator of test-case values.
///
/// Object-safe: combinators live on [`StrategyExt`].
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produces one value from the draw stream.
    fn generate(&self, src: &mut DataSource) -> Self::Value;
}

/// Combinators for every sized strategy.
pub trait StrategyExt: Strategy + Sized {
    /// Maps generated values through `f` (shrinks via the source tape).
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Type-erases the strategy for heterogeneous collections.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Strategy + Sized> StrategyExt for S {}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, src: &mut DataSource) -> T {
        (**self).generate(src)
    }
}

impl<S: Strategy> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, src: &mut DataSource) -> S::Value {
        (**self).generate(src)
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _src: &mut DataSource) -> T {
        self.0.clone()
    }
}

/// See [`StrategyExt::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, src: &mut DataSource) -> T {
        (self.f)(self.inner.generate(src))
    }
}

/// Uniform choice between alternative strategies of one value type.
///
/// Built by [`prop_oneof!`](crate::prop_oneof); the arm index is drawn
/// first, so tape shrinking biases toward earlier arms.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, src: &mut DataSource) -> T {
        let i = src.draw_below(self.arms.len() as u64) as usize;
        self.arms[i].generate(src)
    }
}

macro_rules! uint_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for ::core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, src: &mut DataSource) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                let off = (src.draw() as u128) % span;
                self.start + off as $t
            }
        }

        impl Strategy for ::core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, src: &mut DataSource) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as u128) - (*self.start() as u128) + 1;
                let off = (src.draw() as u128) % span;
                self.start() + off as $t
            }
        }
    )*};
}

uint_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategies {
    ($(($($n:ident),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, src: &mut DataSource) -> Self::Value {
                let ($($n,)+) = self;
                ($($n.generate(src),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Full-domain strategies for primitives, used by [`any()`](arbitrary::any).
pub mod arbitrary {
    use super::*;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// The strategy [`any`] returns.
        type Strategy: Strategy<Value = Self>;
        /// The canonical strategy over the whole domain.
        fn arbitrary() -> Self::Strategy;
    }

    /// The full domain of a primitive integer (or `bool`).
    #[derive(Debug, Clone, Copy)]
    pub struct FullDomain<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T> Default for FullDomain<T> {
        fn default() -> Self {
            FullDomain {
                _marker: core::marker::PhantomData,
            }
        }
    }

    macro_rules! arbitrary_uints {
        ($($t:ty),*) => {$(
            impl Strategy for FullDomain<$t> {
                type Value = $t;
                fn generate(&self, src: &mut DataSource) -> $t {
                    src.draw() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = FullDomain<$t>;
                fn arbitrary() -> Self::Strategy {
                    FullDomain::default()
                }
            }
        )*};
    }

    arbitrary_uints!(u8, u16, u32, u64, usize);

    impl Strategy for FullDomain<bool> {
        type Value = bool;
        fn generate(&self, src: &mut DataSource) -> bool {
            src.draw() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = FullDomain<bool>;
        fn arbitrary() -> Self::Strategy {
            FullDomain::default()
        }
    }

    /// The canonical full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Length bounds for [`fn@vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<::core::ops::Range<usize>> for SizeRange {
        fn from(r: ::core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<::core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: ::core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, src: &mut DataSource) -> Vec<S::Value> {
            // Length is a single leading draw so the shrinker can cut the
            // collection down independently of the element draws.
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + src.draw_below(span) as usize;
            (0..len).map(|_| self.element.generate(src)).collect()
        }
    }

    /// A `Vec` of `element` values with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Optional-value strategies.
pub mod option {
    use super::*;

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, src: &mut DataSource) -> Option<S::Value> {
            // `None` on even draws: shrinking a draw toward zero prefers
            // the absent case, the conventional minimum.
            if src.draw().is_multiple_of(2) {
                None
            } else {
                Some(self.inner.generate(src))
            }
        }
    }

    /// `Some` of the inner strategy half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::arbitrary::any;
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut src = DataSource::live(3);
        for _ in 0..2000 {
            let v = (10u32..20).generate(&mut src);
            assert!((10..20).contains(&v));
            let w = (5u8..=7).generate(&mut src);
            assert!((5..=7).contains(&w));
        }
    }

    #[test]
    fn full_u64_range_is_valid() {
        let mut src = DataSource::live(4);
        let _ = (0u64..u64::MAX).generate(&mut src);
        let _ = (0u64..=u64::MAX).generate(&mut src);
    }

    #[test]
    fn map_and_tuple_compose() {
        let s = (1u32..5, any::<bool>()).prop_map(|(n, b)| if b { n * 2 } else { n });
        let mut src = DataSource::live(5);
        for _ in 0..500 {
            let v = s.generate(&mut src);
            assert!((1..10).contains(&v));
        }
    }

    #[test]
    fn vec_lengths_in_bounds() {
        let s = collection::vec(0u32..100, 2..6);
        let mut src = DataSource::live(6);
        for _ in 0..500 {
            let v = s.generate(&mut src);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn union_picks_every_arm() {
        let s = Union::new(vec![
            Just(1u8).boxed(),
            Just(2u8).boxed(),
            Just(3u8).boxed(),
        ]);
        let mut src = DataSource::live(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut src) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    #[test]
    fn option_of_yields_both_cases() {
        let s = option::of(0u32..10);
        let mut src = DataSource::live(8);
        let vals: Vec<Option<u32>> = (0..100).map(|_| s.generate(&mut src)).collect();
        assert!(vals.iter().any(Option::is_some));
        assert!(vals.iter().any(Option::is_none));
    }
}
