//! # harmonia-testkit
//!
//! The hermetic, first-party test substrate for the Harmonia workspace.
//! Everything the repo needs to verify itself — property-based testing,
//! deterministic random distributions, and benchmark timing — lives
//! here, with **zero external dependencies**, so
//! `cargo build --release && cargo test -q` and `cargo bench` run with
//! an empty crates.io registry.
//!
//! Three pieces:
//!
//! - **Property testing** ([`forall!`], [`strategy`], [`runner`],
//!   [`shrink`]): seeded case generation with integrated shrinking.
//!   Every strategy draws through a recorded tape ([`source`]); a
//!   failure shrinks the *tape*, not the value, so `prop_map` and
//!   `prop_oneof!` shrink for free. Minimal counterexamples persist to
//!   `tests/regressions/<property>.tape` and replay before fresh cases.
//! - **Deterministic RNG** ([`rng::DetRng`]): uniform range and
//!   Bernoulli draws on [`harmonia_sim::SplitMix64`], replacing the
//!   `rand` crate in the workload generators.
//! - **Timing** ([`mod@bench`]): one warmup + calibrated-batch sampling
//!   loop ([`bench::measure`]) with median/p99, the `BENCH_<group>.json`
//!   rendering the `harness = false` bench targets write, and the check
//!   ([`bench::assert_committed`]) that a committed simulated
//!   `BENCH_*.json` still matches a fresh run.
//!
//! Pin tests that hold a long rendering to recorded bytes compare its
//! [`fnv1a`] hash.
//!
//! Environment knobs: `TESTKIT_CASES`, `TESTKIT_SEED`, `TESTKIT_PERSIST`
//! (a value that does not parse fails the run) and `TESTKIT_BENCH_SMOKE`.

#![warn(missing_docs)]

pub mod bench;
mod macros;
pub mod rng;
pub mod runner;
pub mod shrink;
pub mod source;
pub mod strategy;

pub use rng::DetRng;
pub use source::DataSource;

/// FNV-1a, 64-bit: a compact pin for a long rendering.
///
/// ```
/// assert_eq!(harmonia_testkit::fnv1a(""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    bytes.as_ref().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One-stop imports for property-test files.
///
/// ```
/// use harmonia_testkit::prelude::*;
/// ```
pub mod prelude {
    pub use crate::strategy::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{
        collection, option, BoxedStrategy, Just, Strategy, StrategyExt, Union,
    };
    pub use crate::{forall, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof};
}
