//! The `forall!` property macro and its assertion companions.
//!
//! `forall!` mirrors the `proptest!` surface this workspace previously
//! used: each item is an ordinary test function whose parameters are
//! drawn from strategies. Bodies use `prop_assert!`-family macros (which
//! record the failure and let the runner shrink it) or plain panics.

/// Declares property tests.
///
/// ```
/// use harmonia_testkit::prelude::*;
///
/// forall! {
///     /// Addition of small numbers never overflows a u32.
///     #[test]
///     fn add_in_range(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert!(a.checked_add(b).is_some());
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// On failure the runner shrinks the case, persists the minimal draw
/// tape to `tests/regressions/<property>.tape` in the consumer crate,
/// and panics with the minimal counterexample. Existing tapes replay
/// before fresh cases are generated.
///
/// Cases run in index order and seeds derive from the case *index*, so
/// the failing seed, shrink tape and persisted regression are the same
/// on every run.
#[allow(
    clippy::test_attr_in_doctest,
    reason = "the example shows how a consumer writes a property; the doctest compiles it"
)]
#[macro_export]
macro_rules! forall {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($param:pat_param in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strategy,)+);
            let runner = $crate::runner::Runner::new(stringify!($name))
                .with_regressions_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/regressions"));
            let outcome = runner.run(
                |src| $crate::strategy::Strategy::generate(&strategy, src),
                |case| -> $crate::runner::CaseResult {
                    let ($($param,)+) = ::core::clone::Clone::clone(case);
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
            $crate::runner::report(stringify!($name), outcome);
        }
    )*};
}

/// Asserts a condition inside a `forall!` body, failing the case (not
/// the process) so the runner can shrink it.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "{}", concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::runner::CaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a `forall!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  note: {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a `forall!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}\n  note: {}",
            stringify!($left), stringify!($right), l, format!($($fmt)*)
        );
    }};
}

/// Uniform choice among strategies producing one value type.
///
/// ```
/// use harmonia_testkit::prelude::*;
/// let proto = prop_oneof![Just(6u8), Just(17u8)];
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::StrategyExt::boxed($arm)),+
        ])
    };
}
