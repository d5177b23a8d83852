//! `crossroads-check`: the workspace's own property-testing harness.
//!
//! The hermetic-build policy (no registry dependencies — see README.md)
//! rules out proptest, so this crate supplies the three things the test
//! suites actually used:
//!
//! 1. **Seeded generators** — [`Strategy`] is implemented for plain range
//!    expressions (`0.0f64..15.0`, `1usize..300`), tuples of strategies,
//!    [`vec()`] collections and [`bools`]. Every case derives its own seed
//!    from the config's root seed, so any failure is reproducible from
//!    one `u64`.
//! 2. **Automatic shrinking** — on failure the runner greedily descends
//!    through each strategy's simpler candidates (shorter vectors,
//!    values nearer the range origin) and reports a locally minimal
//!    counterexample alongside the original.
//! 3. **Persisted regression seeds** — failing case seeds append to a
//!    `<test-file>.check-regressions` sibling (the replacement for
//!    proptest's `*.proptest-regressions`), and are replayed before any
//!    novel cases on the next run.
//!
//! # Writing a property
//!
//! ```
//! use crossroads_check::{forall, ck_assert, ck_assert_eq};
//!
//! forall! {
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         ck_assert_eq!(a + b, b + a);
//!         ck_assert!(a + b >= a, "no wrapping in this range");
//!     }
//! }
//! ```
//!
//! Bodies are statement blocks returning [`CheckResult`] implicitly:
//! `ck_assert!`/`ck_assert_eq!`/`ck_assert_ne!` fail the case,
//! `ck_assume!` discards it (returns success), `return Ok(())` exits
//! early, and plain `panic!`/`assert!`/`.expect()` failures are caught
//! and shrunk the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod strategy;

pub use runner::{check, run, CaseError, CheckResult, Config, Failure, TestId};
pub use strategy::{bools, vec, Bools, Strategy, VecStrategy};

/// Defines property tests. See the [crate docs](crate) for the shape.
///
/// An optional leading `config = <expr>;` applies one [`Config`] to every
/// property in the invocation (e.g. to lower the case count for
/// expensive closed-loop properties).
#[macro_export]
macro_rules! forall {
    (
        config = $cfg:expr;
        $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+
    ) => {
        $( $crate::__forall_one!( ($cfg) $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body ); )+
    };
    (
        $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+
    ) => {
        $( $crate::__forall_one!( ($crate::Config::default()) $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body ); )+
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __forall_one {
    ( ($cfg:expr) $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ ) $body:block ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let __config: $crate::Config = $cfg;
            let __strategy = ( $($strat,)+ );
            $crate::check(
                &$crate::TestId {
                    name: concat!(module_path!(), "::", stringify!($name)),
                    file: file!(),
                },
                &__config,
                &__strategy,
                |__value| -> $crate::CheckResult {
                    let ( $($arg,)+ ) = __value;
                    $body
                    Ok(())
                },
            );
        }
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! ck_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::CaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::CaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless both sides compare equal.
#[macro_export]
macro_rules! ck_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {l:?}\n right: {r:?}",
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::CaseError::fail(format!(
                "{}\n  left: {l:?}\n right: {r:?}",
                format!($($fmt)+),
            )));
        }
    }};
}

/// Fails the current case if both sides compare equal.
#[macro_export]
macro_rules! ck_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::CaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {l:?}",
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
}

/// Discards the current case (counts as passing) unless the condition
/// holds — for constraining generated inputs, like proptest's
/// `prop_assume!`.
#[macro_export]
macro_rules! ck_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Ok(());
        }
    };
}
