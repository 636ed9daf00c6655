//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build container has no network access, so the workspace vendors
//! just enough of proptest's surface for the suites under `tests/`:
//! the [`proptest!`] macro, range/tuple/vec/bool strategies, `prop_map`,
//! and the `prop_assert*` macros. Inputs are drawn from a deterministic
//! per-test RNG (seeded from the test name), so failures reproduce
//! exactly across runs. There is no shrinking: a failing case reports
//! the case index so it can be replayed under a debugger.
//!
//! To switch to the real crate, point the workspace `proptest` entry at
//! a registry version; the API used by the tests is a strict subset. One
//! behavior differs: [`ProptestConfig::with_cases`] honors
//! `PROPTEST_CASES` when it asks for more cases.

pub mod collection;
pub mod strategy;
pub mod test_runner;

#[allow(non_snake_case)]
pub mod bool {
    //! Boolean strategies (mirrors `proptest::bool`).
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `true` with probability `p`.
    #[derive(Debug, Clone, Copy)]
    pub struct Weighted(pub f64);

    impl Strategy for Weighted {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.uniform01() < self.0
        }
    }

    /// `true` with probability `p`, `false` otherwise.
    pub fn weighted(p: f64) -> Weighted {
        Weighted(p.clamp(0.0, 1.0))
    }

    /// Uniform coin flip.
    pub const ANY: Weighted = Weighted(0.5);
}

/// Runner configuration (mirrors `proptest::test_runner::ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property, or the
    /// `PROPTEST_CASES` environment variable's count when that is larger.
    ///
    /// This differs from the real crate, whose `with_cases` ignores the
    /// variable: here a suite's own count is a floor, so one knob raises
    /// every suite's budget (the weekly deep-fuzz run) without editing
    /// the suites, and never lowers it.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases.max(env_cases().unwrap_or(0)),
        }
    }
}

/// A positive `PROPTEST_CASES`, if one is set.
fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
}

impl Default for ProptestConfig {
    /// 256 cases, or `PROPTEST_CASES` when set — the same knob the real
    /// crate reads.
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(256),
        }
    }
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.
    pub use crate as prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assert a condition inside a property; accepts `assert!`-style
/// formatting arguments.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that samples the strategies `cases` times.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { cfg = (<$crate::ProptestConfig as Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( cfg = ($cfg:expr); ) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            let strategies = ($($strat,)+);
            for __case in 0..config.cases {
                let ($($arg,)+) = $crate::strategy::Strategy::sample(&strategies, &mut rng);
                let run = || -> () { $body };
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed (deterministic; rerun reproduces it)",
                        __case + 1,
                        config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}
