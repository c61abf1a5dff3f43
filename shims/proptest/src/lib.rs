//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a cargo registry, so the workspace
//! vendors the API subset it uses: the [`proptest!`] macro over `name in
//! strategy` parameters, range / tuple / [`collection::vec`] / [`any`]
//! strategies, `prop_assert*` macros, and [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest: inputs are sampled uniformly (no
//! bias toward edge cases), failures are not shrunk, and the case seed is
//! a deterministic hash of the test name — every run explores the same
//! inputs, which keeps CI reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::marker::PhantomData;
use std::ops::Range;

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The generator the macros thread through strategies.
pub type TestRng = StdRng;

/// Deterministic per-test generator (FNV-1a hash of the test name).
pub fn test_rng(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h)
}

/// A value generator. Unlike real proptest there is no shrinking tree;
/// `generate` directly yields a sampled value.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Samples one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Strategy for "any value of `T`" (full range for integers, `[0,1)` for
/// floats — the subset the workspace needs).
pub struct AnyStrategy<T>(PhantomData<T>);

/// `any::<T>()` — the canonical strategy for a primitive type.
pub fn any<T: SampleUniform>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl<T: SampleUniform> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        rng.gen::<T>()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    /// Strategy producing `Vec`s of `elem` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(elem, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..self.size.hi);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// The usual wildcard import surface.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a generated case (panics with the failing
/// inputs' case number; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion inside a generated case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assertion inside a generated case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` that runs `body` for every generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges respect their bounds.
        #[test]
        fn ranges_in_bounds(x in 3usize..17, y in -2.5f64..2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
        }

        /// Tuples and vecs compose.
        #[test]
        fn composites(
            pair in (0u32..5, 10u64..20),
            fixed in crate::collection::vec(any::<u8>(), 7),
            var in crate::collection::vec(0usize..3, 1..5),
        ) {
            prop_assert!(pair.0 < 5 && pair.1 >= 10);
            prop_assert_eq!(fixed.len(), 7);
            prop_assert!((1..5).contains(&var.len()));
            prop_assert_ne!(var.len(), 0);
        }
    }

    #[test]
    fn determinism_across_generators() {
        let mut a = crate::test_rng("t");
        let mut b = crate::test_rng("t");
        let s = 0u64..1000;
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
