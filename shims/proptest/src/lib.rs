//! Offline stand-in for the `proptest` crate.
//!
//! Supports the surface this workspace's property tests use: the
//! `proptest!` macro with an optional `#![proptest_config(...)]` header,
//! `prop_assert!`/`prop_assert_eq!`, range and tuple strategies,
//! `prop::collection::vec`, and `.prop_map`.
//!
//! Unlike real proptest there is no shrinking and no persisted failure
//! seeds: each test draws its cases from an RNG seeded by the test's
//! fully qualified name, so runs are deterministic across processes.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-block configuration, set via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the suite fast while
        // still exercising varied inputs. Tests that need more set it
        // explicitly via `proptest_config`.
        ProptestConfig { cases: 64 }
    }
}

/// Failure raised by `prop_assert!`-style macros inside a test body.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Builds the deterministic RNG backing one property test.
pub fn test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the fully qualified test name.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(hash)
}

/// A generator of test inputs.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification accepted by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The drop-in `use proptest::prelude::*` import surface.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestCaseError};

    /// Namespace mirror so `prop::collection::vec` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a `proptest!` body, failing the current
/// case (with the condition text and optional formatted context) rather
/// than panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(
                ::std::format!(
                    "assertion failed: {}: {}",
                    stringify!($cond),
                    ::std::format!($($fmt)+),
                ),
            ));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err($crate::TestCaseError(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r,
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if __l != __r {
            return ::std::result::Result::Err($crate::TestCaseError(
                ::std::format!(
                    "assertion failed: `{} == {}` ({}):\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    ::std::format!($($fmt)+),
                    __l,
                    __r,
                ),
            ));
        }
    }};
}

/// Declares property tests: `#[test] fn name(arg in strategy, ...) { body }`
/// items, optionally preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (cfg = ($cfg:expr); $( #[test] fn $name:ident( $($args:tt)* ) $body:block )*) => {
        $(
            #[test]
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        $crate::__proptest_case!(__rng; ($($args)*) $body);
                    if let ::std::result::Result::Err(__e) = __outcome {
                        ::std::panic!(
                            "property `{}` failed at case {}/{}:\n{}",
                            stringify!($name),
                            __case + 1,
                            __cfg.cases,
                            __e,
                        );
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ($rng:ident; ($(,)?) $body:block) => {
        (|| -> ::std::result::Result<(), $crate::TestCaseError> {
            $body
            ::std::result::Result::Ok(())
        })()
    };
    ($rng:ident; (mut $arg:ident in $strat:expr $(, $($rest:tt)*)?) $body:block) => {{
        let mut $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_case!($rng; ($($($rest)*)?) $body)
    }};
    ($rng:ident; ($arg:ident in $strat:expr $(, $($rest:tt)*)?) $body:block) => {{
        let $arg = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_case!($rng; ($($($rest)*)?) $body)
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (u32, u32)> {
        (0u32..100, 0u32..100)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "f = {f}");
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec(0u8..5, 1..20),
            mut w in pair().prop_map(|(a, b)| vec![a, b]),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 5));
            w.push(7);
            prop_assert_eq!(w.len(), 3);
        }
    }

    #[test]
    fn failures_surface_condition_text() {
        fn inner() -> Result<(), TestCaseError> {
            let x = 2;
            prop_assert!(x > 10, "x was {x}");
            Ok(())
        }
        let err = inner().unwrap_err();
        assert!(err.0.contains("x > 10"));
        assert!(err.0.contains("x was 2"));
    }

    #[test]
    fn test_rng_is_name_stable() {
        use rand::Rng;
        let a: u64 = crate::test_rng("mod::case").gen();
        let b: u64 = crate::test_rng("mod::case").gen();
        let c: u64 = crate::test_rng("mod::other").gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
