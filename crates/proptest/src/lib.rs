//! Offline, from-scratch drop-in for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build container has no crates-io access, so the workspace vendors its
//! few external dependencies as minimal re-implementations. This crate
//! provides the property-testing surface the test suites call:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`],
//! * range strategies over primitive ints and floats, tuple strategies,
//!   [`collection::vec`], [`sample::select`], [`strategy::Just`],
//! * the [`strategy::Strategy`] combinators `prop_map` and `prop_flat_map`.
//!
//! Two deliberate simplifications relative to crates-io proptest:
//!
//! 1. **Deterministic by construction.** Each test's RNG is seeded from a
//!    hash of its module path and name — never from the OS or the clock —
//!    so a failure reproduces on every run and on every machine. This is
//!    the same discipline DESIGN.md §5 demands of the simulation itself,
//!    and the workspace lints enforce for simulation crates.
//! 2. **No shrinking.** A failing case reports its case number and
//!    message; since the stream is deterministic, the failing input can be
//!    recovered by re-running. (`*.proptest-regressions` files are unused.)

pub mod test_runner {
    //! Deterministic case runner and failure plumbing behind [`proptest!`](macro@crate::proptest).

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Per-test configuration. The alias `ProptestConfig` is exported from
    /// the prelude to match crates-io proptest spelling.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// The generator handed to strategies. Wraps the workspace's seeded
    /// [`StdRng`]; the seed is a pure function of the test's path.
    #[derive(Clone, Debug)]
    pub struct TestRng(StdRng);

    impl TestRng {
        /// Seeds the generator from an arbitrary label (the test path).
        pub fn from_label(label: &str) -> Self {
            // FNV-1a over the label: stable across platforms and runs.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl Rng for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// A single failed property case: the `prop_assert!` message plus the
    /// source location of the assertion.
    #[derive(Clone, Debug)]
    pub struct TestCaseError {
        /// Human-readable assertion message.
        pub message: String,
        /// Source file of the failed assertion.
        pub file: &'static str,
        /// Source line of the failed assertion.
        pub line: u32,
    }

    impl TestCaseError {
        /// Builds a failure record; called by the `prop_assert!` family.
        pub fn fail(message: String, file: &'static str, line: u32) -> Self {
            TestCaseError { message, file, line }
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            write!(f, "{} at {}:{}", self.message, self.file, self.line)
        }
    }

    /// Drives one property: owns the deterministic RNG stream.
    #[derive(Debug)]
    pub struct TestRunner {
        rng: TestRng,
    }

    impl TestRunner {
        /// New runner for the test identified by `label`.
        pub fn new(label: &str) -> Self {
            TestRunner { rng: TestRng::from_label(label) }
        }

        /// Draws one value from `strategy`, advancing the stream.
        pub fn draw<S: crate::strategy::Strategy>(&mut self, strategy: &S) -> S::Value {
            strategy.generate(&mut self.rng)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait, primitive-range instances, and combinators.

    use crate::test_runner::TestRng;
    use rand::{Rng, SampleRange};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike crates-io proptest there is no value tree and no shrinking:
    /// `generate` draws a single concrete value from the deterministic RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms every generated value with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it (dependent generation).
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Debug)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    impl<T> Strategy for core::ops::Range<T>
    where
        core::ops::Range<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.random_range(self.clone())
        }
    }

    impl<T> Strategy for core::ops::RangeInclusive<T>
    where
        core::ops::RangeInclusive<T>: SampleRange<T> + Clone,
    {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.random_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S0 / 0);
    impl_tuple_strategy!(S0 / 0, S1 / 1);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6, S7 / 7);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6, S7 / 7, S8 / 8);
    impl_tuple_strategy!(
        S0 / 0,
        S1 / 1,
        S2 / 2,
        S3 / 3,
        S4 / 4,
        S5 / 5,
        S6 / 6,
        S7 / 7,
        S8 / 8,
        S9 / 9
    );
}

pub mod collection {
    //! Strategies for collections (only `Vec`, which is all the suite uses).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Inclusive-exclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange { lo: exact, hi: exact + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// See [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates a `Vec` whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Strategies that sample from explicit option sets.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// See [`select`].
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    /// Generates a uniformly chosen clone of one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.random_range(0..self.options.len())].clone()
        }
    }
}

/// Declares deterministic property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```no_run
/// use proptest::prelude::*;
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]  // optional
///     #[test]
///     fn my_property(x in 0.0f64..1.0, v in prop::collection::vec(0u32..9, 1..20)) {
///         prop_assert!(x < 1.0);
///         prop_assert!((1..20).contains(&v.len()));
///     }
/// }
/// ```
///
/// (`no_run`: in a doctest the generated `#[test]` functions are compiled but not
/// run; the macro's own unit tests below exercise the runtime behaviour.)
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { [$crate::test_runner::Config::default()] $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ([$cfg:expr] $( $(#[$meta:meta])* fn $name:ident
        ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let label = concat!(module_path!(), "::", stringify!($name));
                let mut runner = $crate::test_runner::TestRunner::new(label);
                let strategy = ($($strat,)+);
                for case in 0..config.cases {
                    let ($($arg,)+) = runner.draw(&strategy);
                    let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(err) = outcome {
                        // A failed property must abort the surrounding #[test]:
                        // panicking is the contract.
                        panic!(
                            "property `{}` failed on case {}/{} (deterministic seed; rerun reproduces): {}",
                            label,
                            case + 1,
                            config.cases,
                            err
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current property case (early-returns an error) if the
/// condition is false. Usable only inside [`proptest!`] bodies.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
                file!(),
                line!(),
            ));
        }
    };
}

/// Fails the current property case if the operands are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{}` == `{}` ({:?} vs {:?})",
            stringify!($lhs),
            stringify!($rhs),
            lhs,
            rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs == rhs, $($fmt)+);
    }};
}

/// Fails the current property case if the operands are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            lhs != rhs,
            "assertion failed: `{}` != `{}` (both {:?})",
            stringify!($lhs),
            stringify!($rhs),
            lhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(lhs != rhs, $($fmt)+);
    }};
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    pub mod prop {
        //! Namespace alias matching crates-io proptest's `prelude::prop`.
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRunner;

    #[test]
    fn runner_streams_are_deterministic_per_label() {
        let mut a = TestRunner::new("label");
        let mut b = TestRunner::new("label");
        for _ in 0..32 {
            assert_eq!(a.draw(&(0u64..1_000_000)), b.draw(&(0u64..1_000_000)));
        }
        let mut c = TestRunner::new("other label");
        let same =
            (0..32).filter(|_| a.draw(&(0u64..1_000_000)) == c.draw(&(0u64..1_000_000))).count();
        assert!(same < 4, "different labels should diverge");
    }

    #[test]
    fn vec_strategy_respects_size_specs() {
        let mut r = TestRunner::new("sizes");
        for _ in 0..100 {
            assert_eq!(r.draw(&prop::collection::vec(0u32..5, 3)).len(), 3);
            let v = r.draw(&prop::collection::vec(0.0f64..1.0, 2..40));
            assert!((2..40).contains(&v.len()));
        }
    }

    #[test]
    fn select_only_yields_options() {
        let mut r = TestRunner::new("select");
        for _ in 0..50 {
            let v = r.draw(&prop::sample::select(vec![1, 5, 9]));
            assert!([1, 5, 9].contains(&v));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut r = TestRunner::new("compose");
        let s = (1usize..4)
            .prop_flat_map(|n| prop::collection::vec(0u32..10, n).prop_map(move |v| (n, v)));
        for _ in 0..50 {
            let (n, v) = r.draw(&s);
            assert_eq!(v.len(), n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_in_range(x in 10.0f64..20.0, k in 1u32..=3) {
            prop_assert!((10.0..20.0).contains(&x));
            prop_assert!((1..=3).contains(&k));
        }

        #[test]
        fn macro_supports_tuples_and_just(
            pair in (0i64..5, Just(7u8)),
            sel in prop::sample::select(vec![2usize, 4, 6]),
        ) {
            prop_assert!((0..5).contains(&pair.0));
            prop_assert_eq!(pair.1, 7u8);
            prop_assert_ne!(sel, 5);
        }
    }

    proptest! {
        fn always_fails_inner(x in 0u32..10) {
            prop_assert!(x < 5, "x was {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "failed on case")]
    fn failing_property_panics_with_case_number() {
        always_fails_inner();
    }
}
