//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so this crate provides a
//! deterministic, generation-only reimplementation of the proptest API
//! subset the hdsm test suites use: the [`strategy::Strategy`] trait with
//! `prop_map` / `prop_filter` / `prop_flat_map` / `prop_recursive` /
//! `boxed`, range and tuple strategies, `any::<T>()`, collection / sample /
//! option helpers, `prop_oneof!`, and the `proptest!` test macro with
//! `prop_assert*` / `prop_assume!`.
//!
//! Differences from real proptest, deliberately accepted:
//! * no shrinking — failures report the generated inputs via panic message
//!   only;
//! * the RNG is seeded from the test's module path and name, so runs are
//!   reproducible but not tunable via `PROPTEST_*` env vars;
//! * string strategies support only the `[chars]{lo,hi}` regex shape.

pub mod test_runner {
    //! Config, RNG and case-rejection plumbing used by the macros.

    /// Mirror of proptest's run configuration (subset).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required per property.
        pub cases: u32,
        /// Unused; kept for struct-update compatibility.
        pub max_shrink_iters: u32,
        /// Unused; kept for struct-update compatibility.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                max_shrink_iters: 0,
                max_global_rejects: 65536,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }
    }

    /// Marker returned by `prop_assume!` rejections.
    #[derive(Debug)]
    pub struct Rejected;

    /// Deterministic SplitMix64 generator.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test identifier (FNV-1a over the name).
        pub fn from_name(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64 bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Next raw 128 bits.
        pub fn next_u128(&mut self) -> u128 {
            ((self.next_u64() as u128) << 64) | self.next_u64() as u128
        }

        /// Uniform u128 in `[0, span)` (rejection-free modulo; bias is
        /// irrelevant for test generation).
        pub fn below_u128(&mut self, span: u128) -> u128 {
            assert!(span > 0);
            self.next_u128() % span
        }

        /// Uniform usize in `[0, span)`.
        pub fn below(&mut self, span: usize) -> usize {
            self.below_u128(span as u128) as usize
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Retry generation until `f` accepts (bounded; panics if the
        /// filter rejects 1000 draws in a row).
        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason: reason.into(),
                f,
            }
        }

        /// Generate an intermediate value, then generate from the strategy
        /// `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        /// Depth-bounded recursive strategy: `f` receives a strategy for
        /// sub-values and returns the branching strategy.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            f: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut strat = base.clone();
            for _ in 0..depth {
                let branch = f(strat).boxed();
                strat = Union::new(vec![base.clone(), branch]).boxed();
            }
            strat
        }

        /// Type-erase.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe generation, for [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A cheaply cloneable, type-erased strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.dyn_generate(rng)
        }
        fn boxed(self) -> BoxedStrategy<T>
        where
            Self: Sized + 'static,
        {
            self
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: String,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 draws in a row: {}", self.reason);
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice between boxed branches (`prop_oneof!`).
    pub struct Union<T> {
        branches: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from non-empty branches.
        pub fn new(branches: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(
                !branches.is_empty(),
                "prop_oneof! needs at least one branch"
            );
            Union { branches }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.branches.len());
            self.branches[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($ty:ty),*) => {$(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below_u128(span) as i128) as $ty
                }
            }
            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u128 + 1;
                    (lo + rng.below_u128(span) as i128) as $ty
                }
            }
        )*};
    }

    int_range_strategies!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    // i128 ranges get their own impls (the i128 cast trick above would
    // overflow on the full domain; tests only use sub-u64 spans but the
    // arithmetic below is exact anyway).
    impl Strategy for std::ops::Range<i128> {
        type Value = i128;
        fn generate(&self, rng: &mut TestRng) -> i128 {
            assert!(self.start < self.end, "empty range strategy");
            let span = self.end.wrapping_sub(self.start) as u128;
            self.start.wrapping_add(rng.below_u128(span) as i128)
        }
    }
    impl Strategy for std::ops::RangeInclusive<i128> {
        type Value = i128;
        fn generate(&self, rng: &mut TestRng) -> i128 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            let span = hi.wrapping_sub(lo) as u128;
            if span == u128::MAX {
                return rng.next_u128() as i128;
            }
            lo.wrapping_add(rng.below_u128(span + 1) as i128)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($S:ident . $idx:tt),+ );)*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
        (A.0, B.1, C.2, D.3, E.4, F.5);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6);
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);
    }

    /// A `Vec` of strategies generates a `Vec` of values (one per
    /// element, in order) — used for struct-field generation.
    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    /// `&str` regex strategies; only the `[chars]{lo,hi}` shape is
    /// supported (that is the only shape the test suites use).
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (chars, lo, hi) = parse_class_regex(self)
                .unwrap_or_else(|| panic!("unsupported regex strategy: {self:?}"));
            let len = lo + rng.below(hi - lo + 1);
            (0..len).map(|_| chars[rng.below(chars.len())]).collect()
        }
    }

    fn parse_class_regex(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            // `a-b` range when '-' is sandwiched; literal '-' otherwise.
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i], class[i + 2]);
                for c in lo..=hi {
                    chars.push(c);
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        let counts = rest[close + 1..]
            .strip_prefix('{')?
            .strip_suffix('}')?
            .split_once(',')?;
        Some((chars, counts.0.parse().ok()?, counts.1.parse().ok()?))
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> $ty {
                    rng.next_u128() as $ty
                }
            }
        )*};
    }
    arb_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f32::from_bits(rng.next_u64() as u32)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Anything expressible as an inclusive size interval.
    pub trait SizeRange {
        /// `(lo, hi)` inclusive.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }
    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }
    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `sizes`.
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.lo + rng.below(self.hi - self.lo + 1);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec` — a vector of `elem` draws.
    pub fn vec<S: Strategy>(elem: S, sizes: impl SizeRange) -> VecStrategy<S> {
        let (lo, hi) = sizes.bounds();
        VecStrategy { elem, lo, hi }
    }
}

pub mod sample {
    //! Sampling strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform choice from a fixed set.
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }

    /// `prop::sample::select` — pick one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty set");
        Select(options)
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` (50% `None`).
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 1 {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    /// `prop::option::of` — maybe a value from `s`.
    pub fn of<S: Strategy>(s: S) -> OptionStrategy<S> {
        OptionStrategy(s)
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Assert inside a property (plain assert; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a test running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal muncher for [`proptest!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::test_runner::Rejected> =
                    (|| {
                        $(let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err(_) => {
                        rejected += 1;
                        assert!(
                            rejected < 65536,
                            "too many prop_assume! rejections in {}",
                            stringify!($name)
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in -5i64..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn vec_and_oneof(v in prop::collection::vec(prop_oneof![Just(1u8), Just(2u8)], 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x == 1 || x == 2));
        }

        #[test]
        fn assume_rejects(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn string_class(s in "[a-c9]{2,4}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| "abc9".contains(c)));
        }
    }

    #[test]
    fn flat_map_and_recursive_compile() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let mut rng = TestRng::from_name("x");
        let s = (1usize..4).prop_flat_map(|n| prop::collection::vec(Just(n), n..=n));
        let v = s.generate(&mut rng);
        assert!(!v.is_empty() && v.iter().all(|&x| x == v.len()));
        let r =
            Just(0u32).prop_recursive(3, 8, 2, |inner| (inner, 1u32..3).prop_map(|(x, d)| x + d));
        let _ = r.generate(&mut rng);
    }
}
