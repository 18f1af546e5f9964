//! Offline property-testing shim with a `proptest`-compatible API subset.
//!
//! This workspace must build and test with **zero network access**, so it
//! cannot depend on the real [proptest](https://crates.io/crates/proptest)
//! from the registry (even an unused optional registry dependency forces an
//! index fetch during resolution). This crate is a small, dependency-free
//! stand-in implementing exactly the surface our tests use:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` header),
//! * [`prop_assert!`] / [`prop_assert_eq!`] returning [`TestCaseError`],
//! * [`Strategy`] with [`Strategy::prop_map`] and [`Strategy::boxed`],
//! * range strategies (`0u64..100`, `-1.0f64..1.0`, ...), [`Just`],
//!   [`any`] and tuple strategies up to arity 5,
//! * [`collection::vec`] and the [`prop_oneof!`] union.
//!
//! **Deliberately not implemented:** shrinking (a failing case panics with
//! its fully rendered inputs instead), persistence of failure seeds, and
//! the `Arbitrary` derive. Cases are generated from a deterministic RNG
//! seeded by `(test name, case index)`, so failures reproduce exactly on
//! re-run without any state files.

use std::fmt;
use std::ops::Range;

// ----------------------------------------------------------------------
// Errors and configuration
// ----------------------------------------------------------------------

/// Failure of a single generated test case (what `prop_assert!` returns).
#[derive(Clone, Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Construct a failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-`proptest!`-block configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

// ----------------------------------------------------------------------
// The case RNG
// ----------------------------------------------------------------------

/// Deterministic RNG driving value generation, seeded per `(test, case)`.
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TestRng {
    /// RNG for case number `case` of the property named `name`.
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        let mut sm = splitmix64(seed ^ splitmix64(case));
        let mut state = [0u64; 4];
        for s in &mut state {
            sm = splitmix64(sm);
            *s = sm;
        }
        TestRng { state }
    }

    /// Next raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform draw in `[0, n)` (widening multiply; `n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ----------------------------------------------------------------------
// Strategies
// ----------------------------------------------------------------------

/// A generator of random values of type [`Strategy::Value`].
///
/// Unlike real proptest there is no value tree and no shrinking; `sample`
/// produces the final value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase this strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: fmt::Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy yielding a constant value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty => $u:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                self.start.wrapping_add(rng.below(span as u64) as $t)
            }
        }
    )+};
}

signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        // Guard the (theoretically possible) rounding up to `end`.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + (rng.unit_f64() as f32) * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// Strategy for any value of a type with a canonical full-range generator.
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    ArbitraryStrategy(std::marker::PhantomData)
}

/// Types usable with [`any`].
pub trait Arbitrary: fmt::Debug {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct ArbitraryStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for a `Vec` whose length is uniform in `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { element, len }
    }

    /// Strategy produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Uniform union over type-erased strategies (built by [`prop_oneof!`]).
pub struct OneOf<V> {
    choices: Vec<BoxedStrategy<V>>,
}

impl<V: fmt::Debug> OneOf<V> {
    /// Union of `choices`, each picked with equal probability.
    pub fn new(choices: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { choices }
    }
}

impl<V: fmt::Debug> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.choices.len() as u64) as usize;
        self.choices[i].sample(rng)
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Drive one property: run `config.cases` generated cases, panicking with
/// the rendered inputs on the first failure. Called by the [`proptest!`]
/// macro expansion, not directly by tests.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> (Result<(), TestCaseError>, String),
{
    for i in 0..config.cases as u64 {
        let mut rng = TestRng::for_case(name, i);
        let (result, inputs) = case(&mut rng);
        if let Err(e) = result {
            panic!(
                "property `{name}` failed at case {i}/{}:\n  {e}\n  inputs: {inputs}",
                config.cases
            );
        }
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a function running the body over generated inputs. Attributes
/// pass through unchanged, so, as in real proptest, each property carries
/// its own `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(config, stringify!($name), |__proptest_rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __proptest_rng);)+
                let __proptest_inputs =
                    format!(concat!($(stringify!($arg), " = {:?}  "),+), $(&$arg),+);
                let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                (__proptest_result, __proptest_inputs)
            });
        }
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
}

/// Assert inside a property, failing the case (not panicking) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a property, failing the case on mismatch.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// One-stop imports mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Alias so `prop::collection::vec(...)`-style paths work.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_case("ranges", 0);
        for _ in 0..10_000 {
            let v = (3u64..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = (-5i32..5).sample(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_respects_length_range() {
        let mut rng = crate::TestRng::for_case("vec", 1);
        for _ in 0..1000 {
            let v = collection::vec(0u8..4, 2..9).sample(&mut rng);
            assert!((2..9).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(1u64), Just(2u64), (10u64..20).prop_map(|v| v)];
        let mut rng = crate::TestRng::for_case("oneof", 2);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            match strat.sample(&mut rng) {
                1 => seen[0] = true,
                2 => seen[1] = true,
                10..=19 => seen[2] = true,
                other => panic!("impossible draw {other}"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn cases_are_deterministic_per_name_and_index() {
        let a: Vec<u64> = {
            let mut r = crate::TestRng::for_case("p", 7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = crate::TestRng::for_case("p", 7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = crate::TestRng::for_case("p", 8);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro end to end: params, prop_assert, early Ok return.
        #[test]
        fn macro_roundtrip(x in 0u64..100, flip in any::<bool>()) {
            if flip {
                return Ok(());
            }
            prop_assert!(x < 100, "x = {x}");
            prop_assert_eq!(x + 1, x + 1);
        }
    }
}
