//! A minimal, dependency-free subset of the `proptest` crate.
//!
//! The real proptest cannot be vendored in this offline workspace, so this
//! shim reimplements exactly the surface our test-suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`Strategy`] with `prop_map`, [`Just`], `prop_oneof!`,
//! * integer-range, tuple and simple-regex string strategies,
//! * `proptest::collection::{vec, hash_set}`.
//!
//! Cases are generated from a deterministic per-case RNG (SplitMix64), so
//! failures are reproducible; there is no shrinking — the failing inputs
//! are printed verbatim instead.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic per-case RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for case number `case` of a test run.
    pub fn for_case(case: u64) -> Self {
        TestRng {
            state: 0x5EED_0BAD_F00D_4242 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Test-run configuration (`cases` = number of generated inputs).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to generate and run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. The shim generates eagerly (no value trees, no
/// shrinking).
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let ix = rng.below(self.0.len() as u64) as usize;
        self.0[ix].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, usize);

impl Strategy for Range<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($s:ident / $ix:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$ix.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);

/// `&str` patterns are interpreted as a tiny regex subset — sequences of
/// literal characters and character classes `[a-z0-9]`, each optionally
/// repeated `{m,n}`/`{n}` — enough for patterns like `"[a-z]{1,6}"`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            // one atom: class or literal
            let atom: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .expect("unterminated char class")
                    + i;
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.push(char::from_u32(c).expect("char range"));
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            // optional {m,n} / {n} repetition
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated repetition")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.parse::<u64>().expect("bad repetition"),
                        n.parse::<u64>().expect("bad repetition"),
                    ),
                    None => {
                        let n = body.parse::<u64>().expect("bad repetition");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let n = lo + rng.below(hi - lo + 1);
            for _ in 0..n {
                out.push(atom[rng.below(atom.len() as u64) as usize]);
            }
        }
        out
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::HashSet;
    use std::fmt::Debug;
    use std::hash::Hash;
    use std::ops::Range;

    /// A `Vec` of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let n = self.size.start + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `HashSet` aiming for `size.start..size.end` distinct elements
    /// (duplicates are retried a bounded number of times).
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash + Debug,
    {
        HashSetStrategy { element, size }
    }

    /// See [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash + Debug,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let want = self.size.start + rng.below(span.max(1)) as usize;
            let mut out = HashSet::new();
            let mut tries = 0;
            while out.len() < want.max(self.size.start.max(1)) && tries < want * 20 + 20 {
                out.insert(self.element.generate(rng));
                tries += 1;
            }
            out
        }
    }
}

/// Everything a test module needs (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just, ProptestConfig,
        Strategy,
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($l:expr, $r:expr $(,)?) => {{
        let (l, r) = (&$l, &$r);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assert_eq failed: {:?} != {:?}",
                l,
                r
            ));
        }
    }};
    ($l:expr, $r:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$l, &$r);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assert_eq failed: {:?} != {:?} — {}",
                l,
                r,
                ::std::format!($($fmt)+)
            ));
        }
    }};
}

/// Uniform choice among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        $crate::Union(::std::vec![$($crate::Strategy::boxed($s)),+])
    }};
}

/// Declares deterministic randomized tests. Supports the subset of the
/// real macro's grammar used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(0u8..2, 1..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { <$crate::ProptestConfig as ::std::default::Default>::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases as u64 {
                let mut rng = $crate::TestRng::for_case(case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = ::std::format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let result: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("proptest case #{case} failed: {e}\n  inputs: {inputs}");
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::for_case(3);
        let mut b = TestRng::for_case(3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case(4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case(0);
        for _ in 0..1000 {
            let v = (5u64..17).generate(&mut rng);
            assert!((5..17).contains(&v));
            let u = (1usize..3).generate(&mut rng);
            assert!((1..3).contains(&u));
        }
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = TestRng::for_case(1);
        for _ in 0..100 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 6, "bad len: {s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase()),
                "bad chars: {s:?}"
            );
        }
    }

    #[test]
    fn oneof_and_map_work() {
        let mut rng = TestRng::for_case(2);
        let s = prop_oneof![Just(1u32), Just(2), Just(3)].prop_map(|v| v * 10);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v == 10 || v == 20 || v == 30);
        }
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = TestRng::for_case(5);
        for _ in 0..50 {
            let v = collection::vec(0u8..10, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            let h = collection::hash_set("[a-c]{1,2}", 1..4).generate(&mut rng);
            assert!(!h.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn the_macro_itself_runs(x in 0u64..100, pair in (0u8..2, 1u32..5)) {
            prop_assert!(x < 100);
            prop_assert!(pair.0 < 2 && (1..5).contains(&pair.1));
        }
    }
}
