//! Offline shim for the subset of `proptest` this workspace uses:
//! `Strategy` with `prop_map`, range / `any` / collection strategies, the
//! `proptest!` macro, `prop_assert!`/`prop_assert_eq!`, and
//! `ProptestConfig::with_cases`. Cases are generated from a
//! deterministic per-test RNG (seeded from the test name), so failures
//! reproduce; there is no shrinking — the failing inputs are printed via
//! the assertion message instead.

use rand::rngs::SmallRng;
use rand::Rng;

pub mod test_runner {
    /// Runner configuration; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test RNG.
    pub struct TestRng(pub(crate) super::SmallRng);

    impl TestRng {
        /// Seed from the test name (FNV-1a), so each test gets a stable,
        /// distinct stream.
        pub fn deterministic(name: &str) -> Self {
            use rand::SeedableRng;
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng(super::SmallRng::seed_from_u64(h))
        }
    }

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            rand::RngCore::next_u64(&mut self.0)
        }
    }
}

use test_runner::TestRng;

/// A generator of values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u32, u64, usize, i32, i64, f64);

/// `any::<T>()`: the type's natural full-range strategy.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub struct AnyStrategy<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a natural full-range generator.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_std {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary_std!(bool, u8, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Collection size specification: a count or a range of counts.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// `Vec` of values from `element`, length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `BTreeSet` of values from `element`, target size drawn from
    /// `size`. May come out smaller if the element domain is too small
    /// to produce enough distinct values (mirrors proptest's behavior of
    /// bounded retries).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.size.pick(rng);
            let mut out = std::collections::BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 20 + 20 {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// `proptest::prelude`-style glob import surface.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop, prop_assert, prop_assert_eq, proptest, Strategy};
}

/// The `prop::` namespace (`prop::collection::vec(...)` etc.).
pub mod prop {
    pub use crate::collection;
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// The `proptest!` block: an optional `#![proptest_config(...)]` inner
/// attribute followed by test functions whose arguments are drawn from
/// strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&$strat, &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_sample_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("bounds");
        let s = crate::prop::collection::vec(0u32..10, 3..=5);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((3..=5).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
        let set = crate::prop::collection::btree_set(0u32..4, 1..4);
        for _ in 0..100 {
            let v = set.sample(&mut rng);
            assert!(!v.is_empty() && v.len() <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_surface_works(
            x in 0u64..100,
            flips in prop::collection::vec(any::<bool>(), 4),
            (a, b) in (0i32..5, 5i32..10),
        ) {
            prop_assert!(x < 100);
            prop_assert_eq!(flips.len(), 4);
            prop_assert!(a < b, "a {} b {}", a, b);
        }
    }
}
