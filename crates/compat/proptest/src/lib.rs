//! Offline stand-in for `proptest`.
//!
//! The build environment cannot reach crates.io, so this crate implements
//! the subset of proptest's API that the workspace's property tests use:
//! the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive`, boxed strategies, `prop_oneof!`, range and tuple
//! strategies, a miniature regex-pattern string strategy, sized
//! [`collection::vec`], `any::<T>()`, and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest: generation is deterministic per test
//! case index (a fixed SplitMix64 seed schedule), and failing cases are
//! **not shrunk** — the panic message carries the failing values via the
//! assertion text instead. As in proptest, the `PROPTEST_CASES`
//! environment variable, when set, overrides every block's `cases`; case
//! *i* draws the same inputs either way, so a larger count explores past
//! the configured cases without changing them.

pub mod test_runner {
    /// Deterministic SplitMix64 generator driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "below(0)");
            self.next_u64() % n
        }

        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-run configuration (subset of proptest's).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for source compatibility; shrinking is not implemented.
        pub max_shrink_iters: u32,
    }

    impl Config {
        /// The number of cases to run: `PROPTEST_CASES` if set, else
        /// `cases`.
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("PROPTEST_CASES={v:?} is not a case count")),
                Err(_) => self.cases,
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config {
                cases: 64,
                max_shrink_iters: 0,
            }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

pub mod strategy {
    use super::test_runner::TestRng;
    use std::sync::Arc;

    /// A generator of values of type `Value` (subset of proptest's trait;
    /// no shrinking, so a strategy is just a sampling function).
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }

        fn prop_filter<F>(self, _whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Build recursive strategies: apply `recurse` up to `depth` times,
        /// mixing the leaf strategy back in at every level so generated
        /// structures vary in depth.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(strat).boxed();
                strat = OneOf::new(vec![leaf.clone(), deeper]).boxed();
            }
            strat
        }
    }

    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

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

    pub struct Filter<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates in a row");
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }

    int_strategies!(usize, u8, u16, u32, u64, i8, i16, i32, i64);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident/$i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A/0, B/1);
        (A/0, B/1, C/2);
        (A/0, B/1, C/2, D/3);
        (A/0, B/1, C/2, D/3, E/4);
        (A/0, B/1, C/2, D/3, E/4, F/5);
        (A/0, B/1, C/2, D/3, E/4, F/5, G/6);
    }

    /// `&str` patterns are miniature regexes: a sequence of character
    /// classes (`[a-z0-9_]`, `\PC` for printable, a literal otherwise),
    /// each with an optional `{m,n}` / `{n}` repetition.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let class: Vec<char> = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .expect("unclosed [ in pattern")
                        + i;
                    let mut set = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                            set.extend((lo..=hi).filter_map(char::from_u32));
                            j += 3;
                        } else {
                            set.push(chars[j]);
                            j += 1;
                        }
                    }
                    i = close + 1;
                    set
                }
                '\\' if chars.get(i + 1) == Some(&'P') || chars.get(i + 1) == Some(&'p') => {
                    // `\PC` / `\pC`: treat as "any printable character" —
                    // ASCII plus a few multi-byte ones to stress lexers.
                    i += 3;
                    let mut set: Vec<char> = (0x20u32..0x7F).filter_map(char::from_u32).collect();
                    set.extend(['é', 'ß', '→', '☃', '\u{00A0}']);
                    set
                }
                '\\' => {
                    let c = chars[i + 1];
                    i += 2;
                    vec![c]
                }
                c => {
                    i += 1;
                    vec![c]
                }
            };
            // Optional repetition.
            let (lo, hi) = if chars.get(i) == Some(&'{') {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unclosed { in pattern")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse::<usize>().unwrap(),
                        hi.trim().parse::<usize>().unwrap(),
                    ),
                    None => {
                        let n = body.trim().parse::<usize>().unwrap();
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..n {
                out.push(class[rng.below(class.len() as u64) as usize]);
            }
        }
        out
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types `any::<T>()` can produce.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64() * 2e6 - 1e6
        }
    }

    /// Strategy wrapper for `any::<T>()`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Inclusive-exclusive-agnostic size specification for collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
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

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector of `size` elements.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Bind one property argument: `name in strategy` draws from a strategy,
/// `name: Type` draws via [`arbitrary::Arbitrary`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_bind {
    ($rng:ident,) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (
        cfg = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.effective_cases() {
                let __seed = (__case as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    ^ 0x5EED_CAFE;
                let mut __rng = $crate::test_runner::TestRng::new(__seed);
                $crate::__proptest_bind!(__rng, $($args)*);
                $body
            }
        }
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
}

/// The `proptest!` block: each contained `#[test] fn` runs `cases` times
/// with deterministically seeded inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn combinators_compose() {
        let mut rng = TestRng::new(1);
        let s = (0usize..5).prop_flat_map(|n| crate::collection::vec(0i64..10, n..=n));
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 5);
            assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }
    }

    #[test]
    fn oneof_and_just() {
        let mut rng = TestRng::new(2);
        let s = prop_oneof![Just(1i64), Just(2i64), 10i64..20];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.generate(&mut rng));
        }
        assert!(seen.contains(&1) && seen.contains(&2));
        assert!(seen.iter().any(|&x| (10..20).contains(&x)));
    }

    #[test]
    fn string_patterns() {
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!((1..=6).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "\\PC{0,8}".generate(&mut rng);
            assert!(t.chars().count() <= 8);
        }
    }

    #[test]
    fn recursion_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let s = (0i64..10)
            .prop_map(|_| Tree::Leaf)
            .prop_recursive(3, 8, 2, |inner| {
                (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
            });
        let mut rng = TestRng::new(4);
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&s.generate(&mut rng)));
        }
        assert!((1..=3).contains(&max_depth), "depth {max_depth}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_mixed_args(x in 0i64..100, flag: bool, v in crate::collection::vec(0u32..9, 0..5)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 5, "len {}", v.len());
            let _ = flag;
        }
    }
}
