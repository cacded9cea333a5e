//! Offline mini-`proptest`: a randomized property-testing harness with
//! the subset of the proptest 1.x API this workspace uses.
//!
//! Differences from the real crate (acceptable for an offline build):
//!
//! * **No shrinking.** A failing case panics with the assertion message
//!   but does not minimize the input.
//! * **String strategies** support simple patterns only: sequences of
//!   literal characters and character classes (`[a-z0-9]`, ranges
//!   allowed) with `{lo,hi}` / `{n}` / `*` / `+` / `?` quantifiers.
//! * Deterministic: each test's RNG is seeded from its own name, so
//!   failures reproduce across runs. `TANGO_PROPTEST_SEED` (decimal or
//!   `0x…` hex) is XOR-ed into that seed to run every property over
//!   another stream — CI sweeps three — and a failing property prints
//!   the value to export to replay it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::rc::Rc;

/// The RNG driving generation (deterministic per test).
pub type TestRng = StdRng;

/// Runner configuration (subset of `proptest::test_runner::ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
    /// Accepted for compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

/// A value generator (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (enables recursion and heterogeneous
    /// unions). The result is cheaply cloneable.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let s = self;
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| s.generate(rng)))
    }
}

/// A type-erased, cheaply cloneable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build a union over the given arms (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

// ---------------------------------------------------------------------
// String pattern strategies: `"[ -~]{0,120}"` etc.
// ---------------------------------------------------------------------

enum Atom {
    Lit(char),
    Class(Vec<(char, char)>),
}

struct Quantified {
    atom: Atom,
    lo: usize,
    hi: usize,
}

fn parse_pattern(pat: &str) -> Vec<Quantified> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < chars.len() {
        let atom = match chars[i] {
            '[' => {
                let mut ranges = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    let lo = if chars[i] == '\\' && i + 1 < chars.len() {
                        i += 1;
                        chars[i]
                    } else {
                        chars[i]
                    };
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((lo, lo));
                        i += 1;
                    }
                }
                i += 1; // consume ']'
                Atom::Class(ranges)
            }
            '\\' if i + 1 < chars.len() => {
                i += 2;
                Atom::Lit(chars[i - 1])
            }
            '.' => {
                i += 1;
                Atom::Class(vec![(' ', '~')])
            }
            c => {
                i += 1;
                Atom::Lit(c)
            }
        };
        // quantifier?
        let (lo, hi) = if i < chars.len() {
            match chars[i] {
                '{' => {
                    let close = chars[i..].iter().position(|&c| c == '}').map(|p| p + i);
                    let close = close.unwrap_or(chars.len() - 1);
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    if let Some((a, b)) = body.split_once(',') {
                        (a.trim().parse().unwrap_or(0), b.trim().parse().unwrap_or(8))
                    } else {
                        let n = body.trim().parse().unwrap_or(1);
                        (n, n)
                    }
                }
                '*' => {
                    i += 1;
                    (0, 8)
                }
                '+' => {
                    i += 1;
                    (1, 8)
                }
                '?' => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            }
        } else {
            (1, 1)
        };
        out.push(Quantified { atom, lo, hi });
    }
    out
}

fn gen_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Lit(c) => *c,
        Atom::Class(ranges) => {
            if ranges.is_empty() {
                return ' ';
            }
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
            let (lo, hi) = (lo as u32, (hi as u32).max(lo as u32));
            char::from_u32(rng.gen_range(lo..=hi)).unwrap_or(lo as u8 as char)
        }
    }
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let parts = parse_pattern(self);
        let mut s = String::new();
        for q in &parts {
            let n = if q.hi > q.lo { rng.gen_range(q.lo..=q.hi) } else { q.lo };
            for _ in 0..n {
                s.push(gen_atom(&q.atom, rng));
            }
        }
        s
    }
}

// ---------------------------------------------------------------------
// Modules mirroring the real crate layout
// ---------------------------------------------------------------------

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Rng, Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.is_empty() {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (subset of `proptest::sample`).
pub mod sample {
    use super::{Rng, Strategy, TestRng};

    /// Strategy choosing uniformly among the given items.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select() needs at least one item");
        Select { items }
    }

    /// Strategy returned by [`select`].
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.items[rng.gen_range(0..self.items.len())].clone()
        }
    }
}

/// Alias namespace mirroring `proptest::prop`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Test-runner support used by the [`proptest!`] macro expansion.
pub mod test_runner {
    use super::{SeedableRng, TestRng};

    /// `TANGO_PROPTEST_SEED`, or 0 when unset (the committed streams).
    fn env_seed() -> u64 {
        let Ok(s) = std::env::var("TANGO_PROPTEST_SEED") else { return 0 };
        let s = s.trim();
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| panic!("bad TANGO_PROPTEST_SEED: {s}"))
    }

    /// Seed an RNG deterministically from the test's name so each
    /// property gets an independent, reproducible stream, varied by
    /// `TANGO_PROPTEST_SEED`.
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng::seed_from_u64(h ^ env_seed())
    }

    /// Held by a running property: if it unwinds, says which seed to
    /// export to replay the failure.
    pub struct ReplayNote(pub &'static str);

    impl Drop for ReplayNote {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let seed = env_seed();
                eprintln!("proptest: {} failed; replay with TANGO_PROPTEST_SEED={seed:#x}", self.0);
            }
        }
    }
}

/// Everything a property test needs (subset of `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random instantiations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let name = concat!(module_path!(), "::", stringify!($name));
                let mut rng = $crate::test_runner::rng_for(name);
                let _replay = $crate::test_runner::ReplayNote(name);
                for __case in 0..config.cases {
                    let _ = __case;
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

/// Property assertion (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property equality assertion (no shrinking: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property inequality assertion (no shrinking: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_pattern_generates_within_class() {
        let mut rng = crate::test_runner::rng_for("string_pattern");
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"[a-c]{2,5}", &mut rng);
            assert!((2..=5).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        #[test]
        fn ranges_and_vecs(x in -5i32..5, v in prop::collection::vec((0i64..3, 0f64..1.0), 1..10)) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 10);
            for (a, b) in v {
                prop_assert!((0..3).contains(&a));
                prop_assert!((0.0..1.0).contains(&b));
            }
        }

        #[test]
        fn oneof_and_map(e in prop_oneof![Just(0i64), (1i64..10).prop_map(|x| x * 100)]) {
            prop_assert!(e == 0 || (100..1000).contains(&e));
        }
    }
}
