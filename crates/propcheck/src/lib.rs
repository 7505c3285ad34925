//! Hermetic property-testing shim.
//!
//! This crate implements the *subset* of the `proptest` crate's API that
//! this workspace uses, so the test suite builds and runs fully offline
//! (the build environment has no access to crates.io). It is wired in
//! through a Cargo dependency rename — `proptest = { path = …, package =
//! "contory-propcheck" }` — so test code keeps the idiomatic
//! `use proptest::prelude::*;` imports and would compile unchanged
//! against the real crate.
//!
//! Scope and deliberate simplifications:
//!
//! - **Generation only, no shrinking.** A failing case reports the seed
//!   and case number; re-running with the same `PROPTEST_CASES` and test
//!   name reproduces it exactly (the runner is deterministic).
//! - **Regex strategies** support the character-class subset actually
//!   used (`[a-z]`, `[a-z0-9]{0,8}`, `[ -~]{0,40}`, …): concatenations
//!   of classes with optional `{m}` / `{m,n}` quantifiers.
//! - The runner draws a fixed number of cases (`PROPTEST_CASES`, default
//!   64) from per-test seeds derived by FNV-1a of the test name, so the
//!   whole suite is reproducible and independent of execution order.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Deterministic case runner and test-case error type.

    /// Outcome of a single generated case, mirroring
    /// `proptest::test_runner::TestCaseError`.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case did not satisfy a `prop_assume!` precondition; it is
        /// discarded and replaced, not counted as a failure.
        Reject(String),
        /// The property was falsified.
        Fail(String),
    }

    impl TestCaseError {
        /// A falsified-property error.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A discarded-case marker.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// The deterministic generator handed to strategies (xoshiro256++
    /// seeded via SplitMix64 — self-contained, identical on every
    /// platform).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    // SplitMix64 and FNV-1a below duplicate `simkit::hash` on purpose:
    // simkit dev-depends on this crate, so it cannot depend on simkit.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// Creates a generator; equal seeds yield equal streams.
        pub fn new(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            let wide = (self.next_u64() as u128).wrapping_mul(n as u128);
            (wide >> 64) as u64
        }
    }

    fn fnv1a(text: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Number of accepted cases each property must pass
    /// (`PROPTEST_CASES`, default 64).
    pub fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &u64| n > 0)
            .unwrap_or(64)
    }

    /// Runs one property to completion: draws deterministic cases until
    /// `case_count()` of them are accepted, panicking on the first
    /// falsified case with enough context to reproduce it.
    pub fn run(name: &str, mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
        let wanted = case_count();
        let seed_base = fnv1a(name);
        let mut accepted: u64 = 0;
        let mut rejected: u64 = 0;
        let mut index: u64 = 0;
        // A property that rejects this often is effectively vacuous;
        // surface that rather than spinning.
        let reject_cap = wanted.saturating_mul(256).max(4096);
        while accepted < wanted {
            let seed = seed_base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            index += 1;
            let mut rng = TestRng::new(seed);
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > reject_cap {
                        panic!(
                            "property '{name}': too many rejected cases \
                             ({rejected} rejects for {accepted}/{wanted} accepts) — \
                             weaken the prop_assume! preconditions"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "property '{name}' falsified at case {index} (seed {seed:#x}):\n{msg}"
                    );
                }
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    ///
    /// Unlike the real proptest `Strategy` (which produces shrinkable
    /// value *trees*), this shim generates plain values: `generate` is
    /// the whole contract.
    pub trait Strategy: 'static {
        /// The type of generated values.
        type Value: 'static;

        /// Draws one value from the deterministic generator.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Applies a function to every generated value.
        fn prop_map<O: 'static, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O + 'static,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy that
        /// value selects (monadic bind).
        fn prop_flat_map<S: Strategy, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> S + 'static,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `self` is the leaf case and
        /// `recurse` wraps a strategy for the inner levels. `depth`
        /// bounds the nesting; the remaining size parameters exist for
        /// proptest signature compatibility and are unused here (each
        /// level gives the leaf and the recursive arm equal weight,
        /// which keeps the expected tree size finite).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
            R: Strategy<Value = Self::Value>,
            F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                current = Union::new(vec![leaf.clone(), recurse(current).boxed()]).boxed();
            }
            current
        }

        /// Erases the strategy type. The result is cheaply `Clone`.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe generation, used behind [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn dyn_generate(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased, reference-counted strategy (`Clone` regardless of
    /// the underlying strategy type).
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: 'static> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.dyn_generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: 'static,
        F: Fn(S::Value) -> O + 'static,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T + 'static,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniformly picks one of several strategies per case (the engine
    /// behind `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! signed_range_strategy {
        ($($t:ty as $u:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    ((self.start as i64).wrapping_add(rng.below(span) as i64)) as $t
                }
            }
        )*};
    }
    signed_range_strategy!(i8 as u8, i16 as u16, i32 as u32, i64 as u64);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty float range strategy");
                    let u = rng.unit() as $t;
                    self.start + u * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A);
        (A, B);
        (A, B, C);
        (A, B, C, D);
        (A, B, C, D, E);
        (A, B, C, D, E, G);
    }

    // ----- regex-subset string strategies --------------------------------

    /// One atom of the supported regex subset: a set of candidate
    /// characters plus a repetition range (inclusive).
    struct Atom {
        chars: Vec<char>,
        min: u32,
        max: u32,
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, pattern: &str) -> Vec<char> {
        let mut set = Vec::new();
        loop {
            let c = chars
                .next()
                .unwrap_or_else(|| panic!("unterminated character class in pattern {pattern:?}"));
            if c == ']' {
                break;
            }
            if chars.peek() == Some(&'-') {
                let mut lookahead = chars.clone();
                lookahead.next(); // consume '-'
                match lookahead.peek() {
                    Some(&hi) if hi != ']' => {
                        chars.next(); // '-'
                        chars.next(); // hi
                        assert!(
                            c <= hi,
                            "descending range {c}-{hi} in pattern {pattern:?}"
                        );
                        for v in (c as u32)..=(hi as u32) {
                            if let Some(ch) = char::from_u32(v) {
                                set.push(ch);
                            }
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            set.push(c);
        }
        assert!(!set.is_empty(), "empty character class in pattern {pattern:?}");
        set
    }

    fn parse_quantifier(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        pattern: &str,
    ) -> (u32, u32) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut body = String::new();
        loop {
            match chars.next() {
                Some('}') => break,
                Some(c) => body.push(c),
                None => panic!("unterminated quantifier in pattern {pattern:?}"),
            }
        }
        let parse = |s: &str| -> u32 {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad quantifier {{{body}}} in pattern {pattern:?}"))
        };
        match body.split_once(',') {
            Some((lo, hi)) => (parse(lo), parse(hi)),
            None => {
                let n = parse(&body);
                (n, n)
            }
        }
    }

    fn parse_pattern(pattern: &str) -> Vec<Atom> {
        let mut chars = pattern.chars().peekable();
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let set = match c {
                '[' => parse_class(&mut chars, pattern),
                '\\' => vec![chars
                    .next()
                    .unwrap_or_else(|| panic!("dangling escape in pattern {pattern:?}"))],
                '.' | '*' | '+' | '?' | '(' | ')' | '|' | '^' | '$' => panic!(
                    "pattern {pattern:?} uses regex feature {c:?} outside the supported \
                     subset (character classes with {{m,n}} quantifiers)"
                ),
                other => vec![other],
            };
            let (min, max) = parse_quantifier(&mut chars, pattern);
            assert!(min <= max, "descending quantifier in pattern {pattern:?}");
            atoms.push(Atom {
                chars: set,
                min,
                max,
            });
        }
        atoms
    }

    /// A compiled regex-subset string strategy.
    pub struct StringPattern {
        atoms: Rc<Vec<Atom>>,
    }

    impl Clone for StringPattern {
        fn clone(&self) -> Self {
            StringPattern {
                atoms: Rc::clone(&self.atoms),
            }
        }
    }

    impl StringPattern {
        /// Compiles a pattern; panics on unsupported regex syntax.
        pub fn new(pattern: &str) -> Self {
            StringPattern {
                atoms: Rc::new(parse_pattern(pattern)),
            }
        }
    }

    impl Strategy for StringPattern {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for atom in self.atoms.iter() {
                let n = atom.min + rng.below((atom.max - atom.min + 1) as u64) as u32;
                for _ in 0..n {
                    out.push(atom.chars[rng.below(atom.chars.len() as u64) as usize]);
                }
            }
            out
        }
    }

    /// String literals are strategies generating matching strings, as in
    /// proptest. The pattern is re-compiled per case; these patterns are
    /// tiny, so that is in the noise.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            StringPattern::new(self).generate(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Generates `Vec`s whose length is uniform in `len` (half-open, as
    /// in `proptest::collection::vec(strat, 0..8)`).
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range for collection::vec");
        VecStrategy { element, len }
    }

    /// See [`vec`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! Option strategies (`proptest::option::of`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Generates `None` about a quarter of the time and `Some` of the
    /// inner strategy otherwise (matching proptest's default weighting).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` that runs the body over generated cases.
///
/// The body runs inside a closure returning
/// `Result<(), TestCaseError>`, so `return Ok(());` and the
/// `prop_assert*` early returns behave as in proptest.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__pc_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __pc_rng);)+
                    let __pc_outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            #[allow(unreachable_code)]
                            return ::std::result::Result::Ok(());
                        })();
                    __pc_outcome
                });
            }
        )*
    };
}

/// Fails the current case if the condition is false. With extra
/// arguments, they are a `format!` message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case if the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __pc_left = &$left;
        let __pc_right = &$right;
        if !(*__pc_left == *__pc_right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    concat!(
                        "assertion failed: `",
                        stringify!($left),
                        " == ",
                        stringify!($right),
                        "`\n  left: {:?}\n right: {:?}"
                    ),
                    __pc_left,
                    __pc_right
                ),
            ));
        }
    }};
}

/// Rejects the current case (it is discarded and regenerated) if the
/// precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::std::string::String::from(concat!("assumption failed: ", stringify!($cond))),
            ));
        }
    };
}

/// Uniformly picks among several strategies each case. (The real
/// proptest supports `weight => strategy` arms; the uniform form is the
/// only one this workspace uses.)
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn string_pattern_shapes() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let s = "[a-z][a-z0-9]{0,8}".generate(&mut rng);
            assert!((1..=9).contains(&s.len()), "bad length {s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            let p = "[ -~]{0,40}".generate(&mut rng);
            assert!(p.len() <= 40);
            assert!(p.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(2);
        for _ in 0..500 {
            let u = (1u32..20).generate(&mut rng);
            assert!((1..20).contains(&u));
            let f = (-1e3f64..1e3).generate(&mut rng);
            assert!((-1e3..1e3).contains(&f));
            let i = (-5i32..7).generate(&mut rng);
            assert!((-5..7).contains(&i));
        }
    }

    #[test]
    fn union_and_recursion_terminate() {
        #[derive(Clone, Debug, PartialEq)]
        enum Tree {
            Leaf(u32),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u32..10).prop_map(Tree::Leaf).prop_recursive(3, 12, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    #[test]
    fn same_seed_same_values() {
        let strat = prop_oneof![
            Just("fixed".to_owned()),
            "[a-z]{1,10}",
            (0u32..100).prop_map(|n| n.to_string()),
        ];
        let a: Vec<String> = {
            let mut rng = TestRng::new(9);
            (0..64).map(|_| strat.generate(&mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = TestRng::new(9);
            (0..64).map(|_| strat.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        /// The macro surface itself: args, assume, assert, early Ok.
        #[test]
        fn macro_roundtrip(n in 0u64..1000, s in "[a-z]{1,4}") {
            prop_assume!(n != 999);
            if n == 0 {
                return Ok(());
            }
            prop_assert!(n < 1000, "n was {n}");
            prop_assert_eq!(s.len(), s.chars().count());
        }
    }
}
