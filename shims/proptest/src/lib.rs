//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of proptest its test suites use: the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map` / `prop_filter`, range and tuple
//! strategies, [`collection::vec`], [`bool::ANY`], [`Just`], the
//! [`proptest!`] macro, and the `prop_assert*` macros.
//!
//! Failing cases are **shrunk** before being reported: the harness walks
//! linear candidate passes — collection removal, integer halving toward
//! the range start, component-wise tuple shrinks — re-running the property
//! on each candidate and descending into the first one that still fails,
//! until no candidate fails or [`MAX_SHRINK_RUNS`] re-runs are spent. The
//! panic message then carries the minimized input (`Debug`-formatted)
//! instead of whatever the random stream happened to produce first.
//!
//! Differences from upstream: `prop_flat_map` output does not shrink (the
//! second-stage strategy only lives for the duration of generation), and
//! case generation is seeded from the case index, so every run explores
//! the same inputs.

use rand::rngs::StdRng;
use rand::RngExt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub mod test_runner {
    //! Execution plumbing used by the generated test bodies.

    use super::StdRng;
    use rand::SeedableRng;

    /// Deterministic per-case generator.
    pub type TestRng = StdRng;

    /// Builds the generator for case number `case` of a test.
    pub fn rng_for_case(case: u64) -> TestRng {
        // Golden-ratio stride keeps neighboring cases' streams unrelated.
        TestRng::seed_from_u64(0x5EED_5EED ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A failed property with its explanation.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Outcome of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

use test_runner::TestRng;

/// Run-time knobs of a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

/// Parses a `PROPTEST_CASES`-style override value; `None` for unset,
/// non-numeric or non-positive input. Separated from the environment read
/// so it is testable without mutating process-global state.
fn parse_cases(value: Option<&str>) -> Option<u32> {
    value?.trim().parse().ok().filter(|&c| c > 0)
}

/// The `PROPTEST_CASES` environment override: when set to a positive
/// integer it replaces the default case count (as upstream does) and —
/// *unlike* upstream, where explicit configs win — also acts as a ceiling
/// on [`ProptestConfig::with_cases`] requests, so one variable trims every
/// property suite at once (CI smoke runs, quick local iterations). A swap
/// to the registry crate would lose the ceiling behavior; suites relying
/// on it would run at their full explicit case counts again.
fn env_cases() -> Option<u32> {
    parse_cases(std::env::var("PROPTEST_CASES").ok().as_deref())
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(256),
        }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test (capped by the
    /// `PROPTEST_CASES` environment variable when set).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: match env_cases() {
                Some(ceiling) => cases.min(ceiling),
                None => cases,
            },
        }
    }
}

/// Attempts before a [`Strategy::prop_filter`] gives up on a case. Fixed
/// (not a [`ProptestConfig`] knob) because strategies have no access to
/// the active config at generation time.
const MAX_FILTER_REJECTS: u32 = 1000;

/// Ceiling on property re-runs spent minimizing one failure. Shrinking is
/// best-effort: when the budget runs out, the smallest input found so far
/// is reported. Bounded so a pathological candidate space (e.g. float
/// halving, which converges but never terminates on its own) cannot hang
/// a failing test.
pub const MAX_SHRINK_RUNS: usize = 256;

// --- The shrink tree ----------------------------------------------------

/// A generated value together with the recipe for its simpler variants.
///
/// Shrinking explores candidates lazily: `candidates()` is only invoked
/// on values that made the property fail, and each candidate carries its
/// own recipe so the descent can continue from whichever one still fails.
pub struct Shrinkable<T> {
    value: T,
    children: Rc<dyn Fn() -> Vec<Shrinkable<T>>>,
}

impl<T: Clone> Clone for Shrinkable<T> {
    fn clone(&self) -> Self {
        Shrinkable {
            value: self.value.clone(),
            children: Rc::clone(&self.children),
        }
    }
}

impl<T: 'static> Shrinkable<T> {
    /// A value with the given candidate recipe.
    pub fn new(value: T, children: impl Fn() -> Vec<Shrinkable<T>> + 'static) -> Self {
        Shrinkable {
            value,
            children: Rc::new(children),
        }
    }

    /// A value with no simpler variants.
    pub fn leaf(value: T) -> Self {
        Shrinkable::new(value, Vec::new)
    }

    /// The generated (or shrunken) value.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Unwraps the value, discarding the shrink recipe.
    pub fn into_value(self) -> T {
        self.value
    }

    /// The simpler variants to try, simplest first.
    pub fn candidates(&self) -> Vec<Shrinkable<T>> {
        (self.children)()
    }
}

/// Minimizes a failing input: repeatedly re-runs `run` over the failing
/// value's candidates and descends into the first candidate that still
/// fails, stopping when none fail or [`MAX_SHRINK_RUNS`] re-runs are
/// spent. Returns the smallest failing value found, its error, and the
/// number of accepted shrink steps.
pub fn shrink_failure<T: 'static>(
    mut current: Shrinkable<T>,
    mut err: test_runner::TestCaseError,
    mut run: impl FnMut(&T) -> test_runner::TestCaseResult,
) -> (T, test_runner::TestCaseError, usize) {
    let mut steps = 0usize;
    let mut budget = MAX_SHRINK_RUNS;
    'descend: loop {
        for cand in current.candidates() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if let Err(e) = run(cand.value()) {
                err = e;
                current = cand;
                steps += 1;
                continue 'descend;
            }
        }
        return (current.into_value(), err, steps);
    }
}

/// One case of a `proptest!` body: draws a value from `strategy`, runs
/// the property, and on failure shrinks the input. Returns `None` when
/// the case passes, `Some((minimal_input, error, shrink_steps))` when it
/// fails. Exists as a function (rather than macro-expanded code) so the
/// property closure's argument type is pinned by `strategy` — method
/// calls inside the body then resolve without annotations.
#[doc(hidden)]
pub fn run_shrink_case<S, R>(
    strategy: &S,
    rng: &mut TestRng,
    mut run: R,
) -> Option<(S::Value, test_runner::TestCaseError, usize)>
where
    S: Strategy,
    S::Value: 'static,
    R: FnMut(&S::Value) -> test_runner::TestCaseResult,
{
    let shrinkable = strategy.generate_shrinkable(rng);
    match run(shrinkable.value()) {
        Ok(()) => None,
        Err(e) => Some(shrink_failure(shrinkable, e, run)),
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Draws one value together with its shrink recipe. Consumes the
    /// random stream exactly as [`Strategy::generate`] does, so the two
    /// entry points produce identical values from identical generators.
    /// The default recipe has no candidates (no shrinking).
    fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<Self::Value>
    where
        Self: Sized,
        Self::Value: 'static,
    {
        Shrinkable::leaf(self.generate(rng))
    }

    /// Transforms every generated value with `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map {
            inner: self,
            f: Rc::new(f),
        }
    }

    /// Generates a value, then generates from the strategy `f` builds from
    /// it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Rejects generated values failing `f`, resampling until one passes.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            f: Rc::new(f),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

/// Maps a source shrink tree through `f`: candidates of the source value
/// become candidates of the mapped value.
fn map_shrinkable<S, U: 'static, F>(src: Shrinkable<S>, f: Rc<F>) -> Shrinkable<U>
where
    S: Clone + 'static,
    F: Fn(S) -> U + 'static,
{
    let value = f(src.value().clone());
    Shrinkable::new(value, move || {
        src.candidates()
            .into_iter()
            .map(|c| map_shrinkable(c, Rc::clone(&f)))
            .collect()
    })
}

impl<S: Strategy, U: 'static, F: Fn(S::Value) -> U + 'static> Strategy for Map<S, F>
where
    S::Value: Clone + 'static,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }

    fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<U> {
        map_shrinkable(self.inner.generate_shrinkable(rng), Rc::clone(&self.f))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
    // No generate_shrinkable override: the second-stage strategy is a
    // temporary of generation, so its shrink recipe cannot outlive this
    // call. Flat-mapped values fall back to the unshrunk default.
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    f: Rc<F>,
}

/// Restricts a shrink tree to candidates that still satisfy `pred`, so
/// shrinking never reports an input the strategy could not generate.
fn filter_shrinkable<T, F>(inner: Shrinkable<T>, pred: Rc<F>) -> Shrinkable<T>
where
    T: Clone + 'static,
    F: Fn(&T) -> bool + 'static,
{
    let value = inner.value().clone();
    Shrinkable::new(value, move || {
        inner
            .candidates()
            .into_iter()
            .filter(|c| pred(c.value()))
            .map(|c| filter_shrinkable(c, Rc::clone(&pred)))
            .collect()
    })
}

impl<S: Strategy, F: Fn(&S::Value) -> bool + 'static> Strategy for Filter<S, F>
where
    S::Value: Clone + 'static,
{
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..MAX_FILTER_REJECTS {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter exhausted rejections: {}", self.reason);
    }

    fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<S::Value> {
        for _ in 0..MAX_FILTER_REJECTS {
            let v = self.inner.generate_shrinkable(rng);
            if (self.f)(v.value()) {
                return filter_shrinkable(v, Rc::clone(&self.f));
            }
        }
        panic!("prop_filter exhausted rejections: {}", self.reason);
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Integer types that shrink by halving the distance to the range start.
trait IntShrink: Copy + 'static {
    /// Candidates simpler than `v`, simplest first: `lo`, then values
    /// halving the remaining distance, ending at `v - 1`.
    fn halving(lo: Self, v: Self) -> Vec<Self>;
}

/// The shrink tree of an integer drawn from a range starting at `lo`.
fn int_shrinkable<T: IntShrink>(lo: T, v: T) -> Shrinkable<T> {
    Shrinkable::new(v, move || {
        T::halving(lo, v)
            .into_iter()
            .map(|c| int_shrinkable(lo, c))
            .collect()
    })
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl IntShrink for $t {
            fn halving(lo: Self, v: Self) -> Vec<Self> {
                let mut out = Vec::new();
                let mut step = v - lo;
                while step > 0 {
                    out.push(v - step);
                    step /= 2;
                }
                out
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }

            fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<$t> {
                int_shrinkable(self.start, self.generate(rng))
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }

            fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<$t> {
                int_shrinkable(*self.start(), self.generate(rng))
            }
        }
    )*};
}
impl_range_strategy!(u8, u64, usize);

/// The shrink tree of a float drawn from a range starting at `lo`: the
/// range start itself, then the midpoint. The sequence converges without
/// terminating, so it relies on the [`MAX_SHRINK_RUNS`] budget.
fn f64_shrinkable(lo: f64, v: f64) -> Shrinkable<f64> {
    Shrinkable::new(v, move || {
        let mut out = Vec::new();
        if v > lo {
            out.push(f64_shrinkable(lo, lo));
            let mid = lo + (v - lo) / 2.0;
            if mid > lo && mid < v {
                out.push(f64_shrinkable(lo, mid));
            }
        }
        out
    })
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_range(self.clone())
    }

    fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<f64> {
        f64_shrinkable(self.start, self.generate(rng))
    }
}

macro_rules! impl_tuple_strategy {
    ($($helper:ident: ($($s:ident . $idx:tt),+))*) => {$(
        /// Combines component shrink trees into a tuple tree: candidates
        /// shrink one component while holding the others at their current
        /// values.
        fn $helper<$($s: Clone + 'static),+>(
            parts: ($(Shrinkable<$s>,)+),
        ) -> Shrinkable<($($s,)+)> {
            let value = ($(parts.$idx.value().clone(),)+);
            Shrinkable::new(value, move || {
                let mut out = Vec::new();
                $(
                    for cand in parts.$idx.candidates() {
                        let mut next = parts.clone();
                        next.$idx = cand;
                        out.push($helper(next));
                    }
                )+
                out
            })
        }

        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone + 'static,)+
        {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<Self::Value> {
                $helper(($(self.$idx.generate_shrinkable(rng),)+))
            }
        }
    )*};
}
impl_tuple_strategy! {
    tuple_shrinkable1: (A.0)
    tuple_shrinkable2: (A.0, B.1)
    tuple_shrinkable3: (A.0, B.1, C.2)
    tuple_shrinkable4: (A.0, B.1, C.2, D.3)
    tuple_shrinkable5: (A.0, B.1, C.2, D.3, E.4)
    tuple_shrinkable6: (A.0, B.1, C.2, D.3, E.4, F.5)
    tuple_shrinkable7: (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    tuple_shrinkable8: (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

pub mod collection {
    //! Strategies for collections.

    use super::{Shrinkable, Strategy, TestRng};
    use rand::RngExt;
    use std::ops::Range;

    /// Generates `Vec`s with a length drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// The shrink tree of a generated `Vec`: removal candidates first
    /// (drop to the minimum length, drop the back half, drop each single
    /// element), then element-wise shrinks. Removals never go below the
    /// strategy's minimum length, so shrinking cannot report a `Vec` the
    /// strategy could not have generated.
    fn vec_shrinkable<T: Clone + 'static>(
        elems: Vec<Shrinkable<T>>,
        min_len: usize,
    ) -> Shrinkable<Vec<T>> {
        let value: Vec<T> = elems.iter().map(|e| e.value().clone()).collect();
        Shrinkable::new(value, move || {
            let n = elems.len();
            let mut out = Vec::new();
            if n > min_len {
                out.push(vec_shrinkable(elems[..min_len].to_vec(), min_len));
                let half = min_len.max(n / 2);
                if half > min_len && half < n {
                    out.push(vec_shrinkable(elems[..half].to_vec(), min_len));
                }
                for i in 0..n {
                    let mut rest = elems.clone();
                    rest.remove(i);
                    out.push(vec_shrinkable(rest, min_len));
                }
            }
            for i in 0..n {
                for cand in elems[i].candidates() {
                    let mut next = elems.clone();
                    next[i] = cand;
                    out.push(vec_shrinkable(next, min_len));
                }
            }
            out
        })
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone + 'static,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<Vec<S::Value>> {
            let len = rng.random_range(self.size.clone());
            let elems = (0..len)
                .map(|_| self.element.generate_shrinkable(rng))
                .collect();
            vec_shrinkable(elems, self.size.start)
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::{Shrinkable, Strategy, TestRng};
    use rand::RngExt;

    /// Generates `true` / `false` with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.random()
        }

        fn generate_shrinkable(&self, rng: &mut TestRng) -> Shrinkable<bool> {
            if self.generate(rng) {
                Shrinkable::new(true, || vec![Shrinkable::leaf(false)])
            } else {
                Shrinkable::leaf(false)
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, proptest, Just, ProptestConfig, Strategy};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` that runs `body` for every generated case and
/// shrinks the first failing input before reporting it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $($(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
      )+
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __strategy = ($($strat,)+);
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::rng_for_case(__case as u64);
                let __failure = $crate::run_shrink_case(&__strategy, &mut __rng, |__vals| {
                    let ($($pat,)+) = ::core::clone::Clone::clone(__vals);
                    (|| { $body ::core::result::Result::Ok(()) })()
                });
                if let ::core::option::Option::Some((__min, __err, __steps)) = __failure {
                    panic!(
                        "proptest `{}` failed at case {}/{} (deterministic; \
                         re-run reproduces it); shrunk {} step(s) to minimal \
                         input {:?}: {}",
                        stringify!($name),
                        __case + 1,
                        __cfg.cases,
                        __steps,
                        __min,
                        __err
                    );
                }
            }
        }
    )+};
}

/// `assert!` returning a [`test_runner::TestCaseError`] instead of
/// panicking, so the harness can report the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn proptest_cases_override_parses_and_caps() {
        // The parse logic is tested through its pure entry point; mutating
        // the real environment here would race sibling tests that read
        // `PROPTEST_CASES` at runtime.
        assert_eq!(crate::parse_cases(None), None);
        assert_eq!(crate::parse_cases(Some("7")), Some(7));
        assert_eq!(crate::parse_cases(Some(" 12 ")), Some(12));
        assert_eq!(crate::parse_cases(Some("0")), None);
        assert_eq!(crate::parse_cases(Some("not a number")), None);
        // The ceiling semantics on top of a parsed override.
        let apply = |ceiling: Option<u32>, cases: u32| match ceiling {
            Some(c) => cases.min(c),
            None => cases,
        };
        assert_eq!(apply(crate::parse_cases(Some("7")), 64), 7);
        assert_eq!(apply(crate::parse_cases(Some("7")), 3), 3);
        assert_eq!(apply(crate::parse_cases(None), 64), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(n in 2usize..=12, x in 0.5f64..2.0) {
            prop_assert!((2..=12).contains(&n));
            prop_assert!((0.5..2.0).contains(&x));
        }

        #[test]
        fn combinators_compose(
            (n, pairs) in (1usize..10).prop_flat_map(|n| {
                let pairs = crate::collection::vec(
                    (0..n, 0..n).prop_filter("distinct", move |(a, b)| a != b || n == 1),
                    0..8,
                );
                (Just(n), pairs)
            }),
            flag in crate::bool::ANY,
        ) {
            if n == 1 {
                prop_assert!(pairs.iter().all(|&(a, b)| a == 0 && b == 0));
            } else {
                prop_assert!(pairs.iter().all(|&(a, b)| a < n && b < n && a != b));
            }
            let _ = flag;
        }

        #[test]
        fn early_return_is_allowed(n in 0usize..10) {
            if n > 100 {
                return Ok(());
            }
            prop_assert_eq!(n.min(9), n);
        }
    }

    // --- Shrinking ------------------------------------------------------
    //
    // These tests drive `run_shrink_case` directly (not through the
    // `proptest!` macro) so they stay deterministic under any
    // `PROPTEST_CASES` ceiling: the case budget here is their own loop,
    // not the active config.

    /// Draws cases until `prop` fails, then returns the shrunk input.
    fn minimize<S>(strategy: S, mut prop: impl FnMut(&S::Value) -> bool) -> S::Value
    where
        S: crate::Strategy,
        S::Value: 'static,
    {
        for case in 0..256u64 {
            let mut rng = crate::test_runner::rng_for_case(case);
            let failure = crate::run_shrink_case(&strategy, &mut rng, |v| {
                if prop(v) {
                    Ok(())
                } else {
                    Err(TestCaseError::fail("counterexample"))
                }
            });
            if let Some((min, _err, _steps)) = failure {
                return min;
            }
        }
        panic!("no failing case found");
    }

    #[test]
    fn integer_failures_shrink_to_the_boundary() {
        // `n < 10` first fails at some random n >= 10; halving toward the
        // range start must land exactly on the smallest counterexample.
        assert_eq!(minimize((0u64..1000,), |&(n,)| n < 10), (10,));
    }

    #[test]
    fn vec_failures_shrink_by_removal_and_element_halving() {
        // `len < 3` fails at some random vec; removal passes must trim it
        // to exactly three elements and halving must zero each of them.
        let strategy = (crate::collection::vec(0usize..100, 0..20),);
        assert_eq!(minimize(strategy, |(v,)| v.len() < 3), (vec![0, 0, 0],));
    }

    #[test]
    fn vec_shrinking_respects_the_minimum_length() {
        // A strategy with a floor of 2 elements must never shrink below
        // it, even though the property fails for every input.
        let strategy = (crate::collection::vec(0usize..100, 2..20),);
        assert_eq!(minimize(strategy, |_| false), (vec![0, 0],));
    }

    #[test]
    fn shrinking_descends_through_prop_map() {
        // The property observes only the mapped string, but candidates
        // come from the integer source underneath the map.
        let strategy = ((0u64..1000).prop_map(|n| format!("{n:04}")),);
        assert_eq!(
            minimize(strategy, |(s,)| s.as_str() < "0010"),
            ("0010".to_string(),)
        );
    }

    #[test]
    fn shrinking_respects_prop_filter() {
        // Every shrunk candidate must still satisfy the filter (a <= b),
        // and the minimal counterexample of a + b >= 50 under it is (0, 50).
        let strategy = ((0usize..100, 0usize..100).prop_filter("ordered", |(a, b)| a <= b),);
        assert_eq!(minimize(strategy, |&((a, b),)| a + b < 50), ((0, 50),));
    }

    // The macro-level path: the property fails on every input, so any
    // positive case count hits it, and the panic message must carry the
    // minimized input (the range start, via integer halving).

    proptest! {
        fn always_fails_from_five(n in 5u64..1000) {
            prop_assert!(n == u64::MAX, "n = {n}");
        }
    }

    #[test]
    fn macro_reports_the_shrunk_input() {
        let payload =
            std::panic::catch_unwind(always_fails_from_five).expect_err("property should fail");
        let msg = match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(_) => panic!("panic payload is not a string"),
        };
        assert!(msg.contains("minimal input (5,)"), "{msg}");
        assert!(msg.contains("always_fails_from_five"), "{msg}");
    }
}
