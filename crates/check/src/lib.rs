//! # outage-check
//!
//! A small property-test harness for the workspace's tests. A property
//! draws its inputs from [`Gen`]erators and runs a fixed number of cases:
//!
//! ```
//! use outage_check::prelude::*;
//!
//! property! {
//!     #![cases(64)]
//!     fn addition_commutes(a in 0u64..1_000, b in any::<u32>()) {
//!         prop_assert_eq!(a + b as u64, b as u64 + a);
//!     }
//! }
//! # addition_commutes();
//! ```
//!
//! Runs are reproducible by construction: case `i` of property `name`
//! draws from `SmallRng::seed_from_u64(fnv1a(name) + i)`, so the same
//! build always explores the same inputs. A block without `#![cases(n)]`
//! runs [`DEFAULT_CASES`]. A failing case — a `prop_assert*` or a panic
//! in the body — reports the property, the case index and its seed.
//! There is no shrinking and nothing to configure.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use outage_types::rng::{fnv1a, SampleRange, SmallRng};
use std::io::Write;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Cases a property runs when its block names no count.
pub const DEFAULT_CASES: u32 = 256;

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, property, vec, Gen};
}

/// A generator of random test inputs.
pub trait Gen {
    /// The type of value generated.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Generate through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate through `f`, redrawing while it returns `None`. `why`
    /// names the rejection if it never stops.
    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        why: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            why,
            f,
        }
    }
}

impl<T> Gen for Range<T>
where
    T: Copy,
    Range<T>: SampleRange<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Gen for RangeInclusive<T>
where
    T: Copy,
    RangeInclusive<T>: SampleRange<T>,
{
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_gen {
    ($($g:ident $i:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    };
}
tuple_gen!(A 0, B 1);
tuple_gen!(A 0, B 1, C 2);
tuple_gen!(A 0, B 1, C 2, D 3);
tuple_gen!(A 0, B 1, C 2, D 3, E 4);
tuple_gen!(A 0, B 1, C 2, D 3, E 4, F 5);
tuple_gen!(A 0, B 1, C 2, D 3, E 4, F 5, G 6);
tuple_gen!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

/// See [`Gen::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Gen::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<G, F> {
    inner: G,
    why: &'static str,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> Option<U>> Gen for FilterMap<G, F> {
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("generator rejected 10000 draws in a row: {}", self.why);
    }
}

/// Any value of `T`, uniformly (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Any value of `T` (`bool`, `u8`, `u16`, `u32` or `u64`), uniformly.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! any_gen {
    ($($t:ty => $draw:ident),*) => {$(
        impl Gen for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.$draw()
            }
        }
    )*};
}
any_gen!(bool => bool, u8 => u8, u16 => u16, u32 => next_u32, u64 => next_u64);

/// See [`fn@vec`].
#[derive(Debug, Clone)]
pub struct VecOf<G, S> {
    element: G,
    len: S,
}

/// A `Vec` whose length is drawn from `len` and whose elements are
/// drawn from `element`.
pub fn vec<G: Gen, S: Gen<Value = usize>>(element: G, len: S) -> VecOf<G, S> {
    VecOf { element, len }
}

impl<G: Gen, S: Gen<Value = usize>> Gen for VecOf<G, S> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut SmallRng) -> Vec<G::Value> {
        let n = self.len.generate(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Names the property and case on stderr if the case panics.
struct PanicNote<'a> {
    name: &'a str,
    case: u32,
    seed: u64,
}

impl Drop for PanicNote<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Ignore a failed write: panicking here would abort.
            let _ = writeln!(
                std::io::stderr(),
                "property `{}` panicked at case {} (seed {:#x})",
                self.name,
                self.case,
                self.seed
            );
        }
    }
}

/// Run `cases` cases of the property `name`; `case` gets a generator
/// seeded for its index and returns `Err` with a message on failure.
/// Panics on the first failing case. [`property!`] calls this.
pub fn run<F>(name: &str, cases: u32, mut case: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), String>,
{
    let base = fnv1a(name.as_bytes());
    for i in 0..cases {
        let seed = base.wrapping_add(i as u64);
        let outcome = {
            let _note = PanicNote {
                name,
                case: i,
                seed,
            };
            case(&mut SmallRng::seed_from_u64(seed))
        };
        if let Err(msg) = outcome {
            panic!("property `{name}` failed at case {i} of {cases} (seed {seed:#x}): {msg}");
        }
    }
}

/// Define property tests. Each `fn name(pat in gen, ...) { body }`
/// becomes a plain `fn name()` (keep its `#[test]`) that runs the body
/// over generated inputs; `#![cases(n)]` at the top sets the case count
/// for every property in the block.
#[macro_export]
macro_rules! property {
    (@cases $cases:expr;) => {};
    (@cases $cases:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $gen:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run(stringify!($name), $cases, |rng| {
                $(let $arg = $crate::Gen::generate(&$gen, rng);)+
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::property!(@cases $cases; $($rest)*);
    };
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::property!(@cases $cases; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::property!(@cases $crate::DEFAULT_CASES; $($rest)*);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if *left != *right {
                    return ::core::result::Result::Err(::std::format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        ::std::format_args!($($fmt)+),
                        left,
                        right
                    ));
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// The draws of `cases` cases of property `name`.
    fn draws(name: &str, cases: u32) -> Vec<u64> {
        let mut out = Vec::new();
        crate::run(name, cases, |rng| {
            out.push((0u64..1_000_000).generate(rng));
            Ok(())
        });
        out
    }

    #[test]
    fn runs_the_requested_cases_with_fixed_seeds() {
        assert_eq!(draws("counted", 17).len(), 17);
        assert_eq!(draws("counted", 17), draws("counted", 17));
        assert_ne!(draws("counted", 17), draws("other", 17));
    }

    #[test]
    #[should_panic(expected = "property `fails_late` failed at case 3 of 10")]
    fn failure_names_the_case() {
        let mut n = 0;
        crate::run("fails_late", 10, |_| {
            n += 1;
            prop_assert!(n < 4, "n reached {}", n);
            Ok(())
        });
    }

    #[test]
    fn generators_respect_their_bounds() {
        let g = (vec((3u8..=5, any::<bool>()), 2..4), -1.0f64..1.0);
        crate::run("bounds", 200, |rng| {
            let (v, f) = g.generate(rng);
            prop_assert!((2..4).contains(&v.len()));
            prop_assert!(v.iter().all(|(b, _)| (3..=5).contains(b)));
            prop_assert!((-1.0..1.0).contains(&f), "{f} out of range");
            Ok(())
        });
    }

    #[test]
    fn filter_map_redraws_rejections() {
        let even = (0u32..100).prop_filter_map("odd", |x| (x % 2 == 0).then_some(x / 2));
        crate::run("filter", 100, |rng| {
            prop_assert!(even.generate(rng) < 50);
            Ok(())
        });
    }

    property! {
        #![cases(5)]
        #[test]
        fn macro_form_runs(x in 0u64..10, pair in (any::<u8>(), 1usize..=2)) {
            prop_assert!(x < 10);
            prop_assert_eq!(pair.1.clamp(1, 2), pair.1, "pair {:?}", pair);
        }
    }
}
