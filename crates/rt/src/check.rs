//! A deterministic property-testing harness.
//!
//! `proptest` is not available in the hermetic build, and its shrinking
//! machinery is more than these suites need: every simulator run is already
//! a pure function of its seed, so "the failing seed" *is* the minimal
//! reproducer. [`run`] executes a property over a fixed budget of seeded
//! cases; when a case fails it reports the case seed so the failure can be
//! replayed exactly with `SPLITSERVE_CHECK_SEED=<seed> cargo test`.
//!
//! # Examples
//!
//! ```
//! use splitserve_rt::check;
//!
//! check::run("addition_commutes", 64, |g| {
//!     let a: u32 = g.rng().gen();
//!     let b: u32 = g.rng().gen();
//!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::Rng;

/// Environment variable that replays a single failing case by seed.
pub(crate) const SEED_ENV: &str = "SPLITSERVE_CHECK_SEED";

/// A source of random test inputs for one property case.
///
/// Wraps an [`Rng`] with generation helpers for the shapes the suites
/// need: bounded collections, strings and free-form scalars.
///
/// Test aid: only property tests use a `Gen` and its generators.
#[derive(Debug)]
pub struct Gen {
    rng: Rng,
}

impl Gen {
    /// A generator for case seed `seed`.
    pub(crate) fn from_seed(seed: u64) -> Gen {
        Gen {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The underlying PRNG, for free-form draws.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// A uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// A `bool` with probability 1/2.
    pub fn bool(&mut self) -> bool {
        self.rng.gen()
    }

    /// An `f64` with a fully random bit pattern (may be NaN, ±∞ or
    /// subnormal) — for bitwise round-trip properties.
    pub fn f64_bits(&mut self) -> f64 {
        f64::from_bits(self.rng.gen())
    }

    /// An `f32` with a fully random bit pattern.
    pub fn f32_bits(&mut self) -> f32 {
        f32::from_bits(self.rng.gen())
    }

    /// A `Vec` of `len ∈ [lo, hi)` elements drawn by `f`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(lo, hi.max(lo + 1));
        (0..n).map(|_| f(self)).collect()
    }

    /// A random byte vector with `len ∈ [lo, hi)`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let n = self.usize_in(lo, hi.max(lo + 1));
        let mut v = vec![0u8; n];
        self.rng.fill(&mut v);
        v
    }

    /// An ASCII-lowercase string with `len ∈ [lo, hi)`.
    pub fn lowercase(&mut self, lo: usize, hi: usize) -> String {
        let n = self.usize_in(lo, hi.max(lo + 1));
        (0..n)
            .map(|_| (b'a' + self.rng.bounded_u64(26) as u8) as char)
            .collect()
    }

    /// A string of `len ∈ [lo, hi)` arbitrary Unicode scalar values
    /// (resampled past the surrogate gap).
    pub fn string(&mut self, lo: usize, hi: usize) -> String {
        let n = self.usize_in(lo, hi.max(lo + 1));
        (0..n)
            .map(|_| loop {
                if let Some(c) = char::from_u32(self.rng.next_u32() % 0x11_0000) {
                    break c;
                }
            })
            .collect()
    }
}

/// FNV-1a over the property name: a stable per-property base seed, so every
/// property explores its own deterministic case sequence.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `property` over `cases` deterministic seeded cases.
///
/// Each case gets a fresh [`Gen`] whose seed is derived from the property
/// name and case index. If the property panics, the harness reports the
/// case seed and re-raises the panic; setting `SEED_ENV` replays exactly
/// that one case.
///
/// # Panics
///
/// Re-raises the first failing case's panic after printing the reproducer.
pub fn run<F: FnMut(&mut Gen)>(name: &str, cases: u32, mut property: F) {
    if let Ok(fixed) = std::env::var(SEED_ENV) {
        let seed: u64 = fixed
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV} must be a u64, got {fixed:?}"));
        eprintln!("check '{name}': replaying single case with seed {seed}");
        property(&mut Gen::from_seed(seed));
        return;
    }
    let base = name_seed(name);
    for case in 0..cases {
        // SplitMix64-style derivation keeps case seeds decorrelated even
        // though (base, case) pairs are structured.
        let mut mix = base ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mix = (mix ^ (mix >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let seed = mix ^ (mix >> 27);
        let result = catch_unwind(AssertUnwindSafe(|| property(&mut Gen::from_seed(seed))));
        if let Err(payload) = result {
            eprintln!(
                "check '{name}' failed at case {case}/{cases} (seed {seed}); \
                 replay with {SEED_ENV}={seed}"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        run("counts_cases", 10, |_| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run("always_fails", 5, |_| panic!("boom"));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn case_seeds_are_deterministic() {
        let mut a = Vec::new();
        run("seed_capture", 5, |g| a.push(g.u64()));
        let mut b = Vec::new();
        run("seed_capture", 5, |g| b.push(g.u64()));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] != w[1]), "cases must differ");
    }

    #[test]
    fn generators_respect_bounds() {
        run("generator_bounds", 32, |g| {
            assert!((3..10).contains(&g.usize_in(3, 10)));
            assert!((-1.0..1.0).contains(&g.f64_in(-1.0, 1.0)));
            let v = g.vec(0, 5, |g| g.bool());
            assert!(v.len() < 5);
            let s = g.lowercase(1, 8);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let u = g.string(0, 6);
            assert!(u.chars().count() < 6);
        });
    }
}
