//! A seedable, deterministic PRNG: xoshiro256++ with SplitMix64 seeding.
//!
//! All stochastic behaviour in the workspace draws from this generator, so
//! every experiment is reproducible from its seed alone — on any machine,
//! with any toolchain, forever. The algorithm (Blackman & Vigna's
//! xoshiro256++ 1.0) passes BigCrush and is the same family `rand`'s
//! `SmallRng` used on 64-bit targets; the streams themselves are now pinned
//! in-tree instead of floating with an external crate version.

use std::ops::Range;

/// A 256-bit-state xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use splitserve_rt::rng::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// let x: f64 = a.gen_range(0.0..1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

/// Migration alias: call sites ported from `rand::rngs::SmallRng` keep
/// their type name.
pub type SmallRng = Rng;

/// One step of the SplitMix64 sequence, used to expand a 64-bit seed into
/// the 256-bit xoshiro state (the expansion recommended by the authors).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a base seed with a stream index (partition number, task index,
/// …) into a decorrelated derived seed, via the SplitMix64 finalizer.
///
/// This is the canonical per-task seeding rule of the workspace: a task
/// computing partition `p` of a dataset seeded `s` draws from
/// `Rng::seed_from_u64(derive_seed(s, p))`, which is a pure function of
/// `(s, p)` — the same stream whether the task runs inline, on any
/// worker thread, or is recomputed after a failure.
#[inline]
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator for stream `stream` of base seed `seed` —
    /// shorthand for `seed_from_u64(derive_seed(seed, stream))`, the
    /// per-task seeding rule (see `derive_seed`).
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        Rng::seed_from_u64(derive_seed(seed, stream))
    }

    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next 64 uniformly random bits (xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits (high half of [`Self::next_u64`]).
    #[inline]
    pub(crate) fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53: every representable value in [0,1)
        // at that granularity, never 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniformly random value of a primitive type (`u8`…`u64`, signed
    /// integers, `usize`, `bool`, or a `f32`/`f64` in `[0, 1)`).
    #[inline]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (`start >= end`).
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// An unbiased uniform integer in `[0, bound)` (Lemire's method with
    /// rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded_u64 with zero bound");
        // Widening multiply maps the 64-bit stream onto [0, bound); the
        // rejection zone removes the modulo bias exactly.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (self.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffles `xs` in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Fills `dest` with uniformly random bytes.
    pub fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let tail = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&tail[..rest.len()]);
        }
    }
}

/// Types [`Rng::gen`] can produce.
pub trait Sample {
    /// Draws one uniformly random value.
    fn sample(rng: &mut Rng) -> Self;
}

macro_rules! sample_int {
    ($($ty:ty),*) => {$(
        impl Sample for $ty {
            #[inline]
            fn sample(rng: &mut Rng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}
sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Sample for f64 {
    #[inline]
    fn sample(rng: &mut Rng) -> f64 {
        rng.next_f64()
    }
}
impl Sample for f32 {
    #[inline]
    fn sample(rng: &mut Rng) -> f32 {
        // 24 high bits scaled by 2^-24.
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types [`Rng::gen_range`] can draw over a half-open range.
pub trait SampleUniform: Sized {
    /// A uniform value in `[lo, hi)`; panics if the range is empty.
    fn sample_range(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_uint {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_range(rng: &mut Rng, lo: $ty, hi: $ty) -> $ty {
                assert!(lo < hi, "gen_range over empty range: {lo}..{hi}");
                lo + rng.bounded_u64((hi - lo) as u64) as $ty
            }
        }
    )*};
}
uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! uniform_int {
    ($($ty:ty => $u:ty),*) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_range(rng: &mut Rng, lo: $ty, hi: $ty) -> $ty {
                assert!(lo < hi, "gen_range over empty range: {lo}..{hi}");
                let span = (hi as $u).wrapping_sub(lo as $u);
                lo.wrapping_add(rng.bounded_u64(span as u64) as $ty)
            }
        }
    )*};
}
uniform_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! uniform_float {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            #[inline]
            fn sample_range(rng: &mut Rng, lo: $ty, hi: $ty) -> $ty {
                assert!(lo < hi, "gen_range over empty range: {lo}..{hi}");
                let v = lo + (hi - lo) * (rng.next_f64() as $ty);
                // Rounding can land exactly on `hi` when the interval is
                // tiny; fold that boundary case back to `lo` so the range
                // stays half-open.
                if v < hi { v } else { lo }
            }
        }
    )*};
}
uniform_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    impl Rng {
        /// `true` with probability `p`.
        ///
        /// # Panics
        ///
        /// Panics unless `0.0 <= p <= 1.0`.
        fn gen_bool(&mut self, p: f64) -> bool {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
            self.next_f64() < p
        }
    }

    #[test]
    fn derive_seed_is_a_pure_function_of_seed_and_stream() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(0);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let a: u64 = Rng::seed_from_u64(1).gen();
        let b: u64 = Rng::seed_from_u64(2).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }

    #[test]
    fn int_range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle left input in order");
    }

    #[test]
    fn fill_covers_unaligned_tails() {
        let mut rng = Rng::seed_from_u64(6);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|b| *b != 0));
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut rng = Rng::seed_from_u64(7);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }
}
