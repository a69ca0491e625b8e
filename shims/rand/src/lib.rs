//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements exactly the slice of the `rand 0.8` API the workspace
//! uses: `StdRng::seed_from_u64`, `Rng::{gen, gen_range}`, and
//! `seq::SliceRandom::shuffle`.
//!
//! `StdRng` here is xoshiro256++ seeded through SplitMix64 — not the
//! ChaCha12 generator upstream uses — so absolute streams differ from
//! upstream `rand`, but every consumer in this workspace only relies on
//! *reproducibility for a fixed seed*, which this crate guarantees.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Returns the next uniformly distributed 64-bit word.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generator constructors.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be sampled uniformly from an `RngCore` (the shim's
/// equivalent of sampling from rand's `Standard` distribution).
pub trait StandardSample {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    ///
    /// Panics when the range is empty, matching upstream `rand`.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Debiased uniform draw in `[0, span)` (Lemire-style rejection).
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone keeps the draw exactly uniform.
    let zone = u64::MAX - (u64::MAX - span + 1) % span;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

/// High-level sampling helpers, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++
    /// with SplitMix64 seed expansion.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Slice sampling helpers.

    use super::{Rng, RngCore};

    /// Random operations over slices.
    pub trait SliceRandom {
        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn shuffle_permutes_in_place() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn works_through_dyn_like_unsized_bounds() {
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(1);
        let v = draw(&mut rng);
        assert!(v < 10);
    }
}
