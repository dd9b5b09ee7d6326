//! Offline shim for the subset of `rand` 0.8 this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal, deterministic implementation: `SmallRng` is
//! xoshiro256++ seeded through SplitMix64 (the same construction real
//! `rand` 0.8 uses for its 64-bit `SmallRng`), plus the `Rng` /
//! `SeedableRng` / `SliceRandom` surfaces and a uniform `Standard`
//! distribution. Statistical quality matches the upstream generator;
//! exact streams differ, which is fine — nothing in the workspace pins
//! upstream bit-streams.

pub mod distributions;
pub mod rngs;
pub mod seq;

pub use distributions::{Distribution, Standard};

/// Low-level uniform bit source.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Sampling conveniences over any [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of `T` from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
        Self: Sized,
    {
        Standard.sample(self)
    }

    /// Uniform sample from a range (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }

    /// Iterator of samples from `distr`, consuming the RNG.
    fn sample_iter<T, D>(self, distr: D) -> distributions::DistIter<D, Self, T>
    where
        D: Distribution<T>,
        Self: Sized,
    {
        distributions::DistIter::new(distr, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range that can produce uniform samples of `T`.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

#[inline]
fn u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Multiply-shift (Lemire) without the rejection step: bias is
    // ≤ span/2^64, far below anything a simulation can observe.
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 53 random mantissa bits → uniform in [0, 1).
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + u64_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + u64_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u32, u64, usize, i32, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty gen_range");
        lo + (hi - lo) * unit_f64(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u8 = rng.gen_range(0..=127);
            assert!(x <= 127);
            let y: f64 = rng.gen_range(0.5..2.0);
            assert!((0.5..2.0).contains(&y));
            let z: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&z));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = SmallRng::seed_from_u64(9);
        let xs: Vec<f64> = (0..1000).map(|_| rng.gen::<f64>()).collect();
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }
}
