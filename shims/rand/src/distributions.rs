//! Distribution trait and the uniform `Standard` distribution.

use crate::{unit_f64, RngCore};

/// Types that can produce samples of `T` from raw randomness.
pub trait Distribution<T> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "natural" uniform distribution: full range for integers,
/// `[0, 1)` for floats, fair coin for `bool`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Standard;

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            #[inline]
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u32, u64, usize);

impl Distribution<f64> for Standard {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Distribution<bool> for Standard {
    #[inline]
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Iterator yielding an endless stream of samples.
pub struct DistIter<D, R, T> {
    distr: D,
    rng: R,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<D, R, T> DistIter<D, R, T> {
    pub(crate) fn new(distr: D, rng: R) -> Self {
        DistIter {
            distr,
            rng,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<D, R, T> Iterator for DistIter<D, R, T>
where
    D: Distribution<T>,
    R: RngCore,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        Some(self.distr.sample(&mut self.rng))
    }
}
