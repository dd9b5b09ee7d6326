//! Offline shim for the subset of `rand_distr` 0.4 this workspace uses:
//! `Normal`, `LogNormal`, and `Exp`, all over `f64`. Sampling uses the
//! Box–Muller transform (normal) and inverse-CDF (exponential) —
//! statistically exact, deterministic given the shimmed `rand` streams.

pub use rand::distributions::Distribution;
use rand::RngCore;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Error {
    /// Standard deviation (or rate) was negative, zero where positive is
    /// required, or non-finite.
    BadParam,
}

#[inline]
fn unit_open_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Uniform in (0, 1]: avoids ln(0) in Box–Muller / inverse-CDF.
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[inline]
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1 = unit_open_f64(rng);
    let u2 = unit_open_f64(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal (Gaussian) distribution.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err(Error::BadParam);
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Log-normal distribution: exp(N(mu, sigma)).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Exponential distribution with rate lambda.
#[derive(Clone, Copy, Debug)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    pub fn new(lambda: f64) -> Result<Self, Error> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(Error::BadParam);
        }
        Ok(Exp { lambda })
    }
}

impl Distribution<f64> for Exp {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        -unit_open_f64(rng).ln() / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = Normal::new(3.0, 2.0).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn exp_mean_is_inverse_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Exp::new(4.0).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean {mean}");
        assert!(xs.iter().all(|x| *x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn lognormal_unit_mean_construction() {
        // LogNormal::new(-s^2/2, s) has mean 1 — the jitter construction
        // used by the cluster engine.
        let mut rng = SmallRng::seed_from_u64(3);
        let s = 0.3;
        let d = LogNormal::new(-s * s / 2.0, s).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn bad_params_rejected() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Exp::new(0.0).is_err());
        assert!(Exp::new(-2.0).is_err());
    }
}
