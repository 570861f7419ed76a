//! Random distributions used by the cloud and storage models.
//!
//! Implemented in-tree on `splitserve_rt::Rng` — the hermetic build has no
//! external crates at all. All samplers draw from the simulator's seeded
//! RNG, so experiments are reproducible.

use splitserve_rt::Rng;

/// A one-dimensional random distribution.
///
/// # Examples
///
/// ```
/// use splitserve_des::Dist;
/// use splitserve_rt::Rng;
///
/// let mut rng = Rng::seed_from_u64(1);
/// let boot = Dist::normal(110.0, 15.0).clamped(60.0, 240.0);
/// let s = boot.sample(&mut rng);
/// assert!((60.0..=240.0).contains(&s));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Gaussian with the given mean and standard deviation (Box–Muller).
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))`.
    LogNormal {
        /// Mean of the underlying normal (of the log).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given rate (mean `1/rate`).
    Exp {
        /// Rate parameter λ.
        rate: f64,
    },
    /// Pareto with scale `x_m` and shape `alpha` (heavy-tailed).
    Pareto {
        /// Scale (minimum value).
        scale: f64,
        /// Shape (tail index); larger is lighter-tailed.
        shape: f64,
    },
    /// Any distribution, clamped into `[min, max]`.
    Clamped {
        /// The wrapped distribution.
        inner: Box<Dist>,
        /// Inclusive lower clamp.
        min: f64,
        /// Inclusive upper clamp.
        max: f64,
    },
}

impl Dist {
    /// A point mass at `v`.
    pub fn constant(v: f64) -> Dist {
        Dist::Constant(v)
    }

    /// Gaussian with `mean` and standard deviation `sd`.
    pub fn normal(mean: f64, sd: f64) -> Dist {
        assert!(sd >= 0.0, "negative standard deviation: {sd}");
        Dist::Normal { mean, sd }
    }

    /// Log-normal parameterized by the desired mean and standard deviation
    /// of the *resulting* distribution (convenient for latency models).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn log_normal_mean_sd(mean: f64, sd: f64) -> Dist {
        assert!(mean > 0.0, "log-normal mean must be positive: {mean}");
        let cv2 = (sd / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Dist::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Exponential with rate λ (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exp(rate: f64) -> Dist {
        assert!(rate > 0.0, "exponential rate must be positive: {rate}");
        Dist::Exp { rate }
    }

    /// Wraps `self` so samples are clamped into `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn clamped(self, min: f64, max: f64) -> Dist {
        assert!(min <= max, "clamp bounds out of order: [{min}, {max}]");
        Dist::Clamped {
            inner: Box::new(self),
            min,
            max,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => {
                if lo == hi {
                    *lo
                } else {
                    rng.gen_range(*lo..*hi)
                }
            }
            Dist::Normal { mean, sd } => mean + sd * standard_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Exp { rate } => {
                // Inverse-CDF; 1-u avoids ln(0).
                let u: f64 = rng.gen_range(0.0..1.0);
                -(1.0 - u).ln() / rate
            }
            Dist::Pareto { scale, shape } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                scale / (1.0 - u).powf(1.0 / shape)
            }
            Dist::Clamped { inner, min, max } => inner.sample(rng).clamp(*min, *max),
        }
    }

    /// The distribution's mean (exact, not estimated).
    ///
    /// For [`Dist::Clamped`] this returns the *unclamped* inner mean, which
    /// is an approximation documented as such; clamps in this codebase trim
    /// only far tails.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mean, .. } => *mean,
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Exp { rate } => 1.0 / rate,
            Dist::Pareto { scale, shape } => {
                if *shape > 1.0 {
                    shape * scale / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            Dist::Clamped { inner, .. } => inner.mean(),
        }
    }
}

/// One standard-normal sample via the Box–Muller transform.
fn standard_normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dist {
        /// Pareto with `scale` (minimum) and `shape` (tail index).
        ///
        /// # Panics
        ///
        /// Panics if either parameter is non-positive.
        fn pareto(scale: f64, shape: f64) -> Dist {
            assert!(scale > 0.0 && shape > 0.0, "pareto parameters must be positive");
            Dist::Pareto { scale, shape }
        }

        /// Uniform over `[lo, hi)`.
        ///
        /// # Panics
        ///
        /// Panics if `lo > hi`.
        fn uniform(lo: f64, hi: f64) -> Dist {
            assert!(lo <= hi, "uniform bounds out of order: [{lo}, {hi})");
            Dist::Uniform { lo, hi }
        }
    }

    fn sample_stats(d: &Dist, n: usize) -> (f64, f64) {
        let mut rng = Rng::seed_from_u64(99);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn constant_is_constant() {
        let (mean, sd) = sample_stats(&Dist::constant(4.2), 100);
        assert!((mean - 4.2).abs() < 1e-12);
        assert!(sd.abs() < 1e-9);
    }

    #[test]
    fn uniform_stays_in_bounds_and_centers() {
        let d = Dist::uniform(2.0, 6.0);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let (mean, _) = sample_stats(&d, 20_000);
        assert!((mean - 4.0).abs() < 0.05, "uniform mean off: {mean}");
    }

    #[test]
    fn normal_matches_moments() {
        let d = Dist::normal(10.0, 3.0);
        let (mean, sd) = sample_stats(&d, 50_000);
        assert!((mean - 10.0).abs() < 0.1, "normal mean off: {mean}");
        assert!((sd - 3.0).abs() < 0.1, "normal sd off: {sd}");
    }

    #[test]
    fn exp_matches_mean() {
        let d = Dist::exp(0.5);
        let (mean, _) = sample_stats(&d, 50_000);
        assert!((mean - 2.0).abs() < 0.1, "exp mean off: {mean}");
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn log_normal_mean_sd_hits_target_mean() {
        let d = Dist::log_normal_mean_sd(0.05, 0.02);
        let (mean, _) = sample_stats(&d, 50_000);
        assert!((mean - 0.05).abs() < 0.002, "lognormal mean off: {mean}");
        assert!((d.mean() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let d = Dist::pareto(1.0, 3.0);
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert_eq!(Dist::pareto(1.0, 0.5).mean(), f64::INFINITY);
    }

    #[test]
    fn clamp_trims_tails() {
        let d = Dist::normal(0.0, 100.0).clamped(-1.0, 1.0);
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Dist::normal(5.0, 2.0);
        let mut a = Rng::seed_from_u64(3);
        let mut b = Rng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
