//! Random-variate distributions built on top of a [`rand::Rng`].
//!
//! The `rand` crate alone provides only uniform sampling; everything the
//! simulator needs (Poisson event counts, Weibull lifetimes, log-normal
//! repair times, categorical ticket categories, …) is implemented here.

use rand::Rng;

use crate::special::ln_gamma;
use crate::{Result, StatsError};

/// A distribution over `f64` that can be sampled with any RNG.
///
/// All continuous distributions in this module implement this trait.
pub trait ContinuousDistribution {
    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The distribution mean.
    fn mean(&self) -> f64;
}

/// A distribution over `u64` counts.
pub trait DiscreteDistribution {
    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// The distribution mean.
    fn mean(&self) -> f64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "lambda", value: lambda });
        }
        Ok(Exponential { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl ContinuousDistribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; 1-u avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.lambda
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// Shape `k < 1` models infant mortality (decreasing hazard), `k = 1` is
/// exponential, `k > 1` models wear-out — the components of the bathtub
/// curve the paper observes in equipment age (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "shape", value: shape });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "scale", value: scale });
        }
        Ok(Weibull { shape, scale })
    }

    /// Hazard function `h(t) = (k/λ)(t/λ)^{k−1}` for `t >= 0`.
    pub fn hazard(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        if t == 0.0 {
            // h(0) is 0 for k>1, k/λ for k==1, +inf for k<1; cap for k<1.
            return if self.shape >= 1.0 {
                if self.shape == 1.0 {
                    1.0 / self.scale
                } else {
                    0.0
                }
            } else {
                f64::INFINITY
            };
        }
        (self.shape / self.scale) * (t / self.scale).powf(self.shape - 1.0)
    }
}

impl ContinuousDistribution for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>();
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and stddev `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `sigma` is finite and non-negative and `mu`
    /// is finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter { name: "mu", value: mu });
        }
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(StatsError::InvalidParameter { name: "sigma", value: sigma });
        }
        Ok(Normal { mu, sigma })
    }
}

impl ContinuousDistribution for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; discard the second variate for simplicity.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }

    fn mean(&self) -> f64 {
        self.mu
    }
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
///
/// Used for repair-time (time-to-resolution) modelling, which is heavily
/// right-skewed in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates a log-normal with log-space mean `mu` and stddev `sigma`.
    ///
    /// # Errors
    ///
    /// See [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        Ok(LogNormal { normal: Normal::new(mu, sigma)? })
    }

    /// Constructs from a target median and a multiplicative spread factor
    /// (the ratio of the 84th percentile to the median).
    ///
    /// # Errors
    ///
    /// Returns an error unless `median > 0` and `spread >= 1`.
    pub fn from_median_spread(median: f64, spread: f64) -> Result<Self> {
        if !median.is_finite() || median <= 0.0 {
            return Err(StatsError::InvalidParameter { name: "median", value: median });
        }
        if !spread.is_finite() || spread < 1.0 {
            return Err(StatsError::InvalidParameter { name: "spread", value: spread });
        }
        Self::new(median.ln(), spread.ln())
    }
}

impl ContinuousDistribution for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }

    fn mean(&self) -> f64 {
        (self.normal.mu + 0.5 * self.normal.sigma * self.normal.sigma).exp()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's product method for small `lambda` and a normal approximation
/// with continuity correction for large `lambda` (> 30), which is accurate
/// enough for event-count simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Errors
    ///
    /// Returns an error unless `lambda` is finite and non-negative.
    pub fn new(lambda: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(StatsError::InvalidParameter { name: "lambda", value: lambda });
        }
        Ok(Poisson { lambda })
    }
}

impl DiscreteDistribution for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda > 30.0 {
            // Normal approximation with continuity correction.
            let n = Normal::new(self.lambda, self.lambda.sqrt()).expect("valid params");
            let v = n.sample(rng) + 0.5;
            return v.max(0.0) as u64;
        }
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    fn mean(&self) -> f64 {
        self.lambda
    }
}

/// Bernoulli distribution over `bool`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution with success probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `p` in `[0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidProbability { value: p });
        }
        Ok(Bernoulli { p })
    }

    /// Draws one trial.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

/// Categorical distribution over indices `0..weights.len()`.
///
/// Sampling is `O(log n)` via a cumulative-weight table.
///
/// # Example
///
/// ```
/// use rainshine_stats::dist::Categorical;
/// use rand::SeedableRng;
///
/// let cat = Categorical::new(&[1.0, 0.0, 3.0])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let idx = cat.sample(&mut rng);
/// assert!(idx == 0 || idx == 2); // index 1 has zero weight
/// # Ok::<(), rainshine_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights
    /// (not necessarily normalized).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty weight list, negative/non-finite
    /// weights, or an all-zero total.
    pub fn new(weights: &[f64]) -> Result<Self> {
        if weights.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidParameter { name: "weight", value: w });
            }
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return Err(StatsError::DegenerateDimension { what: "all categorical weights zero" });
        }
        Ok(Categorical { cumulative })
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let u = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether there are no categories (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    fn sample_mean<D: ContinuousDistribution>(d: &D, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(2.0).unwrap();
        let m = sample_mean(&d, 50_000);
        assert!((m - 0.5).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn exponential_rejects_bad_lambda() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        assert!((w.mean() - 2.0).abs() < 1e-9);
        let m = sample_mean(&w, 50_000);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn weibull_hazard_shapes() {
        let infant = Weibull::new(0.5, 10.0).unwrap();
        assert!(infant.hazard(1.0) > infant.hazard(5.0), "decreasing hazard");
        let wearout = Weibull::new(3.0, 10.0).unwrap();
        assert!(wearout.hazard(5.0) < wearout.hazard(15.0), "increasing hazard");
        assert_eq!(wearout.hazard(-1.0), 0.0);
    }

    #[test]
    fn normal_mean_and_sd_converge() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        let s = crate::describe::Summary::from_slice(&xs).unwrap();
        assert!((s.mean() - 5.0).abs() < 0.05);
        assert!((s.sample_stddev() - 2.0).abs() < 0.05);
    }

    #[test]
    fn lognormal_median_spread() {
        let d = LogNormal::from_median_spread(4.0, 2.0).unwrap();
        let mut r = rng();
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 4.0).abs() < 0.15, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(3.0).unwrap();
        let mut r = rng();
        let m: f64 = (0..50_000).map(|_| d.sample(&mut r) as f64).sum::<f64>() / 50_000.0;
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let d = Poisson::new(100.0).unwrap();
        let mut r = rng();
        let m: f64 = (0..20_000).map(|_| d.sample(&mut r) as f64).sum::<f64>() / 20_000.0;
        assert!((m - 100.0).abs() < 0.5, "mean {m}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let d = Poisson::new(0.0).unwrap();
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0);
    }

    #[test]
    fn bernoulli_frequency() {
        let d = Bernoulli::new(0.3).unwrap();
        let mut r = rng();
        let hits = (0..50_000).filter(|_| d.sample(&mut r)).count();
        let freq = hits as f64 / 50_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
        assert!(Bernoulli::new(1.1).is_err());
        assert!(Bernoulli::new(-0.1).is_err());
    }

    #[test]
    fn categorical_respects_weights() {
        let d = Categorical::new(&[1.0, 0.0, 3.0]).unwrap();
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[d.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn categorical_rejects_degenerate() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[-1.0, 2.0]).is_err());
    }
}
