//! Random-variate distributions built on top of a [`rand::Rng`].
//!
//! The `rand` crate alone provides only uniform sampling; everything the
//! simulator needs (Poisson event counts, log-normal repair times,
//! categorical ticket days) is implemented here.

use rand::Rng;

use crate::{Result, StatsError};

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Normal {
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
    fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter { name: "mu", value: mu });
        }
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(StatsError::InvalidParameter { name: "sigma", value: sigma });
        }
        Ok(Normal { mu, sigma })
    }

    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; discard the second variate for simplicity.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
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
    /// Returns an error unless `sigma` is finite and non-negative and `mu`
    /// is finite.
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

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's product method for small `lambda` and a normal approximation
/// with continuity correction for large `lambda` (> 30), which is accurate
/// enough for event-count simulation.
///
/// Knuth's method returns 0 exactly when its first uniform `u` satisfies
/// `u ≤ exp(−λ)`. Since `exp(−λ) ≥ 1 − λ`, a `u` below
/// `1 − λ − ZERO_DRAW_MARGIN` returns 0 without evaluating `exp`; the
/// margin covers the rounding of both sides, so the count and the uniforms
/// consumed are exactly those of the plain method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

/// Slack of the zero-draw shortcut in [`Poisson`]'s sampler: about 4500
/// ulps of 1.0, where the computed `1 − λ − margin` and `exp(−λ)` are each
/// within a few ulps of their exact values.
const ZERO_DRAW_MARGIN: f64 = 1e-12;

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

    /// Draws one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda > 30.0 {
            // Normal approximation with continuity correction; `new` has
            // already checked that `lambda` is finite and positive.
            let n = Normal { mu: self.lambda, sigma: self.lambda.sqrt() };
            let v = n.sample(rng) + 0.5;
            return v.max(0.0) as u64;
        }
        let u = rng.gen::<f64>();
        if u < 1.0 - self.lambda - ZERO_DRAW_MARGIN {
            return 0;
        }
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = u;
        loop {
            if p <= l {
                return k;
            }
            k += 1;
            p *= rng.gen::<f64>();
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn normal_mean_and_sd_converge() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let mut r = rng();
        let mut s = crate::running::Welford::default();
        for _ in 0..50_000 {
            s.push(d.sample(&mut r));
        }
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

    /// The Poisson sampler without the zero-draw shortcut: Knuth's product
    /// method from a product of 1, and the normal approximation above 30.
    fn knuth_reference<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let n = Normal::new(lambda, lambda.sqrt()).expect("valid params");
            let v = n.sample(rng) + 0.5;
            return v.max(0.0) as u64;
        }
        let l = (-lambda).exp();
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

    /// Replays fixed words, so a test can pick the uniforms a sampler sees.
    struct Words(std::vec::IntoIter<u64>);

    impl rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().unwrap_or(0)
        }
    }

    /// The word whose uniform is `u`, for `u` a multiple of 2⁻⁵³ in [0, 1).
    fn word_of(u: f64) -> u64 {
        ((u * (1u64 << 53) as f64) as u64) << 11
    }

    /// Both samplers on the same words must return the same count and
    /// leave the same words unread.
    fn assert_same_draw(lambda: f64, words: Vec<u64>) {
        let (mut fast, mut slow) = (Words(words.clone().into_iter()), Words(words.into_iter()));
        let d = Poisson::new(lambda).unwrap();
        assert_eq!(d.sample(&mut fast), knuth_reference(lambda, &mut slow), "lambda {lambda}");
        assert_eq!(fast.0.len(), slow.0.len(), "lambda {lambda}: uniforms consumed");
    }

    #[test]
    fn poisson_zero_draw_shortcut_is_exact_at_its_boundary() {
        // The uniforms within a few thousand ulps of both the shortcut's
        // threshold and `exp(−λ)`, where a wrong margin would show.
        let mut lambdas = vec![f64::MIN_POSITIVE, 1e-300, 1e-16, 1e-13, 1e-12, 1e-9, 1e-6];
        lambdas.extend([1e-3, 1e-2, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.5]);
        let ulp = f64::EPSILON / 2.0;
        for lambda in lambdas {
            for centre in [1.0 - lambda - ZERO_DRAW_MARGIN, (-lambda).exp()] {
                for step in -3000i32..=3000 {
                    let u = centre + f64::from(step) * ulp;
                    if (0.0..1.0).contains(&u) {
                        assert_same_draw(lambda, vec![word_of(u), word_of(0.5), u64::MAX]);
                    }
                }
            }
        }
    }

    /// λ in [0, 40], weighted towards tiny λ, λ near 1 and λ above 30.
    fn lambda_strategy() -> impl Strategy<Value = f64> {
        (0u8..5, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 => 10f64.powf(-15.0 + 15.0 * x),
            1 => 1.0 + (x - 0.5) * 1e-3,
            2 => 30.0 + 10.0 * x,
            3 => 40.0 * x,
            _ => 0.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn poisson_matches_knuth_reference(lambda in lambda_strategy(), seed in 0u64..u64::MAX) {
            let d = Poisson::new(lambda).unwrap();
            let (mut fast, mut slow) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..1_000 {
                prop_assert_eq!(d.sample(&mut fast), knuth_reference(lambda, &mut slow));
            }
            prop_assert_eq!(fast.next_u64(), slow.next_u64(), "RNG position, lambda {}", lambda);
        }
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
