//! Streaming (online) statistics.

/// Welford's online algorithm for count, mean and variance.
///
/// Numerically stable for long streams; every "mean ± sd per group" series
/// the analyses report is one of these per group. [`Default`] is the empty
/// accumulator.
///
/// # Example
///
/// ```
/// use rainshine_stats::running::Welford;
///
/// let mut w = Welford::default();
/// for v in [1.0, 2.0, 3.0] {
///     w.push(v);
/// }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.sample_variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Adds one observation.
    ///
    /// Non-finite values are ignored (the caller is expected to have
    /// validated inputs; this keeps the accumulator total-function safe).
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; `0.0` while empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (n−1) sample variance; `0.0` for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(data: &[f64]) -> Welford {
        let mut w = Welford::default();
        for &v in data {
            w.push(v);
        }
        w
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        let w = of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w.count(), 4);
        assert_eq!(w.mean(), 2.5);
        assert!((w.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert!((w.sample_stddev() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [0.5, 1.5, -2.0, 7.25, 3.0, 3.0];
        let w = of(&data);
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let w = of(&[42.0]);
        assert_eq!((w.count(), w.mean(), w.sample_variance()), (1, 42.0, 0.0));
    }

    #[test]
    fn ignores_non_finite() {
        let w = of(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(w, Welford::default());
        let w = of(&[1.0, f64::NAN, 3.0]);
        assert_eq!((w.count(), w.mean()), (2, 2.0));
    }
}
