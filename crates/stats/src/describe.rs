//! Descriptive statistics over finite `f64` samples.

use crate::error::ensure_sample;
use crate::Result;

/// A one-pass summary of a sample: count, mean, variance, extrema.
///
/// Built with [`Summary::from_slice`] or incrementally via
/// [`crate::running::Welford`].
///
/// # Example
///
/// ```
/// use rainshine_stats::describe::Summary;
///
/// let s = Summary::from_slice(&[2.0, 4.0, 6.0])?;
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.sample_stddev(), 2.0);
/// # Ok::<(), rainshine_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StatsError::EmptyInput`] for an empty sample and
    /// [`crate::StatsError::NonFiniteInput`] if any value is NaN or infinite.
    pub fn from_slice(data: &[f64]) -> Result<Self> {
        ensure_sample(data)?;
        let mut w = crate::running::Welford::new();
        for &v in data {
            w.push(v);
        }
        Ok(w.summary().expect("non-empty by construction"))
    }

    pub(crate) fn from_parts(count: usize, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        Summary { count, mean, m2, min, max }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (n−1) sample variance; `0.0` for a single observation.
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

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Arithmetic mean of `data`.
///
/// # Errors
///
/// See [`Summary::from_slice`].
pub fn mean(data: &[f64]) -> Result<f64> {
    Ok(Summary::from_slice(data)?.mean())
}

/// Unbiased sample variance of `data`.
///
/// # Errors
///
/// See [`Summary::from_slice`].
pub fn sample_variance(data: &[f64]) -> Result<f64> {
    Ok(Summary::from_slice(data)?.sample_variance())
}

/// Unbiased sample standard deviation of `data`.
///
/// # Errors
///
/// See [`Summary::from_slice`].
pub fn sample_stddev(data: &[f64]) -> Result<f64> {
    Ok(Summary::from_slice(data)?.sample_stddev())
}

/// Median of `data` (average of the two central order statistics for even
/// sample sizes).
///
/// # Errors
///
/// See [`Summary::from_slice`].
pub fn median(data: &[f64]) -> Result<f64> {
    ensure_sample(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by validation"));
    let n = sorted.len();
    if n % 2 == 1 {
        Ok(sorted[n / 2])
    } else {
        Ok((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let s = Summary::from_slice(&[42.0]).unwrap();
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn rejects_nan() {
        assert!(mean(&[f64::NAN]).is_err());
        assert!(median(&[1.0, f64::INFINITY]).is_err());
    }
}
