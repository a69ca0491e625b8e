//! Streaming (online) statistics.

use crate::describe::Summary;

/// Welford's online algorithm for mean and variance, plus extrema.
///
/// Numerically stable for long streams; used by the simulator's metric
/// aggregation where samples arrive hour by hour.
///
/// # Example
///
/// ```
/// use rainshine_stats::running::Welford;
///
/// let mut w = Welford::new();
/// for v in [1.0, 2.0, 3.0] {
///     w.push(v);
/// }
/// let s = w.summary().unwrap();
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.sample_variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

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
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Finalizes into a [`Summary`], or `None` if empty.
    pub fn summary(&self) -> Option<Summary> {
        (self.count > 0)
            .then(|| Summary::from_parts(self.count, self.mean, self.m2, self.min, self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::Summary;

    #[test]
    fn matches_batch_summary() {
        let data = [0.5, 1.5, -2.0, 7.25, 3.0, 3.0];
        let mut w = Welford::new();
        for v in data {
            w.push(v);
        }
        let online = w.summary().unwrap();
        let batch = Summary::from_slice(&data).unwrap();
        assert!((online.mean() - batch.mean()).abs() < 1e-12);
        assert!((online.sample_variance() - batch.sample_variance()).abs() < 1e-12);
        assert_eq!(online.min(), batch.min());
        assert_eq!(online.max(), batch.max());
    }

    #[test]
    fn ignores_non_finite() {
        let mut w = Welford::new();
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        assert_eq!(w.count(), 0);
        assert!(w.summary().is_none());
    }
}
