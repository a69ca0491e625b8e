//! Empirical cumulative distribution functions and quantiles.
//!
//! Spare provisioning in the paper (Q1, Figs. 1, 10–13) is driven entirely by
//! CDFs of the concurrent-failure metric μ; this module is the foundation.

use crate::error::ensure_sample;
use crate::Result;

/// The step-function support points `(x_i, F(x_i))` of the empirical CDF
/// of `sample`, deduplicated on x — ready for plotting a CDF curve like
/// the paper's Fig. 11. The x values strictly increase, and so do the F
/// values, which lie in `(0, 1]` and end at exactly `1.0`.
///
/// The sample is sorted by [`f64::total_cmp`], which orders `-0.0` before
/// `0.0` where `==` merges them; the plotted samples are non-negative
/// percentages, so `-0.0` never arises.
///
/// # Errors
///
/// Returns [`crate::StatsError::EmptyInput`] for an empty sample and
/// [`crate::StatsError::NonFiniteInput`] for NaN/infinite values.
///
/// # Example
///
/// ```
/// use rainshine_stats::ecdf::steps;
///
/// let s = steps(&[2.0, 1.0, 2.0, 3.0])?;
/// assert_eq!(s, vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
/// # Ok::<(), rainshine_stats::StatsError>(())
/// ```
pub fn steps(sample: &[f64]) -> Result<Vec<(f64, f64)>> {
    ensure_sample(sample)?;
    let mut sorted = sample.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (i, &v) in sorted.iter().enumerate() {
        let f = (i + 1) as f64 / n;
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 = f,
            _ => out.push((v, f)),
        }
    }
    Ok(out)
}

/// Interpolated quantile (R type-7, the R/NumPy default) of a sample:
/// interpolates between order statistics.
///
/// # Errors
///
/// Returns an error for empty or non-finite samples, or `q` outside `[0, 1]`.
pub fn quantile_interpolated(data: &[f64], q: f64) -> Result<f64> {
    ensure_sample(data)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(crate::StatsError::InvalidProbability { value: q });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by validation"));
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_dedupe_ties() {
        let points = steps(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(points, vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
    }

    #[test]
    fn interpolated_quantile_median() {
        let q = quantile_interpolated(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
        assert_eq!(q, 2.5);
        let q = quantile_interpolated(&[7.0], 0.99).unwrap();
        assert_eq!(q, 7.0);
    }

    #[test]
    fn interpolated_quantile_rejects_bad_q() {
        assert!(quantile_interpolated(&[1.0], 1.5).is_err());
        assert!(quantile_interpolated(&[], 0.5).is_err());
    }
}
