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

/// Inverse-CDF (type 1) quantile of a sparse distribution: `total`
/// observations of which only `sorted_nonzero` are explicit; the
/// remaining `total − sorted_nonzero.len()` are an implicit mass of
/// zeros sorting below every explicit value.
///
/// This is the single rank definition shared by the telemetry
/// `WindowedSeries` λ/μ distributions and the Q1 rack-deficit quantiles: with `q` clamped to `[0, 1]`, the 1-based
/// rank is `ceil(q · total)` floored at 1, the result is the default
/// value (zero) while the rank falls inside the zero mass, and the
/// explicit values are indexed by `rank − zeros` beyond it.
///
/// `sorted_nonzero` must be sorted ascending (debug-asserted). If it has
/// more entries than `total` — a malformed sparse series — the zero mass
/// saturates at zero instead of underflowing, and ranks past the end
/// clamp to the maximum.
pub fn quantile_with_zeros<T>(sorted_nonzero: &[T], total: u64, q: f64) -> T
where
    T: Copy + Default + PartialOrd,
{
    debug_assert!(
        sorted_nonzero.windows(2).all(|w| w[0] <= w[1]),
        "quantile_with_zeros requires sorted values"
    );
    if total == 0 {
        return T::default();
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let zeros = total - (sorted_nonzero.len() as u64).min(total);
    if rank <= zeros || sorted_nonzero.is_empty() {
        return T::default();
    }
    let idx = (rank - zeros - 1) as usize;
    sorted_nonzero[idx.min(sorted_nonzero.len() - 1)]
}

/// Interpolated quantile (R type-7, the R/NumPy default) of a sample.
///
/// Unlike [`quantile_with_zeros`] this interpolates between order
/// statistics.
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

    #[test]
    fn zero_mass_quantile_rank_semantics() {
        // 7 zeros + [1, 5, 9]: ranks 1..=7 are zero, 8 → 1, 9 → 5, 10 → 9.
        let nonzero = [1u64, 5, 9];
        assert_eq!(quantile_with_zeros(&nonzero, 10, 0.0), 0);
        assert_eq!(quantile_with_zeros(&nonzero, 10, 0.7), 0); // rank 7
        assert_eq!(quantile_with_zeros(&nonzero, 10, 0.71), 1); // rank 8
        assert_eq!(quantile_with_zeros(&nonzero, 10, 0.8), 1);
        assert_eq!(quantile_with_zeros(&nonzero, 10, 0.9), 5);
        assert_eq!(quantile_with_zeros(&nonzero, 10, 1.0), 9);
    }

    #[test]
    fn zero_mass_quantile_degenerate_inputs() {
        // Empty distribution.
        assert_eq!(quantile_with_zeros::<u64>(&[], 0, 0.5), 0);
        // All-zero distribution.
        assert_eq!(quantile_with_zeros::<u64>(&[], 4, 1.0), 0);
        // Malformed: more explicit values than total observations must
        // saturate the zero mass rather than underflow.
        assert_eq!(quantile_with_zeros(&[2u64, 3], 1, 1.0), 2);
        // Works for floats with no zero mass.
        assert_eq!(quantile_with_zeros(&[1.5f64, 2.5], 2, 0.5), 1.5);
    }
}
