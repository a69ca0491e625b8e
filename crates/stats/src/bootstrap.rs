//! Percentile bootstrap confidence intervals.
//!
//! Used to attach uncertainty to the normalized failure-rate estimates in the
//! SKU comparison (Q2) and environmental analysis (Q3), where the paper shows
//! error bars.

use rainshine_obs::Obs;
use rainshine_parallel::{derive_seed, par_map_range, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ensure_sample;
use crate::{Result, StatsError};

/// Stream tag for per-replicate bootstrap seeds (see
/// [`rainshine_parallel::derive_seed`]).
const STREAM_BOOTSTRAP: u64 = 0xb007;

/// A two-sided confidence interval with its point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Statistic evaluated on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
    /// Replicates whose statistic came out non-finite and were dropped
    /// from the bootstrap distribution before taking percentiles. A large
    /// value means the interval rests on few effective replicates.
    pub non_finite_replicates: usize,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        (self.lower..=self.upper).contains(&value)
    }
}

/// Percentile bootstrap CI for an arbitrary statistic.
///
/// Resamples `data` with replacement `resamples` times, evaluates `statistic`
/// on each resample, and reports the `(1−level)/2` and `(1+level)/2`
/// percentiles of the bootstrap distribution. Replicates on which the
/// statistic is non-finite (NaN/∞ — e.g. a ratio statistic hitting an
/// all-zero resample of a dirty fleet) are dropped and counted in
/// [`ConfidenceInterval::non_finite_replicates`] rather than aborting.
///
/// # Errors
///
/// Returns an error for empty/non-finite data, `level` outside `(0, 1)`,
/// zero resamples, or ([`StatsError::NonFiniteStatistic`]) when the
/// statistic is non-finite on the original sample or on every replicate.
///
/// # Example
///
/// ```
/// use rainshine_stats::bootstrap::bootstrap_ci;
/// use rainshine_stats::describe;
/// use rand::SeedableRng;
///
/// let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ci = bootstrap_ci(&data, 500, 0.95, &mut rng, |s| {
///     describe::mean(s).expect("non-empty resample")
/// })?;
/// assert!(ci.contains(49.5));
/// # Ok::<(), rainshine_stats::StatsError>(())
/// ```
pub fn bootstrap_ci<R, F>(
    data: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
    statistic: F,
) -> Result<ConfidenceInterval>
where
    R: Rng + ?Sized,
    F: Fn(&[f64]) -> f64,
{
    ensure_sample(data)?;
    if !(0.0 < level && level < 1.0) {
        return Err(StatsError::InvalidProbability { value: level });
    }
    if resamples == 0 {
        return Err(StatsError::DegenerateDimension { what: "zero bootstrap resamples" });
    }
    let estimate = statistic(data);
    let n = data.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; n];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.gen_range(0..n)];
        }
        stats.push(statistic(&buf));
    }
    percentile_interval(estimate, stats, level)
}

/// [`bootstrap_ci`] with per-replicate derived seeds, evaluated in
/// parallel.
///
/// Replicate `i` resamples from its own RNG seeded by
/// `derive_seed(seed, _, i)`, and the bootstrap distribution is
/// assembled in replicate order before sorting — so the interval is a
/// pure function of `(data, resamples, level, seed)` and identical at
/// every thread count. Unlike [`bootstrap_ci`], it is also independent
/// of whatever else a shared `&mut rng` was used for. Records a
/// `stats.bootstrap_ci` span plus `bootstrap.replicates` /
/// `bootstrap.non_finite_replicates` counters on `obs`.
///
/// # Errors
///
/// Same conditions as [`bootstrap_ci`].
pub fn bootstrap_ci_seeded<F>(
    data: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
    parallelism: Parallelism,
    obs: &Obs,
    statistic: F,
) -> Result<ConfidenceInterval>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let mut span = obs.span("stats.bootstrap_ci");
    ensure_sample(data)?;
    if !(0.0 < level && level < 1.0) {
        return Err(StatsError::InvalidProbability { value: level });
    }
    if resamples == 0 {
        return Err(StatsError::DegenerateDimension { what: "zero bootstrap resamples" });
    }
    span.add_items(resamples as u64);
    let estimate = statistic(data);
    let stats = resample_statistics(data, resamples, seed, parallelism, &statistic);
    let result = percentile_interval(estimate, stats, level);
    if let Ok(ci) = &result {
        obs.incr("bootstrap.replicates", resamples as u64);
        obs.incr("bootstrap.non_finite_replicates", ci.non_finite_replicates as u64);
    }
    result
}

/// [`bootstrap_se`] with per-replicate derived seeds, evaluated in
/// parallel (see [`bootstrap_ci_seeded`] for the determinism contract).
///
/// # Errors
///
/// Same conditions as [`bootstrap_se`].
pub fn bootstrap_se_seeded<F>(
    data: &[f64],
    resamples: usize,
    seed: u64,
    parallelism: Parallelism,
    statistic: F,
) -> Result<f64>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    ensure_sample(data)?;
    if resamples < 2 {
        return Err(StatsError::DegenerateDimension { what: "need at least 2 resamples" });
    }
    let stats = resample_statistics(data, resamples, seed, parallelism, &statistic);
    replicate_stddev(stats)
}

/// Assembles a percentile interval from the raw replicate statistics,
/// dropping (and counting) non-finite replicates.
///
/// With all replicates finite this reproduces the historical behaviour
/// exactly: `total_cmp` orders finite floats like `partial_cmp`, and the
/// percentile indices are taken over the same count.
fn percentile_interval(estimate: f64, stats: Vec<f64>, level: f64) -> Result<ConfidenceInterval> {
    if !estimate.is_finite() {
        return Err(StatsError::NonFiniteStatistic { what: "the original sample" });
    }
    let total = stats.len();
    let mut finite: Vec<f64> = stats.into_iter().filter(|s| s.is_finite()).collect();
    let non_finite_replicates = total - finite.len();
    if finite.is_empty() {
        return Err(StatsError::NonFiniteStatistic { what: "every bootstrap replicate" });
    }
    finite.sort_by(f64::total_cmp);
    let m = finite.len();
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((alpha * m as f64).floor() as usize).min(m - 1);
    let hi_idx = (((1.0 - alpha) * m as f64).ceil() as usize).saturating_sub(1).min(m - 1);
    Ok(ConfidenceInterval {
        estimate,
        lower: finite[lo_idx],
        upper: finite[hi_idx],
        level,
        non_finite_replicates,
    })
}

/// Sample standard deviation of the finite replicate statistics.
///
/// Welford accumulation stays sequential and in replicate order so the
/// float arithmetic is identical at every thread count; skipping
/// non-finite replicates preserves the order of the finite ones.
fn replicate_stddev(stats: Vec<f64>) -> Result<f64> {
    let mut w = crate::running::Welford::new();
    for s in stats {
        if s.is_finite() {
            w.push(s);
        }
    }
    if w.count() < 2 {
        return Err(StatsError::NonFiniteStatistic { what: "all but one bootstrap replicate" });
    }
    Ok(w.summary().expect("count >= 2").sample_stddev())
}

/// One statistic per bootstrap replicate, in replicate order.
fn resample_statistics<F>(
    data: &[f64],
    resamples: usize,
    seed: u64,
    parallelism: Parallelism,
    statistic: &F,
) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    let n = data.len();
    par_map_range(parallelism, resamples, |replicate| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_BOOTSTRAP, replicate as u64));
        let resample: Vec<f64> = (0..n).map(|_| data[rng.gen_range(0..n)]).collect();
        statistic(&resample)
    })
}

/// Bootstrap standard error of a statistic (stddev of the bootstrap
/// distribution).
///
/// # Errors
///
/// Same conditions as [`bootstrap_ci`].
pub fn bootstrap_se<R, F>(data: &[f64], resamples: usize, rng: &mut R, statistic: F) -> Result<f64>
where
    R: Rng + ?Sized,
    F: Fn(&[f64]) -> f64,
{
    ensure_sample(data)?;
    if resamples < 2 {
        return Err(StatsError::DegenerateDimension { what: "need at least 2 resamples" });
    }
    let n = data.len();
    let mut buf = vec![0.0; n];
    let mut stats = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.gen_range(0..n)];
        }
        stats.push(statistic(&buf));
    }
    replicate_stddev(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The seeded interval, unobserved.
    fn ci_seeded(
        data: &[f64],
        resamples: usize,
        level: f64,
        seed: u64,
        parallelism: Parallelism,
        statistic: impl Fn(&[f64]) -> f64 + Sync,
    ) -> Result<ConfidenceInterval> {
        bootstrap_ci_seeded(data, resamples, level, seed, parallelism, &Obs::disabled(), statistic)
    }

    #[test]
    fn ci_covers_true_mean() {
        let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let ci = bootstrap_ci(&data, 1000, 0.95, &mut rng, |s| describe::mean(s).unwrap()).unwrap();
        assert!(ci.contains(4.5), "{ci:?}");
        assert!(ci.lower <= ci.estimate && ci.estimate <= ci.upper);
        assert!(ci.width() < 1.0);
    }

    #[test]
    fn narrower_interval_for_lower_level() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let wide =
            bootstrap_ci(&data, 800, 0.99, &mut rng, |s| describe::mean(s).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let narrow =
            bootstrap_ci(&data, 800, 0.80, &mut rng, |s| describe::mean(s).unwrap()).unwrap();
        assert!(narrow.width() < wide.width());
    }

    #[test]
    fn rejects_bad_arguments() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(bootstrap_ci(&[], 10, 0.95, &mut rng, |_| 0.0).is_err());
        assert!(bootstrap_ci(&[1.0], 0, 0.95, &mut rng, |_| 0.0).is_err());
        assert!(bootstrap_ci(&[1.0], 10, 1.5, &mut rng, |_| 0.0).is_err());
    }

    #[test]
    fn se_positive_for_varied_data() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let se = bootstrap_se(&data, 500, &mut rng, |s| describe::mean(s).unwrap()).unwrap();
        assert!(se > 0.0 && se < 5.0);
    }

    #[test]
    fn seeded_bootstrap_matches_across_thread_counts() {
        let data: Vec<f64> = (0..150).map(|i| ((i * 37) % 100) as f64).collect();
        let stat = |s: &[f64]| describe::mean(s).unwrap();
        let seq_ci = ci_seeded(&data, 400, 0.95, 11, Parallelism::Sequential, stat).unwrap();
        let seq_se = bootstrap_se_seeded(&data, 400, 11, Parallelism::Sequential, stat).unwrap();
        for par in [Parallelism::Threads(2), Parallelism::Threads(4), Parallelism::Auto] {
            let ci = ci_seeded(&data, 400, 0.95, 11, par, stat).unwrap();
            let se = bootstrap_se_seeded(&data, 400, 11, par, stat).unwrap();
            assert_eq!(seq_ci, ci, "{par:?}");
            assert_eq!(seq_se, se, "{par:?}");
        }
        // A different seed gives a different interval.
        let other = ci_seeded(&data, 400, 0.95, 12, Parallelism::Sequential, stat).unwrap();
        assert_ne!((seq_ci.lower, seq_ci.upper), (other.lower, other.upper));
    }

    #[test]
    fn seeded_bootstrap_rejects_bad_arguments() {
        let stat = |_: &[f64]| 0.0;
        assert!(ci_seeded(&[], 10, 0.95, 0, Parallelism::Sequential, stat).is_err());
        assert!(ci_seeded(&[1.0], 0, 0.95, 0, Parallelism::Sequential, stat).is_err());
        assert!(ci_seeded(&[1.0], 10, 1.5, 0, Parallelism::Sequential, stat).is_err());
        assert!(bootstrap_se_seeded(&[1.0], 1, 0, Parallelism::Sequential, stat).is_err());
    }

    #[test]
    fn nan_replicates_are_dropped_and_counted() {
        // NaN whenever the resample happens to miss the largest value —
        // the shape of a ratio statistic degenerating on a dirty resample.
        // Pre-PR this panicked at the partial_cmp sort.
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let stat = |s: &[f64]| {
            if s.contains(&39.0) {
                s.iter().sum::<f64>() / s.len() as f64
            } else {
                f64::NAN
            }
        };
        let ci = ci_seeded(&data, 300, 0.95, 5, Parallelism::Sequential, stat).unwrap();
        assert!(ci.non_finite_replicates > 0, "{ci:?}");
        assert!(ci.non_finite_replicates < 300, "{ci:?}");
        assert!(ci.lower.is_finite() && ci.upper.is_finite());
        assert!(ci.lower <= ci.upper);
        // The SE path also survives NaN replicates.
        let se = bootstrap_se_seeded(&data, 300, 5, Parallelism::Sequential, stat).unwrap();
        assert!(se.is_finite() && se > 0.0);
    }

    #[test]
    fn non_finite_estimate_is_a_typed_error() {
        let data = vec![1.0, 2.0, 3.0];
        let err = ci_seeded(&data, 10, 0.95, 0, Parallelism::Sequential, |_| f64::NAN).unwrap_err();
        assert_eq!(err, StatsError::NonFiniteStatistic { what: "the original sample" });
    }

    #[test]
    fn all_nan_replicates_are_a_typed_error() {
        // Finite only on a strictly increasing slice: true for the
        // original sample, (essentially) never for a resample.
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let stat = |s: &[f64]| {
            if s.windows(2).all(|w| w[0] < w[1]) {
                1.0
            } else {
                f64::NAN
            }
        };
        let err = ci_seeded(&data, 50, 0.95, 9, Parallelism::Sequential, stat).unwrap_err();
        assert_eq!(err, StatsError::NonFiniteStatistic { what: "every bootstrap replicate" });
    }

    #[test]
    fn obs_records_bootstrap_replicate_counters() {
        let data: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let obs = rainshine_obs::Obs::enabled();
        let ci = bootstrap_ci_seeded(&data, 200, 0.95, 11, Parallelism::Sequential, &obs, |s| {
            describe::mean(s).unwrap()
        })
        .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counters["bootstrap.replicates"], 200);
        assert_eq!(
            snap.counters["bootstrap.non_finite_replicates"],
            ci.non_finite_replicates as u64
        );
        assert_eq!(snap.stages["stats.bootstrap_ci"].calls, 1);
        assert_eq!(snap.stages["stats.bootstrap_ci"].items, 200);
    }

    #[test]
    fn se_zero_for_constant_data() {
        let data = vec![2.0; 30];
        let mut rng = StdRng::seed_from_u64(3);
        let se = bootstrap_se(&data, 100, &mut rng, |s| describe::mean(s).unwrap()).unwrap();
        assert_eq!(se, 0.0);
    }
}
