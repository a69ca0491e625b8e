//! Survival analysis for component lifetimes.
//!
//! Reliability studies of the paper's kind routinely discuss lifetimes,
//! MTTF, and bathtub hazards (its refs. \[41\], \[46\]). This module provides
//! the standard right-censored machinery:
//!
//! * the Kaplan–Meier product-limit estimator of the survival function,
//! * a life-table hazard-rate estimate over age bins,
//! * maximum-likelihood Weibull fitting (shape < 1 ⇒ infant mortality,
//!   shape > 1 ⇒ wear-out), used by the integration tests to check that the
//!   simulator's planted lifetime structure is recoverable.

use crate::error::ensure_finite;
use crate::{Result, StatsError};

/// One observed lifetime: a duration and whether the failure was observed
/// (`false` means the observation was right-censored — still alive when the
/// study ended).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lifetime {
    /// Time on test.
    pub time: f64,
    /// `true` if the unit failed at `time`; `false` if censored.
    pub failed: bool,
}

impl Lifetime {
    /// An observed failure at `time`.
    pub fn failure(time: f64) -> Self {
        Lifetime { time, failed: true }
    }

    /// A right-censored observation at `time`.
    pub fn censored(time: f64) -> Self {
        Lifetime { time, failed: false }
    }
}

fn validate_lifetimes(data: &[Lifetime]) -> Result<()> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    for (index, l) in data.iter().enumerate() {
        if !l.time.is_finite() || l.time < 0.0 {
            return Err(StatsError::NonFiniteInput { index });
        }
    }
    Ok(())
}

/// One step of a Kaplan–Meier curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmStep {
    /// Failure time.
    pub time: f64,
    /// Units at risk just before `time`.
    pub at_risk: usize,
    /// Failures at `time`.
    pub failures: usize,
    /// Survival estimate S(t) just after `time`.
    pub survival: f64,
}

/// The Kaplan–Meier product-limit estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct KaplanMeier {
    steps: Vec<KmStep>,
}

impl KaplanMeier {
    /// Fits the estimator to right-censored lifetimes.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty sample or non-finite/negative times.
    pub fn fit(data: &[Lifetime]) -> Result<Self> {
        validate_lifetimes(data)?;
        let mut sorted: Vec<Lifetime> = data.to_vec();
        sorted.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite by validation"));
        let mut steps = Vec::new();
        let mut survival = 1.0;
        let n = sorted.len();
        let mut i = 0;
        while i < n {
            let t = sorted[i].time;
            let at_risk = n - i;
            let mut failures = 0;
            while i < n && sorted[i].time == t {
                if sorted[i].failed {
                    failures += 1;
                }
                i += 1;
            }
            if failures > 0 {
                survival *= 1.0 - failures as f64 / at_risk as f64;
                steps.push(KmStep { time: t, at_risk, failures, survival });
            }
        }
        Ok(KaplanMeier { steps })
    }

    /// The survival steps (only failure times appear).
    pub fn steps(&self) -> &[KmStep] {
        &self.steps
    }

    /// `S(t)`: estimated probability of surviving beyond `t`.
    pub fn survival_at(&self, t: f64) -> f64 {
        let idx = self.steps.partition_point(|s| s.time <= t);
        if idx == 0 {
            1.0
        } else {
            self.steps[idx - 1].survival
        }
    }

    /// Median lifetime, or `None` if the curve never drops to 0.5
    /// (heavy censoring).
    pub fn median(&self) -> Option<f64> {
        self.steps.iter().find(|s| s.survival <= 0.5).map(|s| s.time)
    }
}

/// A life-table hazard estimate: failures per unit-time-at-risk within each
/// age bin.
///
/// # Errors
///
/// Returns an error for empty data, non-finite times, or non-increasing
/// bin edges.
pub fn hazard_by_age(data: &[Lifetime], edges: &[f64]) -> Result<Vec<(String, f64)>> {
    validate_lifetimes(data)?;
    ensure_finite(edges)?;
    if edges.is_empty() || edges.windows(2).any(|w| w[0] >= w[1]) {
        return Err(StatsError::DegenerateDimension { what: "hazard bins need ascending edges" });
    }
    let binner = crate::hist::Binner::from_edges(edges.to_vec())?;
    let bins = binner.bin_count();
    let mut failures = vec![0.0; bins];
    let mut exposure = vec![0.0; bins];
    // Each unit contributes exposure to every bin it lives through.
    let mut bounds = Vec::with_capacity(bins + 1);
    bounds.push(0.0);
    bounds.extend_from_slice(edges);
    bounds.push(f64::INFINITY);
    for l in data {
        for b in 0..bins {
            let lo = bounds[b];
            let hi = bounds[b + 1];
            if l.time <= lo {
                break;
            }
            exposure[b] += l.time.min(hi) - lo;
            if l.failed && l.time <= hi {
                failures[b] += 1.0;
                break;
            }
        }
    }
    Ok((0..bins)
        .map(|b| {
            let h = if exposure[b] > 0.0 { failures[b] / exposure[b] } else { 0.0 };
            (binner.label(b), h)
        })
        .collect())
}

/// A fitted Weibull model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullFit {
    /// Shape parameter k (< 1: infant mortality, > 1: wear-out).
    pub shape: f64,
    /// Scale parameter λ.
    pub scale: f64,
    /// Newton iterations used.
    pub iterations: usize,
}

/// Maximum-likelihood Weibull fit for right-censored lifetimes.
///
/// Solves the profile-likelihood shape equation by bisection + Newton
/// polishing; the scale then has a closed form.
///
/// # Errors
///
/// Returns an error for empty input, non-finite times, or a sample without
/// at least two distinct observed failure times (the MLE is undefined).
pub fn weibull_mle(data: &[Lifetime]) -> Result<WeibullFit> {
    validate_lifetimes(data)?;
    let failures: Vec<f64> =
        data.iter().filter(|l| l.failed && l.time > 0.0).map(|l| l.time).collect();
    {
        let mut distinct = failures.clone();
        distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        distinct.dedup();
        if distinct.len() < 2 {
            return Err(StatsError::DegenerateDimension {
                what: "weibull mle needs >= 2 distinct failure times",
            });
        }
    }
    let times: Vec<f64> = data.iter().map(|l| l.time.max(1e-12)).collect();
    let r = failures.len() as f64;
    let sum_log_fail: f64 = failures.iter().map(|t| t.ln()).sum();
    // Profile equation g(k) = Σ t^k ln t / Σ t^k − 1/k − (Σ ln t_f)/r = 0,
    // monotone increasing in k.
    let g = |k: f64| {
        let mut num = 0.0;
        let mut den = 0.0;
        for &t in &times {
            let tk = t.powf(k);
            num += tk * t.ln();
            den += tk;
        }
        num / den - 1.0 / k - sum_log_fail / r
    };
    let mut lo = 1e-3;
    let mut hi = 50.0;
    if g(lo) > 0.0 || g(hi) < 0.0 {
        return Err(StatsError::DegenerateDimension { what: "weibull shape outside [0.001, 50]" });
    }
    let mut iterations = 0;
    for _ in 0..200 {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        if g(mid) > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-10 {
            break;
        }
    }
    let shape = 0.5 * (lo + hi);
    let sum_tk: f64 = times.iter().map(|t| t.powf(shape)).sum();
    let scale = (sum_tk / r).powf(1.0 / shape);
    Ok(WeibullFit { shape, scale, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One Weibull(`shape`, `scale`) lifetime by inverse CDF from a single
    /// uniform draw (`1 - u` avoids `ln(0)`).
    fn weibull_draw(shape: f64, scale: f64, rng: &mut StdRng) -> f64 {
        let u: f64 = rng.gen::<f64>();
        scale * (-(1.0 - u).ln()).powf(1.0 / shape)
    }

    #[test]
    fn km_no_censoring_matches_empirical() {
        // 4 failures at distinct times: S drops by 1/4 at each.
        let data: Vec<Lifetime> =
            [1.0, 2.0, 3.0, 4.0].iter().map(|&t| Lifetime::failure(t)).collect();
        let km = KaplanMeier::fit(&data).unwrap();
        assert_eq!(km.survival_at(0.5), 1.0);
        assert!((km.survival_at(1.0) - 0.75).abs() < 1e-12);
        assert!((km.survival_at(2.5) - 0.50).abs() < 1e-12);
        assert!((km.survival_at(10.0) - 0.0).abs() < 1e-12);
        assert_eq!(km.median(), Some(2.0));
    }

    #[test]
    fn km_censoring_reduces_risk_set_not_survival() {
        let data = vec![
            Lifetime::failure(1.0),
            Lifetime::censored(1.5),
            Lifetime::failure(2.0),
            Lifetime::censored(3.0),
        ];
        let km = KaplanMeier::fit(&data).unwrap();
        // After t=1: S = 3/4. After t=2 (2 at risk): S = 3/4 * 1/2 = 3/8.
        assert!((km.survival_at(1.0) - 0.75).abs() < 1e-12);
        assert!((km.survival_at(2.0) - 0.375).abs() < 1e-12);
        // Fully-censored tail never reaches zero.
        assert!(km.survival_at(100.0) > 0.0);
    }

    #[test]
    fn km_median_none_under_heavy_censoring() {
        let data = vec![Lifetime::failure(1.0), Lifetime::censored(9.0), Lifetime::censored(9.0)];
        let km = KaplanMeier::fit(&data).unwrap();
        assert_eq!(km.median(), None);
    }

    #[test]
    fn hazard_by_age_recovers_decreasing_hazard() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<Lifetime> =
            (0..20_000).map(|_| Lifetime::failure(weibull_draw(0.6, 10.0, &mut rng))).collect();
        let rows = hazard_by_age(&data, &[2.0, 5.0, 10.0, 20.0]).unwrap();
        // Infant mortality: hazard declines across bins.
        assert!(rows[0].1 > rows[1].1, "{rows:?}");
        assert!(rows[1].1 > rows[2].1, "{rows:?}");
    }

    #[test]
    fn weibull_mle_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<Lifetime> =
            (0..5_000).map(|_| Lifetime::failure(weibull_draw(1.8, 24.0, &mut rng))).collect();
        let fit = weibull_mle(&data).unwrap();
        assert!((fit.shape - 1.8).abs() < 0.1, "shape {}", fit.shape);
        assert!((fit.scale - 24.0).abs() < 1.0, "scale {}", fit.scale);
    }

    #[test]
    fn weibull_mle_with_censoring() {
        let mut rng = StdRng::seed_from_u64(10);
        let horizon = 15.0;
        let data: Vec<Lifetime> = (0..8_000)
            .map(|_| {
                let t = weibull_draw(0.7, 12.0, &mut rng);
                if t > horizon {
                    Lifetime::censored(horizon)
                } else {
                    Lifetime::failure(t)
                }
            })
            .collect();
        let fit = weibull_mle(&data).unwrap();
        assert!((fit.shape - 0.7).abs() < 0.08, "shape {}", fit.shape);
        assert!((fit.scale - 12.0).abs() < 1.5, "scale {}", fit.scale);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(KaplanMeier::fit(&[]).is_err());
        assert!(weibull_mle(&[Lifetime::failure(1.0)]).is_err());
        assert!(weibull_mle(&[Lifetime::failure(2.0), Lifetime::failure(2.0)]).is_err());
        assert!(KaplanMeier::fit(&[Lifetime::failure(-1.0)]).is_err());
        assert!(hazard_by_age(&[Lifetime::failure(1.0)], &[]).is_err());
    }
}
