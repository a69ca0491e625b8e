//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rainshine_stats::ecdf::{quantile_interpolated, steps};
use rainshine_stats::hist::Binner;
use rainshine_stats::running::Welford;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// Tie-heavy samples: small non-negative whole numbers, the shape of the
/// per-rack overprovisioning percentages whose CDFs Q1 plots.
fn tied_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0u32..20, 1..200).prop_map(|v| v.into_iter().map(f64::from).collect())
}

/// The step-function invariants of [`steps`] over a finite, non-empty
/// sample: x strictly increases through exactly the distinct sample
/// values, each F is the share of the sample at or below its x, so F
/// strictly increases within (0, 1], and the last F is exactly 1.0.
fn check_steps(data: &[f64]) -> Result<(), TestCaseError> {
    let points = steps(data).unwrap();
    prop_assert!(points.windows(2).all(|w| w[0].0 < w[1].0), "x not strictly increasing");
    prop_assert!(points.windows(2).all(|w| w[0].1 < w[1].1), "F not strictly increasing");
    prop_assert!(points.iter().all(|&(_, f)| f > 0.0 && f <= 1.0), "F outside (0, 1]");
    prop_assert_eq!(points.last().map(|p| p.1), Some(1.0));
    let n = data.len() as f64;
    for &(x, f) in &points {
        prop_assert!(data.contains(&x), "{x} is not a sample value");
        let at_or_below = data.iter().filter(|&&v| v <= x).count();
        prop_assert_eq!(f, at_or_below as f64 / n);
    }
    let mut distinct = data.to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    prop_assert_eq!(points.len(), distinct.len());
    Ok(())
}

proptest! {
    #[test]
    fn ecdf_steps_are_a_cdf_over_finite_samples(data in finite_vec(), tied in tied_vec()) {
        check_steps(&data)?;
        check_steps(&tied)?;
    }

    #[test]
    fn ecdf_steps_reject_empty_and_non_finite_samples(
        mut data in finite_vec(),
        at in 0usize..200,
        kind in 0usize..3,
    ) {
        prop_assert!(steps(&[]).is_err());
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        data.insert(at % (data.len() + 1), bad);
        prop_assert!(steps(&data).is_err());
    }

    #[test]
    fn interpolated_quantile_within_range(data in finite_vec(), q in 0.0f64..=1.0) {
        let v = quantile_interpolated(&data, q).unwrap();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn binner_assigns_every_value_to_exactly_one_bin(
        mut edges in prop::collection::vec(-1e3f64..1e3, 1..10),
        value in -2e3f64..2e3,
    ) {
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        edges.dedup();
        let binner = Binner::from_edges(edges).unwrap();
        let bin = binner.bin_of(value);
        prop_assert!(bin < binner.bin_count());
        // Label rendering never panics for valid bins.
        let _ = binner.label(bin);
    }

    #[test]
    fn welford_mean_between_min_and_max(data in finite_vec()) {
        let mut w = Welford::default();
        for &v in &data {
            w.push(v);
        }
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(w.count(), data.len());
        prop_assert!(w.mean() >= min - 1e-9);
        prop_assert!(w.mean() <= max + 1e-9);
        prop_assert!(w.sample_variance() >= 0.0);
    }
}
