//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rainshine_stats::describe::Summary;
use rainshine_stats::ecdf::{quantile_interpolated, quantile_with_zeros, Ecdf};
use rainshine_stats::hist::Binner;
use rainshine_stats::impurity::{gini, sum_squared_deviation};
use rainshine_stats::running::Welford;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

/// A sorted vector of nonzero sample values for `quantile_with_zeros`.
fn sorted_nonzero() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..1000, 0..50).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// The reference semantics of [`quantile_with_zeros`]: materialize the full
/// multiset (implicit zeros first, then the stored values) and take the
/// type-1 inverse-CDF order statistic, with ranks capped at `total` so
/// malformed over-full series stay in bounds.
fn naive_zero_mass_quantile(sorted_nonzero: &[u64], total: u64, q: f64) -> u64 {
    let zeros = total.saturating_sub(sorted_nonzero.len().min(total as usize) as u64);
    let full: Vec<u64> =
        std::iter::repeat_n(0, zeros as usize).chain(sorted_nonzero.iter().copied()).collect();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil().max(1.0) as u64).min(total);
    full[(rank - 1) as usize]
}

proptest! {
    #[test]
    fn ecdf_is_monotone_and_bounded(data in finite_vec(), probe in -2e6f64..2e6) {
        let e = Ecdf::new(data).unwrap();
        let f = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        // Monotone: F(probe) <= F(probe + delta).
        prop_assert!(f <= e.eval(probe + 1.0) + 1e-15);
        // Support bounds.
        prop_assert_eq!(e.eval(e.max()), 1.0);
        prop_assert!(e.eval(e.min() - 1.0) == 0.0);
    }

    #[test]
    fn ecdf_quantiles_are_ordered(data in finite_vec(), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let e = Ecdf::new(data).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(e.quantile(lo) <= e.quantile(hi));
        // Quantiles are sample values.
        prop_assert!(e.values().contains(&e.quantile(a)));
    }

    #[test]
    fn interpolated_quantile_within_range(data in finite_vec(), q in 0.0f64..=1.0) {
        let v = quantile_interpolated(&data, q).unwrap();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn welford_merge_matches_concatenation(a in finite_vec(), b in finite_vec()) {
        let mut wa: Welford = a.iter().copied().collect();
        let wb: Welford = b.iter().copied().collect();
        wa.merge(&wb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let batch = Summary::from_slice(&all).unwrap();
        let merged = wa.summary().unwrap();
        prop_assert!((merged.mean() - batch.mean()).abs() < 1e-6 * (1.0 + batch.mean().abs()));
        prop_assert!(
            (merged.sample_variance() - batch.sample_variance()).abs()
                < 1e-5 * (1.0 + batch.sample_variance())
        );
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
    fn gini_bounds_hold(counts in prop::collection::vec(0.0f64..1e4, 1..10)) {
        let g = gini(&counts);
        let k = counts.iter().filter(|&&c| c > 0.0).count().max(1);
        prop_assert!(g >= -1e-12);
        prop_assert!(g <= 1.0 - 1.0 / k as f64 + 1e-12);
    }

    #[test]
    fn ssd_is_translation_invariant(data in finite_vec(), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
        let a = sum_squared_deviation(&data);
        let b = sum_squared_deviation(&shifted);
        prop_assert!((a - b).abs() < 1e-4 * (1.0 + a));
    }

    #[test]
    fn zero_mass_quantile_matches_materialized_multiset(
        values in sorted_nonzero(),
        total in 0u64..200,
        q in 0.0f64..=1.0,
    ) {
        prop_assert_eq!(
            quantile_with_zeros(&values, total, q),
            naive_zero_mass_quantile(&values, total, q)
        );
    }

    #[test]
    fn zero_mass_quantile_is_monotone_in_q(
        values in sorted_nonzero(),
        total in 0u64..200,
        a in 0.0f64..=1.0,
        b in 0.0f64..=1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            quantile_with_zeros(&values, total, lo) <= quantile_with_zeros(&values, total, hi)
        );
    }

    #[test]
    fn zero_mass_quantile_boundary_ranks(values in sorted_nonzero(), extra_zeros in 0u64..100) {
        let total = values.len() as u64 + extra_zeros;
        // q = 0 clamps to rank 1: the smallest sample, which is an implicit
        // zero whenever any zero mass exists.
        let at_zero = quantile_with_zeros(&values, total, 0.0);
        if extra_zeros > 0 {
            prop_assert_eq!(at_zero, 0);
        } else {
            prop_assert_eq!(at_zero, values.first().copied().unwrap_or(0));
        }
        // q = 1 is the maximum of the full multiset.
        prop_assert_eq!(quantile_with_zeros(&values, total, 1.0), values.last().copied().unwrap_or(0));
        // The rank just inside the zero mass still reports zero; the first
        // rank past it reports the smallest nonzero value. Probing at
        // rank - 0.5 keeps ceil() away from float-rounding at exact
        // rank/total boundaries.
        if extra_zeros > 0 && total > 0 {
            let boundary = (extra_zeros as f64 - 0.5) / total as f64;
            prop_assert_eq!(quantile_with_zeros(&values, total, boundary), 0);
            if !values.is_empty() {
                let past = (extra_zeros as f64 + 0.5) / total as f64;
                prop_assert_eq!(quantile_with_zeros(&values, total, past), values[0]);
            }
        }
    }

    #[test]
    fn summary_mean_between_min_and_max(data in finite_vec()) {
        let s = Summary::from_slice(&data).unwrap();
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.sample_variance() >= 0.0);
    }
}
