//! Single-factor evidence series (Section V-B, Figs. 2–9).
//!
//! Each function groups the rack-day failure-rate table by one factor and
//! reports the per-group mean and standard deviation of λ — exactly the
//! bar-plus-error-bar series the paper uses to show that *many* factors
//! correlate with failures. As in the paper, figure values can be
//! normalized to their maximum mean ([`normalize`]).

use rainshine_stats::hist::Binner;
use rainshine_stats::running::Welford;
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::DayOfWeek;

use crate::{AnalysisError, Result};

/// One bar of an evidence figure.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Group label (e.g. `"DC1-1"`, `"Mon"`, `"S2"`, `"20-30"`).
    pub label: String,
    /// Mean failure rate in the group (λ per rack per window).
    pub mean: f64,
    /// Sample standard deviation within the group.
    pub sd: f64,
    /// Observations (rack-days) in the group.
    pub n: usize,
}

impl SeriesRow {
    /// The bar of one group's accumulated λ values; `None` if it is empty.
    fn of(label: String, acc: &Welford) -> Option<Self> {
        let n = acc.count();
        (n > 0).then(|| SeriesRow { label, mean: acc.mean(), sd: acc.sample_stddev(), n })
    }
}

/// Scales rows so the largest mean is `1.0` (the paper normalizes "with
/// respect to their maximum value"). Standard deviations scale by the same
/// factor. No-op on an empty series.
pub fn normalize(rows: &mut [SeriesRow]) {
    let max = rows.iter().map(|r| r.mean).fold(0.0f64, f64::max);
    if max > 0.0 {
        for r in rows.iter_mut() {
            r.mean /= max;
            r.sd /= max;
        }
    }
}

/// Groups λ by a nominal column, in category order.
fn by_nominal(table: &Frame, column: &str) -> Result<Vec<SeriesRow>> {
    let y = table.continuous(columns::FAILURE_RATE)?;
    let codes = table.nominal_codes(column)?;
    let cats = table.dictionary(column)?.labels();
    let mut accs = vec![Welford::default(); cats.len()];
    for (i, &c) in codes.iter().enumerate() {
        accs[c as usize].push(y[i]);
    }
    Ok(cats
        .iter()
        .zip(&accs)
        .filter_map(|(label, acc)| SeriesRow::of(label.clone(), acc))
        .collect())
}

/// Groups λ by bins of a continuous column. Rows whose factor value is not
/// finite (e.g. a sensor-blackout NaN) are excluded — they cannot be
/// assigned to a bin.
pub fn by_binned(table: &Frame, column: &str, binner: &Binner) -> Result<Vec<SeriesRow>> {
    let y = table.continuous(columns::FAILURE_RATE)?;
    let x = table.continuous(column)?;
    Ok(binned_rows(binner, x.iter().copied().zip(y.iter().copied())))
}

/// Accumulates `(factor, response)` pairs into the bins of `binner` and
/// returns the non-empty bins as figure rows, in bin order. Pairs whose
/// factor is not finite are skipped, as are non-finite responses.
pub(crate) fn binned_rows(
    binner: &Binner,
    pairs: impl IntoIterator<Item = (f64, f64)>,
) -> Vec<SeriesRow> {
    let mut accs = vec![Welford::default(); binner.bin_count()];
    for (factor, response) in pairs.into_iter().filter(|(factor, _)| factor.is_finite()) {
        accs[binner.bin_of(factor)].push(response);
    }
    accs.iter().enumerate().filter_map(|(i, acc)| SeriesRow::of(binner.label(i), acc)).collect()
}

/// Groups λ by an ordinal column, optionally restricted to one calendar
/// year, labelling levels with `labeler`.
fn by_ordinal(
    table: &Frame,
    column: &str,
    year: Option<i64>,
    labeler: impl Fn(i64) -> String,
) -> Result<Vec<SeriesRow>> {
    let y = table.continuous(columns::FAILURE_RATE)?;
    let levels = table.ordinal(column)?;
    let years = table.ordinal(columns::YEAR)?;
    let mut accs: std::collections::BTreeMap<i64, Welford> = std::collections::BTreeMap::new();
    for i in 0..table.rows() {
        if let Some(target_year) = year {
            if years[i] != target_year {
                continue;
            }
        }
        accs.entry(levels[i]).or_default().push(y[i]);
    }
    if accs.is_empty() {
        return Err(AnalysisError::NoData { what: format!("no rows for year {year:?}") });
    }
    Ok(accs.into_iter().filter_map(|(level, acc)| SeriesRow::of(labeler(level), &acc)).collect())
}

/// Fig. 2 — λ by DC region (`DC1-1` … `DC2-3`).
pub fn by_region(table: &Frame) -> Result<Vec<SeriesRow>> {
    by_nominal(table, columns::REGION)
}

/// Fig. 3 — λ by day of week for one year offset (0 = 2012).
pub fn by_day_of_week(table: &Frame, year: i64) -> Result<Vec<SeriesRow>> {
    by_ordinal(table, columns::DAY_OF_WEEK, Some(year), |lvl| {
        DayOfWeek::ALL.get(lvl as usize).map(|d| d.to_string()).unwrap_or_else(|| lvl.to_string())
    })
}

/// Fig. 4 — λ by month of year for one year offset (0 = 2012).
pub fn by_month(table: &Frame, year: i64) -> Result<Vec<SeriesRow>> {
    const MONTHS: [&str; 12] =
        ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];
    by_ordinal(table, columns::MONTH, Some(year), |lvl| {
        MONTHS
            .get((lvl - 1).max(0) as usize)
            .map(|m| m.to_string())
            .unwrap_or_else(|| lvl.to_string())
    })
}

/// Fig. 5 — λ by relative-humidity bin (`<20`, `20-30`, …, `>=70`).
pub fn by_rh_bin(table: &Frame) -> Result<Vec<SeriesRow>> {
    let binner = Binner::from_edges(vec![20.0, 30.0, 40.0, 50.0, 60.0, 70.0])?;
    by_binned(table, columns::RELATIVE_HUMIDITY, &binner)
}

/// Fig. 6 — λ by workload (W1–W7).
pub fn by_workload(table: &Frame) -> Result<Vec<SeriesRow>> {
    let mut rows = by_nominal(table, columns::WORKLOAD)?;
    rows.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(rows)
}

/// Fig. 7 — λ by SKU.
pub fn by_sku(table: &Frame) -> Result<Vec<SeriesRow>> {
    let mut rows = by_nominal(table, columns::SKU)?;
    rows.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(rows)
}

/// Fig. 8 — λ by rack rated power (one bin per observed kW value).
pub fn by_power(table: &Frame) -> Result<Vec<SeriesRow>> {
    // kW ratings are discrete (4–15); bin at integer boundaries.
    let binner =
        Binner::from_edges(vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0])?;
    by_binned(table, columns::RATED_POWER_KW, &binner)
}

/// Fig. 9 — λ by equipment age in 5-month bins (0–40 months).
pub fn by_age(table: &Frame) -> Result<Vec<SeriesRow>> {
    let binner = Binner::from_edges(vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0])?;
    by_binned(table, columns::AGE_MONTHS, &binner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{rack_day_table, FaultFilter};
    use rainshine_dcsim::{FleetConfig, Simulation};

    fn table() -> Frame {
        let out = Simulation::new(FleetConfig::small(), 21).run();
        rack_day_table(&out, FaultFilter::AllHardware, 1).unwrap()
    }

    #[test]
    fn region_series_covers_both_dcs() {
        let t = table();
        let rows = by_region(&t).unwrap();
        assert!(rows.iter().any(|r| r.label.starts_with("DC1-")));
        assert!(rows.iter().any(|r| r.label.starts_with("DC2-")));
        // DC1 regions generally above DC2 regions (Fig. 2).
        let dc1_max =
            rows.iter().filter(|r| r.label.starts_with("DC1")).map(|r| r.mean).fold(0.0, f64::max);
        let dc2_max =
            rows.iter().filter(|r| r.label.starts_with("DC2")).map(|r| r.mean).fold(0.0, f64::max);
        assert!(dc1_max > dc2_max, "dc1 {dc1_max} dc2 {dc2_max}");
    }

    #[test]
    fn weekday_above_weekend() {
        let t = table();
        let rows = by_day_of_week(&t, 0).unwrap();
        assert_eq!(rows.len(), 7);
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap().mean;
        let weekday_mean = (get("Mon") + get("Tue") + get("Wed") + get("Thu")) / 4.0;
        let weekend_mean = (get("Sun") + get("Sat")) / 2.0;
        assert!(weekday_mean > weekend_mean, "{weekday_mean} vs {weekend_mean}");
    }

    #[test]
    fn workload_ordering_matches_fig6() {
        let t = table();
        let rows = by_workload(&t).unwrap();
        let get = |l: &str| rows.iter().find(|r| r.label == l).map(|r| r.mean);
        if let (Some(w2), Some(w3)) = (get("W2"), get("W3")) {
            assert!(w2 > w3, "W2 {w2} should exceed W3 {w3}");
        } else {
            panic!("missing workloads in small fleet: {rows:?}");
        }
    }

    #[test]
    fn normalize_caps_at_one() {
        let t = table();
        let mut rows = by_sku(&t).unwrap();
        normalize(&mut rows);
        let max = rows.iter().map(|r| r.mean).fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        normalize(&mut []); // no panic on empty
    }

    #[test]
    fn age_series_shows_infant_mortality() {
        let t = table();
        let rows = by_age(&t).unwrap();
        assert!(rows.len() >= 3);
        // Youngest bin above the 20-30 month bins (bathtub's infant side).
        let young = rows.iter().find(|r| r.label == "<5").map(|r| r.mean);
        let mid = rows.iter().find(|r| r.label == "20-25").map(|r| r.mean);
        if let (Some(young), Some(mid)) = (young, mid) {
            assert!(young > mid, "young {young} mid {mid}");
        }
    }

    #[test]
    fn binned_rows_average_per_bin() {
        let b = Binner::from_edges(vec![10.0]).unwrap();
        let rows = binned_rows(&b, [(5.0, 1.0), (15.0, 3.0), (20.0, 5.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].label.as_str(), rows[0].mean, rows[0].n), ("<10", 1.0, 1));
        assert_eq!((rows[1].label.as_str(), rows[1].mean, rows[1].n), (">=10", 4.0, 2));
        assert_eq!(rows[1].sd, 2f64.sqrt());
    }

    #[test]
    fn binned_rows_skip_non_finite_factors() {
        let b = Binner::from_edges(vec![10.0]).unwrap();
        let pairs = [(f64::NAN, 9.0), (5.0, 1.0), (f64::INFINITY, 9.0), (f64::NEG_INFINITY, 9.0)];
        let rows = binned_rows(&b, pairs);
        assert_eq!(rows, vec![SeriesRow { label: "<10".into(), mean: 1.0, sd: 0.0, n: 1 }]);
    }

    #[test]
    fn missing_year_errors() {
        let t = table();
        assert!(matches!(by_month(&t, 7), Err(AnalysisError::NoData { .. })));
    }
}
