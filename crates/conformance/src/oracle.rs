//! Differential oracles: paired executions that must agree.
//!
//! Each oracle runs the same logical computation down two different code
//! paths and asserts either bit-identity or a bounded divergence:
//!
//! * `Sequential` vs `Threads(n)` simulation — the determinism contract;
//! * sanitizer fixed-point — sanitizing an already-clean ticket stream is
//!   the identity;
//! * frame-path vs row-path table assembly — the split-borrow columnar
//!   emitter in `rainshine-core::dataset` equals a naive
//!   [`FrameBuilder::push_row`] rebuild;
//! * presorted vs per-node-sort CART fitting — the sort-once optimization
//!   grows the same tree.
//!
//! Divergence is measured per cell: bit-equal cells (including matching
//! NaNs) diverge by 0, a NaN facing a number diverges infinitely, and
//! numeric pairs diverge by absolute difference.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_dcsim::{Simulation, SimulationOutput};
use rainshine_parallel::Parallelism;
use rainshine_telemetry::frame::{FeatureKind, Frame, FrameBuilder, Value};
use rainshine_telemetry::ids::RackId;
use rainshine_telemetry::quality::Sanitizer;
use rainshine_telemetry::schema::{analysis_schema, columns};

use crate::scenario::Scenario;
use crate::{ConformanceError, Result};

/// How much two paired executions may diverge.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum DivergenceBound {
    /// Every cell must be bit-identical.
    BitIdentical,
    /// Numeric cells may differ by at most this absolute amount.
    MaxAbs(f64),
}

impl DivergenceBound {
    /// Whether a per-cell divergence is within the bound.
    pub fn allows(&self, divergence: f64) -> bool {
        match self {
            DivergenceBound::BitIdentical => divergence == 0.0,
            DivergenceBound::MaxAbs(limit) => divergence <= *limit,
        }
    }
}

/// Per-cell divergence: 0 for bit-equal (matching NaNs included), infinite
/// for NaN vs number, absolute difference otherwise.
pub fn cell_divergence(a: f64, b: f64) -> f64 {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        return 0.0;
    }
    if a.is_nan() || b.is_nan() {
        return f64::INFINITY;
    }
    (a - b).abs()
}

/// Outcome of one differential oracle.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OracleReport {
    /// Oracle name.
    pub name: String,
    /// Bound the oracle asserts.
    pub bound: DivergenceBound,
    /// Cells (or bytes, for serialized comparisons) compared.
    pub cells: usize,
    /// Largest per-cell divergence observed (0 when bit-identical).
    pub max_divergence: f64,
    /// Whether the bound was exceeded.
    pub violation: bool,
    /// Deterministic detail (first differing location, or "identical").
    pub detail: String,
}

/// A named differential comparison with a divergence bound.
#[derive(Debug, Clone)]
pub struct DiffOracle {
    /// Oracle name, used in reports.
    pub name: String,
    /// Allowed divergence.
    pub bound: DivergenceBound,
}

impl DiffOracle {
    /// Creates an oracle.
    pub fn new(name: &str, bound: DivergenceBound) -> Self {
        DiffOracle { name: name.to_string(), bound }
    }

    /// Compares two tables cell by cell: schemas, row counts, nominal
    /// labels, ordinal values, and continuous cells all participate.
    /// Structural mismatches (schema, arity, labels) are infinite
    /// divergence regardless of the bound.
    pub fn compare_tables(&self, a: &Frame, b: &Frame) -> OracleReport {
        if a.schema().fields() != b.schema().fields() {
            return self.structural("schemas differ");
        }
        if a.rows() != b.rows() {
            return self.structural(&format!("row counts differ: {} vs {}", a.rows(), b.rows()));
        }
        let mut cells = 0usize;
        let mut max = 0.0f64;
        let mut first_diff: Option<String> = None;
        for field in a.schema().fields() {
            match field.kind {
                FeatureKind::Continuous => {
                    let (xa, xb) = match (a.continuous(&field.name), b.continuous(&field.name)) {
                        (Ok(xa), Ok(xb)) => (xa, xb),
                        _ => return self.structural(&format!("column {} unreadable", field.name)),
                    };
                    for (row, (&va, &vb)) in xa.iter().zip(xb).enumerate() {
                        cells += 1;
                        let d = cell_divergence(va, vb);
                        if d > max {
                            max = d;
                        }
                        if d != 0.0 && first_diff.is_none() {
                            first_diff =
                                Some(format!("{}[{row}]: {va} vs {vb} (|Δ| = {d})", field.name));
                        }
                    }
                }
                FeatureKind::Nominal => {
                    for row in 0..a.rows() {
                        cells += 1;
                        let (la, lb) = match (
                            a.nominal_label(&field.name, row),
                            b.nominal_label(&field.name, row),
                        ) {
                            (Ok(la), Ok(lb)) => (la, lb),
                            _ => {
                                return self
                                    .structural(&format!("column {} unreadable", field.name))
                            }
                        };
                        if la != lb {
                            return self
                                .structural(&format!("{}[{row}]: `{la}` vs `{lb}`", field.name));
                        }
                    }
                }
                FeatureKind::Ordinal => {
                    let (xa, xb) = match (a.ordinal(&field.name), b.ordinal(&field.name)) {
                        (Ok(xa), Ok(xb)) => (xa, xb),
                        _ => return self.structural(&format!("column {} unreadable", field.name)),
                    };
                    for (row, (&va, &vb)) in xa.iter().zip(xb).enumerate() {
                        cells += 1;
                        if va != vb {
                            return self
                                .structural(&format!("{}[{row}]: {va} vs {vb}", field.name));
                        }
                    }
                }
            }
        }
        let violation = !self.bound.allows(max);
        OracleReport {
            name: self.name.clone(),
            bound: self.bound,
            cells,
            max_divergence: max,
            violation,
            detail: first_diff.unwrap_or_else(|| "identical".to_string()),
        }
    }

    /// Compares two serialized artifacts byte for byte (always
    /// [`DivergenceBound::BitIdentical`] semantics).
    fn compare_serialized(&self, a: &str, b: &str) -> OracleReport {
        let identical = a == b;
        let detail = if identical {
            "identical".to_string()
        } else {
            let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
            match at {
                Some(i) => format!("first byte difference at offset {i}"),
                None => format!("length differs: {} vs {} bytes", a.len(), b.len()),
            }
        };
        OracleReport {
            name: self.name.clone(),
            bound: DivergenceBound::BitIdentical,
            cells: a.len().max(b.len()),
            max_divergence: if identical { 0.0 } else { f64::INFINITY },
            violation: !identical,
            detail,
        }
    }

    fn structural(&self, detail: &str) -> OracleReport {
        OracleReport {
            name: self.name.clone(),
            bound: self.bound,
            cells: 0,
            max_divergence: f64::INFINITY,
            violation: true,
            detail: detail.to_string(),
        }
    }
}

/// Rebuilds the rack-day analysis table through the generic row-by-row
/// [`FrameBuilder::push_row`] path, mirroring the exact emission and interning order
/// of the columnar fast path in `rainshine-core::dataset`.
///
/// # Errors
///
/// Returns [`ConformanceError::InvalidScenario`] if `day_stride` is 0 or
/// the rebuild pushes an inconsistent row (which would itself be an
/// oracle failure), and
/// [`ConformanceError::Analysis`] if the columns end at different lengths.
fn row_path_rack_day_table(
    output: &SimulationOutput,
    filter: FaultFilter,
    day_stride: usize,
) -> Result<Frame> {
    // Counted independently of `core::dataset::RackDayCounts`, so this
    // rebuild is a differential check of the count index too.
    let mut counts: BTreeMap<(RackId, u64), u64> = BTreeMap::new();
    for t in output.true_positives() {
        if filter.matches(t.fault) {
            *counts.entry((t.location.rack, t.opened.days())).or_insert(0) += 1;
        }
    }
    let day_stride = NonZeroUsize::new(day_stride)
        .ok_or(ConformanceError::InvalidScenario { what: "day_stride must be ≥ 1".into() })?;
    let mut builder = FrameBuilder::new(analysis_schema());
    let mut push_error: Option<String> = None;
    output.for_each_active_rack_day(day_stride, |_, rack, t, env| {
        if push_error.is_some() {
            return;
        }
        let count = counts.get(&(rack.id, t.days())).copied().unwrap_or(0) as f64;
        let row = vec![
            Value::Nominal(rack.sku.to_string()),
            Value::Continuous(rack.age_months(t)),
            Value::Continuous(rack.power_kw),
            Value::Nominal(rack.workload.to_string()),
            Value::Continuous(env.temp_f),
            Value::Continuous(env.rh),
            Value::Nominal(rack.dc.to_string()),
            Value::Nominal(format!("{}-{}", rack.dc, rack.region.0)),
            Value::Nominal(format!("{}-row{}", rack.dc, rack.row.0)),
            Value::Nominal(rack.id.to_string()),
            Value::Ordinal(t.day_of_week().index() as i64),
            Value::Ordinal(t.week_of_year() as i64),
            Value::Ordinal(t.month() as i64),
            Value::Ordinal(t.year_offset() as i64),
            Value::Continuous(count),
        ];
        if let Err(e) = builder.push_row(row) {
            push_error = Some(e.to_string());
        }
    });
    if let Some(e) = push_error {
        return Err(ConformanceError::InvalidScenario {
            what: format!("row-path rebuild rejected a row: {e}"),
        });
    }
    Ok(builder.build().map_err(rainshine_core::AnalysisError::from)?)
}

/// Runs the standard oracle suite for a scenario at one seed.
///
/// The suite simulates the scenario twice (sequential and threaded) for the
/// determinism oracle, then reuses the sequential output for the remaining
/// comparisons. The sanitizer fixed-point oracle needs a clean stream, so
/// when the scenario injects corruption it re-simulates with corruption
/// disabled.
///
/// # Errors
///
/// Returns [`ConformanceError`] if the scenario config is invalid or a
/// table cannot be built at all (individual bound violations are reported,
/// not errors).
pub fn standard_oracles(scenario: &Scenario, seed: u64) -> Result<Vec<OracleReport>> {
    let mut reports = Vec::with_capacity(4);

    let mut seq_config = scenario.fleet_config()?;
    seq_config.parallelism = Parallelism::Sequential;
    let seq = Simulation::new(seq_config, seed).run();

    let mut thr_config = scenario.fleet_config()?;
    thr_config.parallelism = Parallelism::Threads(3);
    let thr = Simulation::new(thr_config, seed).run();

    let det = DiffOracle::new("sim_sequential_vs_threads", DivergenceBound::BitIdentical);
    let ser = |out: &SimulationOutput| {
        let tickets = serde_json::to_string(&out.tickets).expect("tickets serialize");
        let quality = serde_json::to_string(&out.quality).expect("quality serializes");
        format!("{tickets}\n{quality}")
    };
    reports.push(det.compare_serialized(&ser(&seq), &ser(&thr)));

    // Sanitizer fixed-point: sanitizing an already-sanitized clean stream
    // must be the identity. Corrupted scenarios re-simulate clean.
    let clean;
    let clean_out = if scenario.effects.corruption_rate > 0.0 {
        let mut config = scenario.fleet_config()?;
        config.parallelism = Parallelism::Sequential;
        config.corruption = rainshine_dcsim::corruption::CorruptionConfig::default();
        clean = Simulation::new(config, seed).run();
        &clean
    } else {
        &seq
    };
    let sanitizer =
        Sanitizer::new(clean_out.fleet.manifest(), clean_out.config.start..clean_out.config.end);
    let (resanitized, _) = sanitizer.sanitize(clean_out.tickets.clone());
    let fixed = DiffOracle::new("sanitizer_fixed_point", DivergenceBound::BitIdentical);
    reports.push(fixed.compare_serialized(
        &serde_json::to_string(&clean_out.tickets).expect("tickets serialize"),
        &serde_json::to_string(&resanitized).expect("tickets serialize"),
    ));

    // Frame-path vs row-path table assembly.
    let frame_table = rack_day_table(&seq, FaultFilter::AllHardware, scenario.day_stride)?;
    let row_table = row_path_rack_day_table(&seq, FaultFilter::AllHardware, scenario.day_stride)?;
    let assembly = DiffOracle::new("frame_vs_row_path_table", DivergenceBound::BitIdentical);
    reports.push(assembly.compare_tables(&frame_table, &row_table));

    // Presorted vs per-node-sort CART growth.
    let params = CartParams::default().with_min_sizes(60, 30).with_cp(0.0008);
    let ds = CartDataset::regression(
        &frame_table,
        columns::FAILURE_RATE,
        &[
            columns::SKU,
            columns::WORKLOAD,
            columns::DATACENTER,
            columns::AGE_MONTHS,
            columns::TEMPERATURE_F,
        ],
    )
    .map_err(|e| ConformanceError::InvalidScenario { what: format!("cart dataset: {e}") })?;
    let rows: Vec<usize> = (0..frame_table.rows()).collect();
    let presorted = Tree::fit(&ds, &params)
        .map_err(|e| ConformanceError::InvalidScenario { what: format!("presort fit: {e}") })?;
    let per_node = Tree::fit_on_rows_per_node_sort(&ds, &params, &rows)
        .map_err(|e| ConformanceError::InvalidScenario { what: format!("per-node fit: {e}") })?;
    let cart = DiffOracle::new("cart_presort_vs_per_node_sort", DivergenceBound::BitIdentical);
    reports.push(cart.compare_serialized(
        &serde_json::to_string(&presorted).expect("tree serializes"),
        &serde_json::to_string(&per_node).expect("tree serializes"),
    ));

    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field { name: "x".into(), kind: FeatureKind::Continuous },
            Field { name: "label".into(), kind: FeatureKind::Nominal },
        ])
    }

    fn table(xs: &[f64], labels: &[&str]) -> Frame {
        let mut b = FrameBuilder::new(schema());
        for (&x, &l) in xs.iter().zip(labels) {
            b.push_row(vec![Value::Continuous(x), Value::Nominal(l.to_string())]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cell_divergence_handles_nan_and_bits() {
        assert_eq!(cell_divergence(1.0, 1.0), 0.0);
        assert_eq!(cell_divergence(f64::NAN, f64::NAN), 0.0);
        assert_eq!(cell_divergence(f64::NAN, 1.0), f64::INFINITY);
        assert_eq!(cell_divergence(1.0, 1.5), 0.5);
        // Signed zeros are numerically equal but not bit-equal; the
        // numeric branch reports zero divergence.
        assert_eq!(cell_divergence(0.0, -0.0), 0.0);
    }

    #[test]
    fn bound_arithmetic() {
        assert!(DivergenceBound::BitIdentical.allows(0.0));
        assert!(!DivergenceBound::BitIdentical.allows(1e-18));
        assert!(DivergenceBound::MaxAbs(0.1).allows(0.1));
        assert!(!DivergenceBound::MaxAbs(0.1).allows(f64::INFINITY));
    }

    #[test]
    fn identical_tables_pass_and_divergent_tables_fail() {
        let a = table(&[1.0, f64::NAN], &["p", "q"]);
        let b = table(&[1.0, f64::NAN], &["p", "q"]);
        let oracle = DiffOracle::new("t", DivergenceBound::BitIdentical);
        let r = oracle.compare_tables(&a, &b);
        assert!(!r.violation, "{}", r.detail);
        assert_eq!(r.max_divergence, 0.0);
        assert_eq!(r.cells, 4);

        let c = table(&[1.0, 2.0], &["p", "q"]);
        let r = oracle.compare_tables(&a, &c);
        assert!(r.violation);
        assert_eq!(r.max_divergence, f64::INFINITY);

        let loose = DiffOracle::new("t", DivergenceBound::MaxAbs(0.5));
        let d = table(&[1.25, f64::NAN], &["p", "q"]);
        let r = loose.compare_tables(&a, &d);
        assert!(!r.violation, "{}", r.detail);
        assert!((r.max_divergence - 0.25).abs() < 1e-12);
    }

    #[test]
    fn label_mismatch_is_structural() {
        let a = table(&[1.0], &["p"]);
        let b = table(&[1.0], &["z"]);
        let oracle = DiffOracle::new("t", DivergenceBound::MaxAbs(1e9));
        let r = oracle.compare_tables(&a, &b);
        assert!(r.violation, "nominal mismatch must violate even loose bounds");
    }

    #[test]
    fn zero_row_tables_are_identical() {
        let a = FrameBuilder::new(schema()).build().unwrap();
        let b = FrameBuilder::new(schema()).build().unwrap();
        let oracle = DiffOracle::new("t", DivergenceBound::BitIdentical);
        let r = oracle.compare_tables(&a, &b);
        assert!(!r.violation);
        assert_eq!(r.cells, 0);
    }

    #[test]
    fn serialized_compare_reports_first_difference() {
        let oracle = DiffOracle::new("s", DivergenceBound::BitIdentical);
        assert!(!oracle.compare_serialized("abc", "abc").violation);
        let r = oracle.compare_serialized("abc", "abd");
        assert!(r.violation);
        assert!(r.detail.contains("offset 2"), "{}", r.detail);
    }
}
