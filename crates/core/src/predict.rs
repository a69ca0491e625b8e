//! Failure prediction — the paper's flagged extension.
//!
//! Section V notes that CART alone cannot *predict* failures on this data:
//! "failed devices are a minority … one may need pre-processing to balance
//! these two sets", and the conclusion lists "prediction of datacenter
//! failures for pro-active maintenance" as future work. This module builds
//! that pipeline:
//!
//! 1. a rack-day classification dataset labelled with "does this rack
//!    generate a hardware failure within the next *horizon* days?": Table
//!    III features with the environment as ingested (NaN in a sensor
//!    blackout), plus recent-failure history from [`RackDayCounts`];
//! 2. a **time-ordered** train/test split (no peeking at the future);
//! 3. **majority-class downsampling** on the training split only;
//! 4. a Gini classification tree, evaluated on the untouched test split
//!    with the usual detection metrics.
//!
//! Step 1 is [`build_prediction_table`] and steps 2–4 are
//! [`evaluate_prediction`], so the balanced and unbalanced configs share
//! one table; [`predict_failures`] runs both steps for one config.

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::SimTime;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{FaultFilter, RackDayCounts};
use crate::{AnalysisError, Result};

/// History-feature column names added on top of the Table III schema.
pub mod history_columns {
    /// Hardware failures on this rack in the trailing short window.
    pub const RECENT_SHORT: &str = "failures_last_7d";
    /// Hardware failures on this rack in the trailing long window.
    pub const RECENT_LONG: &str = "failures_last_30d";
    /// Nominal prediction label: `"fail"` or `"ok"`.
    pub const LABEL: &str = "label";
}

/// Label horizon: "fails within the next N days".
pub const HORIZON_DAYS: u64 = 7;
/// Trailing history windows (short, long) in days.
const HISTORY_DAYS: (u64, u64) = (7, 30);
/// Fraction of the timeline used for training (time-ordered split).
const TRAIN_FRACTION: f64 = 0.7;
/// Day stride when sampling rack-days.
const DAY_STRIDE: usize = 3;
/// RNG seed for downsampling.
const SEED: u64 = 0;
/// Parameters of the classification tree.
const TREE: CartParams = CartParams { min_split: 60, min_leaf: 30, max_depth: 30, cp: 0.003 };

/// Configuration of a prediction study.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionConfig {
    /// Negative:positive ratio after downsampling the training majority
    /// class (1.0 = perfectly balanced). `None` disables balancing — the
    /// ablation the paper warns about.
    pub downsample_ratio: Option<f64>,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig { downsample_ratio: Some(1.0) }
    }
}

/// Binary confusion counts on the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// Predicted fail, did fail.
    pub true_positives: u64,
    /// Predicted fail, did not fail.
    pub false_positives: u64,
    /// Predicted ok, did not fail.
    pub true_negatives: u64,
    /// Predicted ok, did fail.
    pub false_negatives: u64,
}

impl Confusion {
    /// Precision = TP / (TP + FP); 0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_positives)
    }

    /// Recall = TP / (TP + FN); 0 when there were no positives.
    pub fn recall(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_negatives)
    }

    /// F1 — harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total())
    }

    /// Base rate of positives in the test split.
    pub fn base_rate(&self) -> f64 {
        ratio(self.true_positives + self.false_negatives, self.total())
    }

    /// Lift of precision over the base rate (1.0 = no better than guessing).
    pub fn lift(&self) -> f64 {
        let base = self.base_rate();
        if base == 0.0 {
            0.0
        } else {
            self.precision() / base
        }
    }

    fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }
}

/// `part / whole` as a share; 0 when `whole` is 0.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Outcome of a prediction study.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// Test-split confusion counts.
    pub confusion: Confusion,
    /// Training rows after balancing.
    pub train_rows: usize,
    /// Test rows.
    pub test_rows: usize,
    /// Positive share of training rows after balancing.
    pub train_positive_share: f64,
    /// Leaves of the fitted tree.
    pub tree_leaves: usize,
    /// Variable importance of the fitted tree.
    pub importance: Vec<(String, f64)>,
}

fn prediction_schema() -> Schema {
    Schema::new(vec![
        Field::new(columns::SKU, FeatureKind::Nominal),
        Field::new(columns::AGE_MONTHS, FeatureKind::Continuous),
        Field::new(columns::RATED_POWER_KW, FeatureKind::Continuous),
        Field::new(columns::WORKLOAD, FeatureKind::Nominal),
        Field::new(columns::TEMPERATURE_F, FeatureKind::Continuous),
        Field::new(columns::RELATIVE_HUMIDITY, FeatureKind::Continuous),
        Field::new(columns::DATACENTER, FeatureKind::Nominal),
        Field::new(columns::REGION, FeatureKind::Nominal),
        Field::new(columns::DAY_OF_WEEK, FeatureKind::Ordinal),
        Field::new(history_columns::RECENT_SHORT, FeatureKind::Continuous),
        Field::new(history_columns::RECENT_LONG, FeatureKind::Continuous),
        Field::new(history_columns::LABEL, FeatureKind::Nominal),
    ])
}

/// Feature list used by the prediction tree (everything except the label).
pub const PREDICTION_FEATURES: &[&str] = &[
    columns::SKU,
    columns::AGE_MONTHS,
    columns::RATED_POWER_KW,
    columns::WORKLOAD,
    columns::TEMPERATURE_F,
    columns::RELATIVE_HUMIDITY,
    columns::DATACENTER,
    columns::REGION,
    columns::DAY_OF_WEEK,
    history_columns::RECENT_SHORT,
    history_columns::RECENT_LONG,
];

/// The labelled rack-day table of a prediction study plus the day of each
/// row (for the time-ordered split). One table serves every
/// [`PredictionConfig`].
#[derive(Debug)]
pub struct PredictionTable {
    table: Frame,
    day_of_row: Vec<u64>,
    start_day: u64,
    end_day: u64,
}

/// Builds the labelled rack-day table of a prediction study: the stage
/// every config shares.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the span is too short for the
/// history + horizon windows.
pub fn build_prediction_table(output: &SimulationOutput) -> Result<PredictionTable> {
    let counts = RackDayCounts::new(output, FaultFilter::AllHardware);
    let start_day = output.config.start.days();
    let end_day = output.config.end.days();
    let (short, long) = HISTORY_DAYS;
    let mut builder = FrameBuilder::new(prediction_schema());
    let mut day_of_row = Vec::new();
    {
        let [sku_c, age_c, power_c, workload_c, temp_c, rh_c, dc_c, region_c, dow_c, short_c, long_c, label_c] =
            builder.columns_mut()
        else {
            unreachable!("prediction schema has 12 columns")
        };
        for (index, rack) in output.fleet.racks.iter().enumerate() {
            let window = |from: u64, to: u64| f64::from(counts.between(index, from, to));
            // Static nominal codes, interned on the rack's first emitted row.
            let mut rack_codes: Option<(u32, u32, u32, u32)> = None;
            // Past commissioning, so every visited day is an active one.
            let first_eligible = start_day.max(rack.commissioned_day.max(0) as u64) + long;
            let labelled_end = end_day.saturating_sub(HORIZON_DAYS);
            for day in (first_eligible..labelled_end).step_by(DAY_STRIDE) {
                let t = SimTime::from_days(day);
                let env = output.ingested_daily_env(rack.dc, rack.region, day);
                let (sku, workload, dc, region) = *rack_codes.get_or_insert_with(|| {
                    (
                        sku_c.intern(&rack.sku.to_string()),
                        workload_c.intern(&rack.workload.to_string()),
                        dc_c.intern(&rack.dc.to_string()),
                        region_c.intern(&format!("{}-{}", rack.dc, rack.region.0)),
                    )
                });
                sku_c.push_code(sku);
                age_c.push_f64(rack.age_months(t));
                power_c.push_f64(rack.power_kw);
                workload_c.push_code(workload);
                temp_c.push_f64(env.temp_f);
                rh_c.push_f64(env.rh);
                dc_c.push_code(dc);
                region_c.push_code(region);
                dow_c.push_i64(t.day_of_week().index() as i64);
                short_c.push_f64(window((day + 1).saturating_sub(short), day + 1));
                long_c.push_f64(window((day + 1).saturating_sub(long), day + 1));
                let fails = window(day + 1, day + 1 + HORIZON_DAYS) > 0.0;
                let label = label_c.intern(if fails { "fail" } else { "ok" });
                label_c.push_code(label);
                day_of_row.push(day);
            }
        }
    }
    let table = builder.build()?;
    if table.is_empty() {
        return Err(AnalysisError::NoData { what: "no eligible rack-days for prediction".into() });
    }
    Ok(PredictionTable { table, day_of_row, start_day, end_day })
}

/// Splits, balances, fits and scores one config on a table built by
/// [`build_prediction_table`]: the stage that differs between configs.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if either split ends up empty or
/// single-class.
pub fn evaluate_prediction(
    table: &PredictionTable,
    config: &PredictionConfig,
) -> Result<PredictionReport> {
    let RowSplit { train, positives, test: test_rows, fail_code } = split_rows(table, config)?;
    let train_positive_share = positives as f64 / train.len() as f64;
    let table = &table.table;
    let labels = table.nominal_codes(history_columns::LABEL)?;

    let ds = CartDataset::classification(table, history_columns::LABEL, PREDICTION_FEATURES)?;
    let tree = Tree::fit_on_rows(&ds, &TREE, &train)?;

    // Evaluate on the untouched, unbalanced test split.
    let predictions = tree.predict_rows(table, &test_rows)?;
    let mut confusion = Confusion::default();
    for (&row, &prediction) in test_rows.iter().zip(&predictions) {
        let predicted_fail = prediction as u32 == fail_code;
        let actually_failed = labels[row] == fail_code;
        match (predicted_fail, actually_failed) {
            (true, true) => confusion.true_positives += 1,
            (true, false) => confusion.false_positives += 1,
            (false, false) => confusion.true_negatives += 1,
            (false, true) => confusion.false_negatives += 1,
        }
    }
    Ok(PredictionReport {
        confusion,
        train_rows: train.len(),
        test_rows: test_rows.len(),
        train_positive_share,
        tree_leaves: tree.leaf_count(),
        importance: tree.variable_importance(),
    })
}

/// The rows [`evaluate_prediction`] trains and tests on.
struct RowSplit {
    /// Training rows: every positive, then the kept negatives.
    train: Vec<usize>,
    /// Positives at the head of `train`.
    positives: usize,
    /// Test rows, in table order.
    test: Vec<usize>,
    /// Code of the `"fail"` label.
    fail_code: u32,
}

/// Splits `table` at the [`TRAIN_FRACTION`] day into training and test rows,
/// downsampling the training negatives when `config` asks for balance.
fn split_rows(table: &PredictionTable, config: &PredictionConfig) -> Result<RowSplit> {
    let PredictionTable { table, day_of_row, start_day, end_day } = table;
    let split_day = start_day + ((end_day - start_day) as f64 * TRAIN_FRACTION) as u64;

    let labels = table.nominal_codes(history_columns::LABEL)?;
    let Some(fail_code) = table.dictionary(history_columns::LABEL)?.code_of("fail") else {
        return Err(AnalysisError::NoData { what: "no positive examples in span".into() });
    };

    let (train_rows, test): (Vec<usize>, Vec<usize>) =
        (0..table.rows()).partition(|&row| day_of_row[row] < split_day);
    let (train_pos, mut train_neg): (Vec<usize>, Vec<usize>) =
        train_rows.into_iter().partition(|&row| labels[row] == fail_code);
    if train_pos.is_empty() || train_neg.is_empty() || test.is_empty() {
        return Err(AnalysisError::NoData {
            what: "train/test splits need both classes and a test period".into(),
        });
    }

    // Balance by downsampling the majority (negatives are the majority in
    // any realistic run).
    if let Some(ratio) = config.downsample_ratio {
        let keep = ((train_pos.len() as f64 * ratio).round() as usize).clamp(1, train_neg.len());
        train_neg.shuffle(&mut rand::rngs::StdRng::seed_from_u64(SEED));
        train_neg.truncate(keep);
    }
    let positives = train_pos.len();
    let train: Vec<usize> = train_pos.into_iter().chain(train_neg).collect();
    Ok(RowSplit { train, positives, test, fail_code })
}

/// Runs the full prediction study: [`build_prediction_table`] then
/// [`evaluate_prediction`].
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the span is too short for the
/// history + horizon windows, or if either split ends up empty or
/// single-class.
pub fn predict_failures(
    output: &SimulationOutput,
    config: &PredictionConfig,
) -> Result<PredictionReport> {
    evaluate_prediction(&build_prediction_table(output)?, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use rainshine_dcsim::{CorruptionConfig, FleetConfig, Simulation};

    fn sim() -> SimulationOutput {
        Simulation::new(FleetConfig::medium(), 47).run()
    }

    #[test]
    fn prediction_beats_base_rate() {
        let out = sim();
        let report = predict_failures(&out, &PredictionConfig::default()).unwrap();
        let c = &report.confusion;
        assert!(report.test_rows > 500, "test rows {}", report.test_rows);
        assert!(c.recall() > 0.4, "recall {}", c.recall());
        assert!(
            c.precision() > c.base_rate(),
            "precision {} should beat base rate {}",
            c.precision(),
            c.base_rate()
        );
        assert!(c.lift() > 1.2, "lift {}", c.lift());
        // Balanced training split.
        assert!((report.train_positive_share - 0.5).abs() < 0.05);
    }

    #[test]
    fn history_features_matter() {
        let out = sim();
        let report = predict_failures(&out, &PredictionConfig::default()).unwrap();
        let history: f64 = report
            .importance
            .iter()
            .filter(|(n, _)| n.starts_with("failures_last"))
            .map(|(_, v)| v)
            .sum();
        // Static features (SKU, placement) already encode much of the rack's
        // propensity, but the trailing-failure features must contribute
        // beyond them.
        assert!(history > 1.0, "history importance {history}: {:?}", report.importance);
    }

    #[test]
    fn unbalanced_ablation_hurts_recall() {
        let out = sim();
        let balanced = predict_failures(&out, &PredictionConfig::default()).unwrap();
        let unbalanced =
            predict_failures(&out, &PredictionConfig { downsample_ratio: None }).unwrap();
        // The paper's warning: without balancing, the majority class
        // dominates and the model misses failures.
        assert!(
            unbalanced.confusion.recall() < balanced.confusion.recall(),
            "unbalanced recall {} vs balanced {}",
            unbalanced.confusion.recall(),
            balanced.confusion.recall()
        );
    }

    #[test]
    fn blacked_out_rows_carry_no_environment() {
        let mut config = FleetConfig::medium();
        config.corruption = CorruptionConfig::dirty_default();
        let out = Simulation::new(config, 47).run();
        let built = build_prediction_table(&out).unwrap();
        let (table, days) = (&built.table, &built.day_of_row);
        // A region label ("DC1-3") names both the DC and the region.
        let ids: HashMap<_, _> =
            out.fleet.racks.iter().map(|r| (format!("{}-{}", r.dc, r.region.0), r)).collect();
        let blacked_out: Vec<usize> = (0..table.rows())
            .filter(|&row| {
                let rack = ids[table.nominal_label(columns::REGION, row).unwrap()];
                out.sensor_faults.is_blacked_out(rack.dc, rack.region, days[row])
            })
            .collect();
        assert!(!blacked_out.is_empty(), "no prediction row falls in a blackout");
        let temp = table.continuous(columns::TEMPERATURE_F).unwrap();
        let rh = table.continuous(columns::RELATIVE_HUMIDITY).unwrap();
        for row in blacked_out {
            assert!(
                temp[row].is_nan() && rh[row].is_nan(),
                "row {row}: {} °F, {} %",
                temp[row],
                rh[row]
            );
        }
    }

    #[test]
    fn one_table_serves_both_variants() {
        let out = sim();
        let balanced = PredictionConfig::default();
        let unbalanced = PredictionConfig { downsample_ratio: None };
        let table = build_prediction_table(&out).unwrap();
        for config in [&balanced, &unbalanced] {
            assert_eq!(
                evaluate_prediction(&table, config).unwrap(),
                predict_failures(&out, config).unwrap(),
                "{config:?}"
            );
        }
    }

    #[test]
    fn test_row_predictions_match_the_whole_table() {
        let out = sim();
        let built = build_prediction_table(&out).unwrap();
        let table = &built.table;
        let (start, end) = (out.config.start.days(), out.config.end.days());
        let split_day = start + ((end - start) as f64 * TRAIN_FRACTION) as u64;
        let (train, test_rows): (Vec<usize>, Vec<usize>) =
            (0..table.rows()).partition(|&row| built.day_of_row[row] < split_day);
        assert!(!train.is_empty() && !test_rows.is_empty());
        let ds = CartDataset::classification(table, history_columns::LABEL, PREDICTION_FEATURES)
            .unwrap();
        let tree = Tree::fit_on_rows(&ds, &TREE, &train).unwrap();
        assert!(tree.leaf_count() > 1);
        let whole = tree.predict(table).unwrap();
        let at_rows: Vec<f64> = test_rows.iter().map(|&row| whole[row]).collect();
        assert_eq!(tree.predict_rows(table, &test_rows).unwrap(), at_rows);
    }

    /// Paper-scale oracle for P1's CART fits: the balanced and unbalanced
    /// classification trees `evaluate_prediction` grows (seed 42, the
    /// same training rows) must equal the per-node-sort reference's.
    /// About 1 s in release; `ci.sh` runs it with `--ignored`.
    #[test]
    #[ignore = "paper-scale fleet; run in release"]
    fn p1_trees_match_the_per_node_sort_reference_at_paper_scale() {
        let out = Simulation::new(FleetConfig::paper_scale(), 42).run();
        let balanced = PredictionConfig::default();
        let unbalanced = PredictionConfig { downsample_ratio: None };
        let built = build_prediction_table(&out).unwrap();
        let ds =
            CartDataset::classification(&built.table, history_columns::LABEL, PREDICTION_FEATURES)
                .unwrap();
        for config in [&balanced, &unbalanced] {
            let split = split_rows(&built, config).unwrap();
            let tree = Tree::fit_on_rows(&ds, &TREE, &split.train).unwrap();
            let reference = Tree::fit_on_rows_per_node_sort(&ds, &TREE, &split.train).unwrap();
            assert!(tree.leaf_count() > 1, "{config:?}");
            assert_eq!(tree, reference, "{config:?}");
        }
    }

    #[test]
    fn confusion_metric_identities() {
        let c = Confusion {
            true_positives: 30,
            false_positives: 10,
            true_negatives: 50,
            false_negatives: 10,
        };
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.recall() - 0.75).abs() < 1e-12);
        assert!((c.f1() - 0.75).abs() < 1e-12);
        assert!((c.accuracy() - 0.8).abs() < 1e-12);
        assert!((c.base_rate() - 0.4).abs() < 1e-12);
        assert!((c.lift() - 1.875).abs() < 1e-12);
        let empty = Confusion::default();
        assert_eq!(empty.precision(), 0.0);
        assert_eq!(empty.f1(), 0.0);
        assert_eq!(empty.lift(), 0.0);
    }
}
