//! Failure prediction — the paper's flagged extension.
//!
//! Section V notes that CART alone cannot *predict* failures on this data:
//! "failed devices are a minority … one may need pre-processing to balance
//! these two sets", and the conclusion lists "prediction of datacenter
//! failures for pro-active maintenance" as future work. This module builds
//! that pipeline:
//!
//! 1. a rack-day classification dataset (Table III features plus
//!    recent-failure-history features) labelled with "does this rack
//!    generate a hardware failure within the next *horizon* days?";
//! 2. a **time-ordered** train/test split (no peeking at the future);
//! 3. **majority-class downsampling** on the training split only;
//! 4. a Gini classification tree, evaluated on the untouched test split
//!    with the usual detection metrics.

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::SimTime;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::{ticket_counts_by_rack_day, FaultFilter};
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

/// Configuration of a prediction study.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionConfig {
    /// Label horizon: "fails within the next N days".
    pub horizon_days: u64,
    /// Trailing history windows (short, long) in days.
    pub history_days: (u64, u64),
    /// Fraction of the timeline used for training (time-ordered split).
    pub train_fraction: f64,
    /// Negative:positive ratio after downsampling the training majority
    /// class (1.0 = perfectly balanced). `None` disables balancing — the
    /// ablation the paper warns about.
    pub downsample_ratio: Option<f64>,
    /// Tree parameters.
    pub cart: CartParams,
    /// Day stride when sampling rack-days.
    pub day_stride: usize,
    /// RNG seed for downsampling.
    pub seed: u64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            horizon_days: 7,
            history_days: (7, 30),
            train_fraction: 0.7,
            downsample_ratio: Some(1.0),
            cart: CartParams::default().with_min_sizes(60, 30).with_cp(0.003),
            day_stride: 3,
            seed: 0,
        }
    }
}

/// Binary confusion counts on the test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
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
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall = TP / (TP + FN); 0 when there were no positives.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
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
        let total =
            self.true_positives + self.false_positives + self.true_negatives + self.false_negatives;
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / total as f64
        }
    }

    /// Base rate of positives in the test split.
    pub fn base_rate(&self) -> f64 {
        let total =
            self.true_positives + self.false_positives + self.true_negatives + self.false_negatives;
        if total == 0 {
            0.0
        } else {
            (self.true_positives + self.false_negatives) as f64 / total as f64
        }
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
}

/// Outcome of a prediction study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Builds the labelled rack-day table plus the day index of each row (for
/// the time-ordered split).
fn build_prediction_table(
    output: &SimulationOutput,
    config: &PredictionConfig,
) -> Result<(Frame, Vec<u64>)> {
    let tickets = output.true_positives();
    let counts = ticket_counts_by_rack_day(&tickets, FaultFilter::AllHardware);
    let start_day = output.config.start.days();
    let end_day = output.config.end.days();
    let (short, long) = config.history_days;
    let mut builder = FrameBuilder::new(prediction_schema());
    let mut day_of_row = Vec::new();
    {
        let [sku_c, age_c, power_c, workload_c, temp_c, rh_c, dc_c, region_c, dow_c, short_c, long_c, label_c] =
            builder.columns_mut()
        else {
            unreachable!("prediction schema has 12 columns")
        };
        for rack in &output.fleet.racks {
            // Prefix sums of this rack's daily counts for O(1) history lookups.
            let days = (end_day - start_day) as usize;
            let mut prefix = vec![0u64; days + 1];
            for d in 0..days {
                let c = counts.get(&(rack.id, start_day + d as u64)).copied().unwrap_or(0);
                prefix[d + 1] = prefix[d] + c;
            }
            let window_sum = |from_day: i64, to_day: i64| -> f64 {
                let lo = from_day.clamp(0, days as i64) as usize;
                let hi = to_day.clamp(0, days as i64) as usize;
                (prefix[hi] - prefix[lo]) as f64
            };
            // Static nominal codes, interned on the rack's first emitted row.
            let mut rack_codes: Option<(u32, u32, u32, u32)> = None;
            let first_eligible = start_day.max(rack.commissioned_day.max(0) as u64) + long;
            let mut day = first_eligible;
            while day + config.horizon_days < end_day {
                let t = SimTime::from_days(day);
                if rack.is_active(t) {
                    let rel = (day - start_day) as i64;
                    let label_window = window_sum(rel + 1, rel + 1 + config.horizon_days as i64);
                    let env = output.env.daily_mean(rack.dc, rack.region, day);
                    let (sku, workload, dc, region) = match rack_codes {
                        Some(codes) => codes,
                        None => {
                            let codes = (
                                sku_c.intern(&rack.sku.to_string()),
                                workload_c.intern(&rack.workload.to_string()),
                                dc_c.intern(&rack.dc.to_string()),
                                region_c.intern(&format!("{}-{}", rack.dc, rack.region.0)),
                            );
                            rack_codes = Some(codes);
                            codes
                        }
                    };
                    sku_c.push_code(sku);
                    age_c.push_f64(rack.age_months(t));
                    power_c.push_f64(rack.power_kw);
                    workload_c.push_code(workload);
                    temp_c.push_f64(env.temp_f);
                    rh_c.push_f64(env.rh);
                    dc_c.push_code(dc);
                    region_c.push_code(region);
                    dow_c.push_i64(t.day_of_week().index() as i64);
                    short_c.push_f64(window_sum(rel - short as i64 + 1, rel + 1));
                    long_c.push_f64(window_sum(rel - long as i64 + 1, rel + 1));
                    let label = label_c.intern(if label_window > 0.0 { "fail" } else { "ok" });
                    label_c.push_code(label);
                    day_of_row.push(day);
                }
                day += config.day_stride as u64;
            }
        }
    }
    let table = builder.build()?;
    if table.is_empty() {
        return Err(AnalysisError::NoData { what: "no eligible rack-days for prediction".into() });
    }
    Ok((table, day_of_row))
}

/// Runs the full prediction study.
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
    if config.day_stride == 0 {
        return Err(AnalysisError::InvalidParameter { name: "day_stride", value: 0.0 });
    }
    if !(0.0 < config.train_fraction && config.train_fraction < 1.0) {
        return Err(AnalysisError::InvalidParameter {
            name: "train_fraction",
            value: config.train_fraction,
        });
    }
    let (table, day_of_row) = build_prediction_table(output, config)?;
    let start_day = output.config.start.days();
    let end_day = output.config.end.days();
    let split_day = start_day + ((end_day - start_day) as f64 * config.train_fraction) as u64;

    let labels = table.nominal_codes(history_columns::LABEL)?;
    let classes = table.dictionary(history_columns::LABEL)?.labels();
    let fail_code = classes.iter().position(|c| c == "fail").map(|i| i as u32);
    let Some(fail_code) = fail_code else {
        return Err(AnalysisError::NoData { what: "no positive examples in span".into() });
    };

    let mut train_pos = Vec::new();
    let mut train_neg = Vec::new();
    let mut test_rows = Vec::new();
    for row in 0..table.rows() {
        if day_of_row[row] < split_day {
            if labels[row] == fail_code {
                train_pos.push(row);
            } else {
                train_neg.push(row);
            }
        } else {
            test_rows.push(row);
        }
    }
    if train_pos.is_empty() || train_neg.is_empty() || test_rows.is_empty() {
        return Err(AnalysisError::NoData {
            what: "train/test splits need both classes and a test period".into(),
        });
    }

    // Balance by downsampling the majority (negatives are the majority in
    // any realistic run).
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let train: Vec<usize> = match config.downsample_ratio {
        Some(ratio) => {
            let keep =
                ((train_pos.len() as f64 * ratio).round() as usize).clamp(1, train_neg.len());
            let mut neg = train_neg.clone();
            neg.shuffle(&mut rng);
            neg.truncate(keep);
            train_pos.iter().chain(neg.iter()).copied().collect()
        }
        None => train_pos.iter().chain(train_neg.iter()).copied().collect(),
    };
    let train_positive_share = train_pos.len() as f64 / train.len() as f64;

    let ds = CartDataset::classification(&table, history_columns::LABEL, PREDICTION_FEATURES)?;
    let tree = Tree::fit_on_rows(&ds, &config.cart, &train)?;

    // Evaluate on the untouched, unbalanced test split.
    let predictions = tree.predict(&table)?;
    let mut confusion = Confusion::default();
    for &row in &test_rows {
        let predicted_fail = predictions[row] as u32 == fail_code;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_dcsim::{FleetConfig, Simulation};

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
        let unbalanced = predict_failures(
            &out,
            &PredictionConfig { downsample_ratio: None, ..PredictionConfig::default() },
        )
        .unwrap();
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
    fn invalid_config_rejected() {
        let out = sim();
        let c = PredictionConfig { train_fraction: 1.5, ..PredictionConfig::default() };
        assert!(predict_failures(&out, &c).is_err());
        let c = PredictionConfig { day_stride: 0, ..PredictionConfig::default() };
        assert!(predict_failures(&out, &c).is_err());
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
