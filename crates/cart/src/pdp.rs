//! Partial dependence by stratified normalization — the paper's
//! `Metric ~ X1, N(X2), …, N(Xn)` notation (Section V-C): fit a tree on
//! the *control* features only, use its leaves as strata of "all other
//! factors held fixed", and measure the effect of the feature of interest
//! *within* each stratum, aggregating ratios across strata —
//! [`stratified_effect_nominal`].

use std::collections::{BTreeMap, HashMap};

use rainshine_telemetry::frame::Frame;
use serde::{Deserialize, Serialize};

use crate::dataset::CartDataset;
use crate::params::CartParams;
use crate::tree::Tree;
use crate::{CartError, Result};

/// Effect of one level of the feature of interest after normalizing all
/// control factors (the paper's `N(·)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelEffect {
    /// Level label (category name, or bin label for binned features).
    pub level: String,
    /// Multiplicative effect of this level after removing stratum effects
    /// (from a weighted two-way log-additive fit): `1.0` means "no effect
    /// beyond the control factors"; `1.5` means +50 %. Effects are centred
    /// so their weighted geometric mean is 1.
    pub relative: f64,
    /// Weighted standard deviation across strata of the level's per-stratum
    /// de-trended ratio (the variance the paper reports dropping by ~50 %
    /// under MF — Fig. 15).
    pub stddev: f64,
    /// Raw (un-normalized) mean response at this level.
    pub raw_mean: f64,
    /// Observations at this level.
    pub n: usize,
}

/// One (stratum, level) cell of a stratified analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StratumCell {
    /// Stratum index (dense renumbering of tree leaves).
    pub stratum: usize,
    /// Level index into [`StratifiedEffect::levels`].
    pub level: usize,
    /// Mean response in the cell.
    pub mean: f64,
    /// Observations in the cell.
    pub n: usize,
}

/// The result of a stratified-normalization analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratifiedEffect {
    /// Per-level effects, in level order.
    pub levels: Vec<LevelEffect>,
    /// Number of strata (tree leaves) used.
    pub strata: usize,
    /// Per-cell means, for direct contrasts.
    pub cells: Vec<StratumCell>,
}

impl StratifiedEffect {
    /// Direct within-stratum contrast between two levels: the weighted
    /// geometric mean of `mean(a)/mean(b)` over strata containing **both**
    /// levels with positive means (weight = the smaller cell count).
    ///
    /// This is the sharpest available estimate of a pairwise multiplicative
    /// effect — it never bridges through third levels, at the cost of using
    /// only co-occurrence strata. Returns `None` if the levels never
    /// co-occur.
    pub fn direct_ratio(&self, a: &str, b: &str) -> Option<f64> {
        let a_idx = self.levels.iter().position(|l| l.level == a)?;
        let b_idx = self.levels.iter().position(|l| l.level == b)?;
        let mut wsum = 0.0;
        let mut log_sum = 0.0;
        for cell in self.cells.iter().filter(|c| c.level == a_idx && c.mean > 0.0) {
            let Some(other) = self
                .cells
                .iter()
                .find(|c| c.stratum == cell.stratum && c.level == b_idx && c.mean > 0.0)
            else {
                continue;
            };
            let w = cell.n.min(other.n) as f64;
            wsum += w;
            log_sum += w * (cell.mean / other.mean).ln();
        }
        (wsum > 0.0).then(|| (log_sum / wsum).exp())
    }
}

/// Stratified effect of a **nominal** feature of interest (e.g. SKU in Q2):
/// `target ~ feature, N(controls…)`.
///
/// # Errors
///
/// Returns an error if columns are missing / of the wrong kind, the feature
/// appears among the controls, or tree fitting fails.
pub fn stratified_effect_nominal(
    table: &Frame,
    target: &str,
    feature: &str,
    controls: &[&str],
    params: &CartParams,
) -> Result<StratifiedEffect> {
    if controls.contains(&feature) {
        return Err(CartError::TargetIsFeature { name: feature.to_owned() });
    }
    let level_codes = table.nominal_codes(feature)?;
    let level_labels = table.dictionary(feature)?.labels();
    let ds = CartDataset::regression(table, target, controls)?;
    let tree = Tree::fit(&ds, params)?;
    let strata = tree.leaf_assignments(table)?;
    let y = table.continuous(target)?;
    let n_levels = level_labels.len();

    // stratum -> (per-level sums/counts, stratum sum/count)
    struct StratumAgg {
        level_sum: Vec<f64>,
        level_n: Vec<usize>,
        sum: f64,
        n: usize,
    }
    // BTreeMap, not HashMap: the aggregate is *iterated* below (stratum ids,
    // cell order, float summation order), so the map's iteration order is
    // part of the result. HashMap's per-instance hash seed made cell order —
    // and through it the last bits of the fitted effects — vary run to run.
    let mut agg: BTreeMap<usize, StratumAgg> = BTreeMap::new();
    for row in 0..table.rows() {
        let s = agg.entry(strata[row]).or_insert_with(|| StratumAgg {
            level_sum: vec![0.0; n_levels],
            level_n: vec![0; n_levels],
            sum: 0.0,
            n: 0,
        });
        let lvl = level_codes[row] as usize;
        s.level_sum[lvl] += y[row];
        s.level_n[lvl] += 1;
        s.sum += y[row];
        s.n += 1;
    }

    // Two-way log-additive fit on the positive cell means:
    //   log y(s, l) ≈ α_s + β_l
    // solved by weighted alternating least squares. Naively dividing each
    // level's mean by its stratum's mean is biased: the level's own mass
    // sits in the denominator, so ratios chained across strata with
    // different level mixes compress toward 1. The additive fit separates
    // the stratum effect from the level effect exactly when the response is
    // multiplicative in both (our hazard model's form).
    struct Cell {
        stratum: usize,
        level: usize,
        z: f64, // log cell mean
        w: f64, // observations in the cell
    }
    let stratum_ids: Vec<usize> = agg.keys().copied().collect();
    let stratum_index: HashMap<usize, usize> =
        stratum_ids.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut cells = Vec::new();
    for (&sid, s) in &agg {
        for lvl in 0..n_levels {
            let ln = s.level_n[lvl];
            if ln == 0 {
                continue;
            }
            let mean = s.level_sum[lvl] / ln as f64;
            if mean <= 0.0 {
                continue;
            }
            cells.push(Cell {
                stratum: stratum_index[&sid],
                level: lvl,
                z: mean.ln(),
                w: ln as f64,
            });
        }
    }
    let mut alpha = vec![0.0f64; stratum_ids.len()];
    let mut beta = vec![0.0f64; n_levels];
    for _ in 0..200 {
        let mut delta: f64 = 0.0;
        // Update level effects.
        let mut num = vec![0.0f64; n_levels];
        let mut den = vec![0.0f64; n_levels];
        for c in &cells {
            num[c.level] += c.w * (c.z - alpha[c.stratum]);
            den[c.level] += c.w;
        }
        for l in 0..n_levels {
            if den[l] > 0.0 {
                let new = num[l] / den[l];
                delta = delta.max((new - beta[l]).abs());
                beta[l] = new;
            }
        }
        // Update stratum effects.
        let mut num = vec![0.0f64; stratum_ids.len()];
        let mut den = vec![0.0f64; stratum_ids.len()];
        for c in &cells {
            num[c.stratum] += c.w * (c.z - beta[c.level]);
            den[c.stratum] += c.w;
        }
        for s in 0..stratum_ids.len() {
            if den[s] > 0.0 {
                let new = num[s] / den[s];
                delta = delta.max((new - alpha[s]).abs());
                alpha[s] = new;
            }
        }
        if delta < 1e-12 {
            break;
        }
    }
    // Centre the level effects: weighted mean beta = 0 so the average
    // relative effect is 1.
    let mut wsum = 0.0;
    let mut bsum = 0.0;
    let mut level_w = vec![0.0f64; n_levels];
    for c in &cells {
        level_w[c.level] += c.w;
    }
    for l in 0..n_levels {
        wsum += level_w[l];
        bsum += level_w[l] * beta[l];
    }
    let center = if wsum > 0.0 { bsum / wsum } else { 0.0 };

    let mut levels = Vec::with_capacity(n_levels);
    for (lvl, label) in level_labels.iter().enumerate() {
        let has_cells = level_w[lvl] > 0.0;
        let relative = if has_cells { (beta[lvl] - center).exp() } else { f64::NAN };
        // Spread of the de-trended per-stratum ratios around the fitted
        // effect.
        let mut rsum = 0.0;
        let mut rsq = 0.0;
        let mut rw = 0.0;
        for c in cells.iter().filter(|c| c.level == lvl) {
            let ratio = (c.z - alpha[c.stratum] - center).exp();
            rw += c.w;
            rsum += c.w * ratio;
            rsq += c.w * ratio * ratio;
        }
        let stddev = if rw > 0.0 {
            let mean = rsum / rw;
            ((rsq / rw - mean * mean).max(0.0)).sqrt()
        } else {
            f64::NAN
        };
        let (raw_sum, raw_n) = agg.values().fold((0.0, 0usize), |(s_acc, n_acc), s| {
            (s_acc + s.level_sum[lvl], n_acc + s.level_n[lvl])
        });
        levels.push(LevelEffect {
            level: label.clone(),
            relative,
            stddev,
            raw_mean: if raw_n > 0 { raw_sum / raw_n as f64 } else { f64::NAN },
            n: raw_n,
        });
    }
    let out_cells = cells
        .iter()
        .map(|c| StratumCell {
            stratum: c.stratum,
            level: c.level,
            mean: c.z.exp(),
            n: c.w as usize,
        })
        .collect();
    Ok(StratifiedEffect { levels, strata: agg.len(), cells: out_cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{FeatureKind, Field, FrameBuilder, Schema, Value};

    /// y = base(z) * sku_factor, where z is a confounder: sku "bad" appears
    /// mostly at high z. Marginal bad/good ratio is inflated; the true
    /// per-stratum ratio is 2.
    fn confounded_table() -> Frame {
        let schema = Schema::new(vec![
            Field::new("z", FeatureKind::Continuous),
            Field::new("sku", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..600 {
            let high_z = i % 3 != 0; // 2/3 of rows high-z
            let z = if high_z { 10.0 } else { 1.0 };
            // bad sku concentrated in high-z region (confounding)
            let sku = if high_z == (i % 4 != 0) { "bad" } else { "good" };
            let base = if high_z { 8.0 } else { 1.0 };
            let factor = if sku == "bad" { 2.0 } else { 1.0 };
            b.push_row(vec![Value::Continuous(z), sku.into(), Value::Continuous(base * factor)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn stratified_effect_deconfounds_sku() {
        let t = confounded_table();
        let params = CartParams::default().with_min_sizes(10, 5);
        let eff = stratified_effect_nominal(&t, "y", "sku", &["z"], &params).unwrap();
        assert_eq!(eff.levels.len(), 2);
        let bad = eff.levels.iter().find(|l| l.level == "bad").unwrap();
        let good = eff.levels.iter().find(|l| l.level == "good").unwrap();
        // Raw means are confounded: ratio far from 2.
        let raw_ratio = bad.raw_mean / good.raw_mean;
        // Normalized ratio recovers the true 2x factor.
        let norm_ratio = bad.relative / good.relative;
        assert!((norm_ratio - 2.0).abs() < 0.15, "normalized ratio {norm_ratio}");
        assert!(
            (raw_ratio - 2.0).abs() > (norm_ratio - 2.0).abs(),
            "raw {raw_ratio} should be more biased than normalized {norm_ratio}"
        );
    }

    #[test]
    fn feature_in_controls_rejected() {
        let t = confounded_table();
        let params = CartParams::default();
        assert!(matches!(
            stratified_effect_nominal(&t, "y", "sku", &["z", "sku"], &params),
            Err(CartError::TargetIsFeature { .. })
        ));
    }
}
