//! Cost-complexity (weakest-link) pruning and k-fold cross-validation.
//!
//! Following Breiman et al. (1984) ch. 3 / `rpart`: for an internal node `t`
//! with subtree `T_t`,
//!
//! ```text
//! g(t) = (R(t) − R(T_t)) / (|leaves(T_t)| − 1)
//! ```
//!
//! is the per-leaf cost of keeping the subtree. Pruning repeatedly collapses
//! the node with minimal `g`, producing a nested sequence of subtrees indexed
//! by the complexity parameter `cp = g / R(root)`.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::CartDataset;
use crate::params::CartParams;
use crate::tree::{Tree, TreeKind};
use crate::{CartError, Result};

/// Subtree statistics: `(leaf count, sum of leaf risks)`.
fn subtree_stats(tree: &Tree, id: usize) -> (usize, f64) {
    let node = &tree.nodes()[id];
    match (node.left, node.right) {
        (Some(l), Some(r)) => {
            let (ll, lr) = subtree_stats(tree, l);
            let (rl, rr) = subtree_stats(tree, r);
            (ll + rl, lr + rr)
        }
        _ => (1, node.risk),
    }
}

/// The weakest link: the internal node with minimal `g(t)`, or `None` if the
/// tree is a single leaf.
fn weakest_link(tree: &Tree) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for node in tree.nodes() {
        if node.is_leaf() {
            continue;
        }
        let (leaves, subtree_risk) = subtree_stats(tree, node.id);
        let g = (node.risk - subtree_risk) / (leaves - 1) as f64;
        if best.is_none_or(|(_, bg)| g < bg) {
            best = Some((node.id, g));
        }
    }
    best
}

/// One step of the pruning sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpStep {
    /// Normalized complexity parameter at which this subtree becomes
    /// optimal (`g / R(root)`).
    pub cp: f64,
    /// Leaves in the subtree.
    pub leaves: usize,
    /// Relative training error `R(T)/R(root)` of the subtree.
    pub rel_error: f64,
}

/// The full nested pruning sequence from the fitted tree down to the root
/// leaf, ordered by increasing `cp`.
pub fn cp_sequence(tree: &Tree) -> Vec<CpStep> {
    let root_risk = tree.root_risk().max(f64::MIN_POSITIVE);
    let mut work = tree.clone();
    let mut steps = Vec::new();
    let (leaves0, risk0) = subtree_stats(&work, 0);
    steps.push(CpStep { cp: 0.0, leaves: leaves0, rel_error: risk0 / root_risk });
    while let Some((id, g)) = weakest_link(&work) {
        work.collapse(id);
        work.compact();
        let (leaves, risk) = subtree_stats(&work, 0);
        steps.push(CpStep { cp: g / root_risk, leaves, rel_error: risk / root_risk });
        if leaves == 1 {
            break;
        }
    }
    steps
}

/// Returns a copy of `tree` pruned at complexity `cp`: every subtree whose
/// weakest link has `g(t) <= cp · R(root)` is collapsed.
pub fn pruned(tree: &Tree, cp: f64) -> Tree {
    let threshold = cp * tree.root_risk();
    let mut work = tree.clone();
    loop {
        match weakest_link(&work) {
            Some((id, g)) if g <= threshold + 1e-12 => {
                work.collapse(id);
                work.compact();
            }
            _ => break,
        }
    }
    work
}

/// Cross-validation error for one candidate `cp`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvPoint {
    /// Candidate complexity parameter.
    pub cp: f64,
    /// Mean held-out relative error across folds (relative to root risk of
    /// the full-data tree).
    pub error: f64,
    /// Standard error of the fold errors.
    pub se: f64,
}

/// Result of [`cross_validate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvResult {
    /// Error for each candidate `cp`, ordered by increasing `cp`.
    pub points: Vec<CvPoint>,
}

impl CvResult {
    /// The `cp` minimizing cross-validated error.
    pub fn best_cp(&self) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| a.error.partial_cmp(&b.error).expect("finite cv error"))
            .map(|p| p.cp)
            .unwrap_or(0.0)
    }

    /// The 1-SE rule: the largest `cp` whose error is within one standard
    /// error of the minimum (prefers simpler trees).
    pub fn best_cp_1se(&self) -> f64 {
        let best = self
            .points
            .iter()
            .min_by(|a, b| a.error.partial_cmp(&b.error).expect("finite cv error"));
        let Some(best) = best else { return 0.0 };
        let limit = best.error + best.se;
        self.points.iter().filter(|p| p.error <= limit).map(|p| p.cp).fold(best.cp, f64::max)
    }
}

/// Held-out prediction error of `tree` on `rows`: sum of squared errors for
/// regression, misclassification count for classification. Predicts the
/// held-out rows directly (no subset materialization).
fn holdout_error(tree: &Tree, dataset: &CartDataset<'_>, rows: &[usize]) -> Result<f64> {
    let preds = tree.predict_rows(dataset.table(), rows)?;
    match dataset.target() {
        crate::dataset::Target::Regression(y) => {
            Ok(rows.iter().zip(&preds).map(|(&r, p)| (y[r] - p).powi(2)).sum())
        }
        crate::dataset::Target::Classification { codes, .. } => {
            debug_assert_eq!(tree.kind(), TreeKind::Classification);
            Ok(rows.iter().zip(&preds).filter(|(&r, p)| codes[r] as usize != **p as usize).count()
                as f64)
        }
    }
}

/// K-fold cross-validation over the `cp` sequence of the full-data tree.
///
/// Candidate `cp` values are the geometric midpoints of adjacent steps of
/// the full tree's pruning sequence (rpart's scheme). For each fold the tree
/// is re-fitted on the training rows, pruned at every candidate, and scored
/// on the held-out rows.
///
/// # Errors
///
/// Returns [`CartError::TooManyFolds`] if `folds > rows` or `folds < 2`, or
/// any fitting error.
pub fn cross_validate(
    dataset: &CartDataset<'_>,
    params: &CartParams,
    folds: usize,
    seed: u64,
) -> Result<CvResult> {
    cross_validate_with_obs(dataset, params, folds, seed, &rainshine_obs::Obs::disabled())
}

/// [`cross_validate`] with observability: records a `prune.cross_validate`
/// span whose item count is `folds × candidate cp values`.
///
/// # Errors
///
/// Same conditions as [`cross_validate`].
pub fn cross_validate_with_obs(
    dataset: &CartDataset<'_>,
    params: &CartParams,
    folds: usize,
    seed: u64,
    obs: &rainshine_obs::Obs,
) -> Result<CvResult> {
    let mut span = obs.span("prune.cross_validate");
    let n = dataset.len();
    if folds < 2 || folds > n {
        return Err(CartError::TooManyFolds { folds, rows: n });
    }
    // Grow the reference tree with minimal cp so the sequence is rich.
    let grow_params = params.with_cp(params.cp.min(1e-4));
    let full = Tree::fit(dataset, &grow_params)?;
    let seq = cp_sequence(&full);
    let mut candidates: Vec<f64> = Vec::new();
    for w in seq.windows(2) {
        let lo = w[0].cp.max(1e-12);
        let hi = w[1].cp.max(lo);
        candidates.push((lo * hi).sqrt());
    }
    if candidates.is_empty() {
        candidates.push(params.cp);
    }
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite cp"));
    candidates.dedup();
    span.add_items((folds * candidates.len()) as u64);

    let mut rows: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    rows.shuffle(&mut rng);

    let root_risk = full.root_risk().max(f64::MIN_POSITIVE);
    // fold_errors[c][f] = error of candidate c on fold f.
    let mut fold_errors = vec![Vec::with_capacity(folds); candidates.len()];
    for f in 0..folds {
        let test: Vec<usize> = rows.iter().copied().skip(f).step_by(folds).collect();
        let train: Vec<usize> = rows
            .iter()
            .copied()
            .enumerate()
            .filter_map(|(i, r)| ((i % folds) != f).then_some(r))
            .collect();
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let fold_tree = Tree::fit_on_rows(dataset, &grow_params, &train)?;
        for (c, &cp) in candidates.iter().enumerate() {
            let p = pruned(&fold_tree, cp);
            fold_errors[c].push(holdout_error(&p, dataset, &test)? / root_risk);
        }
    }
    let points = candidates
        .iter()
        .zip(&fold_errors)
        .map(|(&cp, errs)| {
            let k = errs.len().max(1) as f64;
            let mean = errs.iter().sum::<f64>() / k;
            let var = errs.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (k - 1.0).max(1.0);
            CvPoint { cp, error: mean * folds as f64, se: (var / k).sqrt() * folds as f64 }
        })
        .collect();
    Ok(CvResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

    fn noisy_step_table(n: usize) -> Frame {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("noise", FeatureKind::Continuous),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        // Deterministic pseudo-noise so the test has no RNG dependency.
        for i in 0..n {
            let x = (i % 100) as f64;
            let noise = ((i * 2_654_435_761) % 1000) as f64 / 1000.0;
            let y = if x < 50.0 { 1.0 } else { 5.0 } + (noise - 0.5) * 0.5;
            b.push_row(vec![Value::Continuous(x), Value::Continuous(noise), Value::Continuous(y)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cp_sequence_is_monotone_and_nested() {
        let t = noisy_step_table(300);
        let ds = CartDataset::regression(&t, "y", &["x", "noise"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_cp(0.0001)).unwrap();
        let seq = cp_sequence(&tree);
        assert!(seq.len() >= 2);
        for w in seq.windows(2) {
            assert!(w[0].cp <= w[1].cp + 1e-12, "cp increases");
            assert!(w[0].leaves >= w[1].leaves, "leaves shrink");
            assert!(w[0].rel_error <= w[1].rel_error + 1e-9, "training error grows");
        }
        assert_eq!(seq.last().unwrap().leaves, 1);
    }

    #[test]
    fn pruned_reduces_leaves_monotonically() {
        let t = noisy_step_table(300);
        let ds = CartDataset::regression(&t, "y", &["x", "noise"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_cp(0.0001)).unwrap();
        let mut last = usize::MAX;
        for cp in [0.0, 0.001, 0.01, 0.1, 1.0] {
            let p = pruned(&tree, cp);
            assert!(p.leaf_count() <= last);
            last = p.leaf_count();
            // Pruned trees still predict.
            assert_eq!(p.predict(&t).unwrap().len(), t.rows());
        }
        assert_eq!(pruned(&tree, 1.0).leaf_count(), 1);
    }

    #[test]
    fn cross_validation_prefers_signal_over_noise() {
        let t = noisy_step_table(300);
        let ds = CartDataset::regression(&t, "y", &["x", "noise"]).unwrap();
        let cv = cross_validate(&ds, &CartParams::default(), 5, 7).unwrap();
        assert!(!cv.points.is_empty());
        let best = cv.best_cp();
        let tree = Tree::fit(&ds, &CartParams::default().with_cp(0.0001)).unwrap();
        let final_tree = pruned(&tree, best);
        // The signal split at x=50 must survive; overfit noise splits should
        // mostly be pruned away.
        assert!(final_tree.leaf_count() >= 2);
        let imp = final_tree.variable_importance();
        assert_eq!(imp[0].0, "x");
        assert!(imp[0].1 > 90.0, "importance: {imp:?}");
        // 1-SE cp never below the minimizing cp.
        assert!(cv.best_cp_1se() >= best);
    }

    #[test]
    fn cross_validate_rejects_bad_folds() {
        let t = noisy_step_table(50);
        let ds = CartDataset::regression(&t, "y", &["x"]).unwrap();
        assert!(matches!(
            cross_validate(&ds, &CartParams::default(), 1, 0),
            Err(CartError::TooManyFolds { .. })
        ));
        assert!(matches!(
            cross_validate(&ds, &CartParams::default(), 51, 0),
            Err(CartError::TooManyFolds { .. })
        ));
    }

    #[test]
    fn single_leaf_tree_has_trivial_sequence() {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..30 {
            b.push_row(vec![Value::Continuous(i as f64), Value::Continuous(1.0)]).unwrap();
        }
        let t = b.build().unwrap();
        let ds = CartDataset::regression(&t, "y", &["x"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        let seq = cp_sequence(&tree);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].leaves, 1);
    }
}
