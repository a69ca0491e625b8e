//! Bagged tree ensembles (a small random-forest) with out-of-bag error and
//! permutation importance.
//!
//! The paper's framework uses single CART trees (they are interpretable:
//! the clusters and split rules *are* the insight). An ensemble is the
//! natural robustness extension: bagging stabilizes variable-importance
//! rankings in the presence of correlated factors (the paper's footnote 3
//! caveat), and permutation importance gives an importance measure that is
//! not biased toward high-cardinality features.

use std::collections::HashMap;

use rainshine_obs::{Collector, Obs};
use rainshine_parallel::{derive_seed, par_map_range, Parallelism};
use rainshine_telemetry::frame::Frame;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::{feature_column, CartDataset, FeatureColumn, Target};
use crate::params::CartParams;
use crate::tree::{rank_importance, Tree};
use crate::{CartError, Result};

/// Ensemble hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of bagged trees.
    pub trees: usize,
    /// Bootstrap sample size as a fraction of the dataset (sampling is with
    /// replacement, so `1.0` is the classic bootstrap).
    pub sample_fraction: f64,
    /// RNG seed for bootstrap sampling. Each tree derives its own
    /// independent stream as `seed ^ tree_index`, so the fitted forest
    /// does not depend on the order trees are built in.
    pub seed: u64,
    /// How to spread tree fitting across threads. Because every tree
    /// owns a derived seed and results merge in tree-index order, the
    /// fitted forest is bit-identical for any setting.
    pub parallelism: Parallelism,
    /// Parameters for each member tree.
    pub tree_params: CartParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            trees: 25,
            sample_fraction: 1.0,
            seed: 0,
            parallelism: Parallelism::Auto,
            tree_params: CartParams::default(),
        }
    }
}

impl ForestParams {
    fn validate(&self) -> Result<()> {
        if self.trees == 0 {
            return Err(CartError::InvalidParameter { name: "trees", value: 0.0 });
        }
        if !(self.sample_fraction > 0.0 && self.sample_fraction <= 1.0) {
            return Err(CartError::InvalidParameter {
                name: "sample_fraction",
                value: self.sample_fraction,
            });
        }
        self.tree_params.validate()
    }
}

/// A bagged regression forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forest {
    trees: Vec<Tree>,
    feature_names: Vec<String>,
    oob_mse: Option<f64>,
    baseline_variance: f64,
}

impl Forest {
    /// Fits a bagged forest on a regression dataset.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters, a classification dataset,
    /// or an empty dataset.
    pub fn fit(dataset: &CartDataset<'_>, params: &ForestParams) -> Result<Self> {
        Self::fit_with_obs(dataset, params, &Obs::disabled())
    }

    /// [`Forest::fit`] with observability: records a `forest.fit` span,
    /// one `forest.fit_tree` stage call per member tree (timed inside the
    /// worker), and a `forest.tree_nodes` histogram.
    ///
    /// Workers write into **local** collectors which are merged in
    /// tree-index order before being absorbed into `obs`, so everything
    /// except wall time is identical at any thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Forest::fit`].
    pub fn fit_with_obs(
        dataset: &CartDataset<'_>,
        params: &ForestParams,
        obs: &Obs,
    ) -> Result<Self> {
        let mut fit_span = obs.span("forest.fit");
        params.validate()?;
        let Target::Regression(y) = dataset.target() else {
            return Err(CartError::TargetKind { expected: "continuous" });
        };
        fit_span.add_items(params.trees as u64);
        let n = dataset.len();
        let sample_size = ((n as f64 * params.sample_fraction).round() as usize).max(1);
        let record = obs.is_enabled();
        // Each tree draws its bootstrap sample from an RNG seeded by
        // `seed ^ tree_index`, so trees can fit on any thread in any
        // order and still land on identical results.
        let fitted = par_map_range(params.parallelism, params.trees, |tree_index| {
            let started = record.then(std::time::Instant::now);
            let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed ^ tree_index as u64);
            let mut in_bag = vec![false; n];
            let rows: Vec<usize> = (0..sample_size)
                .map(|_| {
                    let r = rng.gen_range(0..n);
                    in_bag[r] = true;
                    r
                })
                .collect();
            let tree = Tree::fit_on_rows(dataset, &params.tree_params, &rows)?;
            let predictions = tree.predict(dataset.table())?;
            let mut local = Collector::new();
            if let Some(t) = started {
                let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                local.record_stage("forest.fit_tree", sample_size as u64, nanos);
                local.observe("forest.tree_nodes", tree.nodes().len() as u64);
            }
            Ok::<_, CartError>((tree, in_bag, predictions, local))
        });
        // Out-of-bag accumulation, merged sequentially in tree-index
        // order so float summation order is fixed; per-tree collectors
        // fold into one in the same order.
        let mut trees = Vec::with_capacity(params.trees);
        let mut oob_sum = vec![0.0f64; n];
        let mut oob_count = vec![0u32; n];
        let mut merged = Collector::new();
        for result in fitted {
            let (tree, in_bag, predictions, local): (Tree, Vec<bool>, Vec<f64>, Collector) =
                result?;
            for (row, &pred) in predictions.iter().enumerate() {
                if !in_bag[row] {
                    oob_sum[row] += pred;
                    oob_count[row] += 1;
                }
            }
            merged.merge(&local);
            trees.push(tree);
        }
        obs.absorb(&merged);
        let mut mse_sum = 0.0;
        let mut covered = 0usize;
        for row in 0..n {
            if oob_count[row] > 0 {
                let pred = oob_sum[row] / oob_count[row] as f64;
                mse_sum += (pred - y[row]).powi(2);
                covered += 1;
            }
        }
        let oob_mse = (covered > 0).then(|| mse_sum / covered as f64);
        let mean = y.iter().sum::<f64>() / n as f64;
        let baseline_variance = y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Ok(Forest {
            trees,
            feature_names: dataset.feature_names().to_vec(),
            oob_mse,
            baseline_variance,
        })
    }

    /// The member trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Mean prediction across members for every row of `table`.
    ///
    /// # Errors
    ///
    /// Returns [`CartError::MissingFeature`] if `table` lacks a feature.
    pub fn predict(&self, table: &Frame) -> Result<Vec<f64>> {
        let mut acc = vec![0.0f64; table.rows()];
        for tree in &self.trees {
            for (slot, p) in acc.iter_mut().zip(tree.predict(table)?) {
                *slot += p;
            }
        }
        let k = self.trees.len() as f64;
        for slot in &mut acc {
            *slot /= k;
        }
        Ok(acc)
    }

    /// Out-of-bag mean squared error, or `None` if every row was in-bag for
    /// every tree (tiny datasets / few trees).
    pub fn oob_mse(&self) -> Option<f64> {
        self.oob_mse
    }

    /// OOB R²: `1 − mse/var(y)`; `None` when OOB is unavailable.
    pub fn oob_r2(&self) -> Option<f64> {
        self.oob_mse.map(|mse| 1.0 - mse / self.baseline_variance.max(f64::MIN_POSITIVE))
    }

    /// Impurity-based importance averaged over members, normalized to sum
    /// to 100.
    pub fn variable_importance(&self) -> Vec<(String, f64)> {
        let mut raw = vec![0.0; self.feature_names.len()];
        for tree in &self.trees {
            for (name, v) in tree.variable_importance() {
                if let Some(i) = self.feature_names.iter().position(|f| *f == name) {
                    raw[i] += v;
                }
            }
        }
        rank_importance(&self.feature_names, raw)
    }

    /// Permutation importance: for each feature, the relative increase in
    /// prediction MSE when that feature's values are shuffled across rows.
    /// Zero (or slightly negative, clamped) means the feature carries no
    /// information the forest uses.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is not the one the forest was fitted
    /// on (missing features / target).
    pub fn permutation_importance(
        &self,
        dataset: &CartDataset<'_>,
        seed: u64,
    ) -> Result<Vec<(String, f64)>> {
        self.permutation_importance_with(dataset, seed, Parallelism::Auto)
    }

    /// [`permutation_importance`](Self::permutation_importance) with an
    /// explicit [`Parallelism`]. Each feature shuffles with its own
    /// derived seed, so results are identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is not the one the forest was fitted
    /// on (missing features / target).
    pub fn permutation_importance_with(
        &self,
        dataset: &CartDataset<'_>,
        seed: u64,
        parallelism: Parallelism,
    ) -> Result<Vec<(String, f64)>> {
        let Target::Regression(y) = dataset.target() else {
            return Err(CartError::TargetKind { expected: "continuous" });
        };
        let table = dataset.table();
        let n = table.rows();
        let base_pred = self.predict(table)?;
        let base_mse =
            base_pred.iter().zip(y).map(|(p, t)| (p - t).powi(2)).sum::<f64>() / n as f64;
        const PERMUTATION_STREAM: u64 = 0x9e37;
        let scores = par_map_range(parallelism, self.feature_names.len(), |feature_index| {
            let feature = &self.feature_names[feature_index];
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(
                seed,
                PERMUTATION_STREAM,
                feature_index as u64,
            ));
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let mut mse = 0.0;
            for row in 0..n {
                let p = self.predict_row_with_remap(table, row, feature, perm[row])?;
                mse += (p - y[row]).powi(2);
            }
            mse /= n as f64;
            let importance = ((mse - base_mse) / base_mse.max(f64::MIN_POSITIVE)).max(0.0);
            Ok((feature.clone(), importance))
        });
        let mut out = scores.into_iter().collect::<Result<Vec<_>>>()?;
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importance"));
        Ok(out)
    }

    /// Predicts `row` with `feature`'s value taken from `source_row`.
    fn predict_row_with_remap(
        &self,
        table: &Frame,
        row: usize,
        feature: &str,
        source_row: usize,
    ) -> Result<f64> {
        let mut columns: HashMap<&str, FeatureColumn<'_>> = HashMap::new();
        for name in &self.feature_names {
            columns.insert(name.as_str(), feature_column(table, name)?);
        }
        let mut sum = 0.0;
        for tree in &self.trees {
            let mut id = 0usize;
            loop {
                let node = &tree.nodes()[id];
                let Some(rule) = &node.rule else {
                    sum += node.prediction;
                    break;
                };
                let effective_row = if rule.feature() == feature { source_row } else { row };
                let goes_left = rule.try_goes_left(&columns[rule.feature()], effective_row)?;
                id = if goes_left {
                    node.left.expect("split node has left child")
                } else {
                    node.right.expect("split node has right child")
                };
            }
        }
        Ok(sum / self.trees.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{FeatureKind, Field, FrameBuilder, Schema, Value};

    fn table(n: usize) -> Frame {
        let schema = Schema::new(vec![
            Field::new("signal", FeatureKind::Continuous),
            Field::new("noise", FeatureKind::Continuous),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..n {
            let signal = (i % 100) as f64;
            let noise = ((i * 2_654_435_761) % 997) as f64 / 997.0;
            let y = if signal < 50.0 { 1.0 } else { 5.0 } + 0.4 * (noise - 0.5);
            b.push_row(vec![
                Value::Continuous(signal),
                Value::Continuous(noise),
                Value::Continuous(y),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn forest_params() -> ForestParams {
        ForestParams {
            trees: 15,
            sample_fraction: 0.8,
            seed: 3,
            parallelism: Parallelism::Auto,
            tree_params: CartParams::default().with_min_sizes(20, 10),
        }
    }

    #[test]
    fn forest_fits_and_predicts_signal() {
        let t = table(600);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let forest = Forest::fit(&ds, &forest_params()).unwrap();
        assert_eq!(forest.trees().len(), 15);
        let preds = forest.predict(&t).unwrap();
        let y = t.continuous("y").unwrap();
        let mse: f64 =
            preds.iter().zip(y).map(|(p, t)| (p - t).powi(2)).sum::<f64>() / y.len() as f64;
        assert!(mse < 0.1, "mse {mse}");
    }

    #[test]
    fn oob_r2_high_for_learnable_signal() {
        let t = table(600);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let forest = Forest::fit(&ds, &forest_params()).unwrap();
        let r2 = forest.oob_r2().expect("oob coverage");
        assert!(r2 > 0.8, "oob r2 {r2}");
        assert!(forest.oob_mse().unwrap() > 0.0);
    }

    #[test]
    fn permutation_importance_separates_signal_from_noise() {
        let t = table(600);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let forest = Forest::fit(&ds, &forest_params()).unwrap();
        let imp = forest.permutation_importance(&ds, 11).unwrap();
        let get = |n: &str| imp.iter().find(|(f, _)| f == n).unwrap().1;
        assert!(get("signal") > 10.0 * get("noise").max(1e-6), "{imp:?}");
        // Impurity importance agrees.
        let vi = forest.variable_importance();
        assert_eq!(vi[0].0, "signal");
    }

    #[test]
    fn forest_is_seed_deterministic() {
        let t = table(300);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let a = Forest::fit(&ds, &forest_params()).unwrap();
        let b = Forest::fit(&ds, &forest_params()).unwrap();
        assert_eq!(a, b);
        let mut other = forest_params();
        other.seed = 99;
        let c = Forest::fit(&ds, &other).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn thread_count_does_not_change_the_forest() {
        let t = table(300);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let mut params = forest_params();
        params.parallelism = Parallelism::Sequential;
        let sequential = Forest::fit(&ds, &params).unwrap();
        for parallelism in [Parallelism::Threads(2), Parallelism::Threads(4), Parallelism::Auto] {
            params.parallelism = parallelism;
            let threaded = Forest::fit(&ds, &params).unwrap();
            assert_eq!(sequential, threaded, "forest differs under {parallelism:?}");
            assert_eq!(sequential.oob_mse(), threaded.oob_mse());
        }
        // Permutation importance is per-feature seeded, so it is also
        // invariant to thread count.
        let a = sequential.permutation_importance_with(&ds, 11, Parallelism::Sequential).unwrap();
        let b = sequential.permutation_importance_with(&ds, 11, Parallelism::Threads(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn obs_deterministic_section_is_thread_invariant() {
        let t = table(300);
        let ds = CartDataset::regression(&t, "y", &["signal", "noise"]).unwrap();
        let deterministic = |par: Parallelism| {
            let mut p = forest_params();
            p.parallelism = par;
            let obs = rainshine_obs::Obs::enabled();
            Forest::fit_with_obs(&ds, &p, &obs).unwrap();
            let report = rainshine_obs::RunReport::from_collector(&obs.snapshot());
            report.deterministic_json()
        };
        let sequential = deterministic(Parallelism::Sequential);
        assert!(sequential.contains("forest.fit_tree"));
        assert!(sequential.contains("forest.tree_nodes"));
        for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
            assert_eq!(sequential, deterministic(par), "{par:?}");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let t = table(100);
        let ds = CartDataset::regression(&t, "y", &["signal"]).unwrap();
        let mut p = forest_params();
        p.trees = 0;
        assert!(Forest::fit(&ds, &p).is_err());
        let mut p = forest_params();
        p.sample_fraction = 0.0;
        assert!(Forest::fit(&ds, &p).is_err());
        let mut p = forest_params();
        p.sample_fraction = 1.5;
        assert!(Forest::fit(&ds, &p).is_err());
    }

    #[test]
    fn classification_dataset_rejected() {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("c", FeatureKind::Nominal),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..50 {
            b.push_row(vec![
                Value::Continuous(i as f64),
                Value::Nominal(if i < 25 { "a".into() } else { "b".into() }),
            ])
            .unwrap();
        }
        let t = b.build().unwrap();
        let ds = CartDataset::classification(&t, "c", &["x"]).unwrap();
        assert!(matches!(Forest::fit(&ds, &forest_params()), Err(CartError::TargetKind { .. })));
    }
}
