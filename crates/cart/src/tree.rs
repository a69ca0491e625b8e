//! Tree fitting, prediction, and inspection.

use std::collections::HashMap;

use rainshine_telemetry::frame::Frame;

use crate::dataset::{feature_column, CartDataset, FeatureColumn, Target};
use crate::params::CartParams;
use crate::split::{
    best_split, best_split_ranked, exact_sums, ranked_order, Ranked, RiskAcc, SplitRule,
};
use crate::{CartError, Result};

/// Whether a tree predicts a continuous mean or a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Continuous target, variance impurity (`rpart` "anova").
    Regression,
    /// Nominal target, Gini impurity.
    Classification,
}

/// One node of a fitted tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Index of this node in [`Tree::nodes`].
    pub id: usize,
    /// Depth (root = 0).
    pub depth: usize,
    /// Training observations reaching this node.
    pub n: usize,
    /// Node risk: deviance (regression) or n·Gini (classification).
    pub risk: f64,
    /// Mean response (regression) or majority-class code (classification).
    pub prediction: f64,
    /// Per-class training counts (classification only).
    pub class_counts: Option<Vec<f64>>,
    /// Split applied at this node (`None` for leaves).
    pub rule: Option<SplitRule>,
    /// Left child index.
    pub left: Option<usize>,
    /// Right child index.
    pub right: Option<usize>,
    /// Risk decrease achieved by this node's split (0 for leaves).
    pub improvement: f64,
}

impl Node {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.rule.is_none()
    }
}

/// A fitted CART model.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    kind: TreeKind,
    nodes: Vec<Node>,
    feature_names: Vec<String>,
    target_name: String,
    root_risk: f64,
    classes: Vec<String>,
}

impl Tree {
    /// Fits a tree to the whole dataset.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters or an empty dataset.
    pub fn fit(dataset: &CartDataset<'_>, params: &CartParams) -> Result<Self> {
        let rows: Vec<usize> = (0..dataset.len()).collect();
        Self::fit_on_rows(dataset, params, &rows)
    }

    /// Fits a tree using only the given training rows (`rows` may
    /// repeat).
    ///
    /// Growth uses the presort-once / partition-many scheme. Each ordered
    /// feature is presorted **once** over `rows`, by a stable counting
    /// sort over its distinct values in total order, into a segment of
    /// `u32` row ids with a dense rank per value; splitting a node
    /// partitions the rows and every segment in place in one pass each (no
    /// per-node sort). The scans find boundaries between distinct values
    /// by comparing ranks, reuse each node's target totals from when the
    /// node was made, and sweep a nominal feature's categories by merged
    /// category totals in one pass over the node's rows. Every sort and
    /// partition keeps the reference's order, so the fitted tree is
    /// bit-identical to the per-node-sort reference
    /// ([`Tree::fit_on_rows_per_node_sort`]).
    ///
    /// Merged totals equal the reference's row-by-row adds only when every
    /// partial sum of the target is exact (`split::exact_sums`), so a fit
    /// with a nominal feature whose target sums are not exact over `rows`
    /// is handed to the reference before anything is presorted, as is a
    /// fit whose row ids do not fit in `u32`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters or an empty row set.
    pub fn fit_on_rows(
        dataset: &CartDataset<'_>,
        params: &CartParams,
        rows: &[usize],
    ) -> Result<Self> {
        params.validate()?;
        if rows.is_empty() {
            return Err(CartError::EmptyDataset);
        }
        if u32::try_from(dataset.len()).is_err() || u32::try_from(rows.len()).is_err() {
            return Self::fit_on_rows_per_node_sort(dataset, params, rows);
        }
        let target = dataset.target();
        let features = dataset.features();
        let mut rows_arr: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        // The nominal scans merge category totals, which match the
        // reference's row-by-row adds only when the sums are exact.
        let has_nominal = features.iter().any(|(_, c)| matches!(c, FeatureColumn::Nominal { .. }));
        if has_nominal && !exact_sums(&target, &rows_arr) {
            return Self::fit_on_rows_per_node_sort(dataset, params, rows);
        }
        let mut tree = Tree::skeleton(dataset, &target);

        // Presort: one NaN-filtered, rank-keyed segment per ordered
        // feature, partitioned (never re-sorted) down the tree.
        let mut segments: Vec<Option<Vec<Ranked>>> = features
            .iter()
            .map(|(_, column)| match column {
                FeatureColumn::Continuous(values) => Some(ranked_order(&rows_arr, |r| values[r])),
                FeatureColumn::Ordinal(values) => {
                    Some(ranked_order(&rows_arr, |r| values[r] as f64))
                }
                FeatureColumn::Nominal { .. } => None,
            })
            .collect();
        let root_segs: Vec<(usize, usize)> =
            segments.iter().map(|s| (0, s.as_ref().map_or(0, Vec::len))).collect();

        // Workspace buffers shared by every split of this fit.
        let mut goes_left = vec![false; dataset.len()];
        // `scratch_rows` parks a node's right rows while it is partitioned.
        let mut scratch_rows: Vec<u32> = Vec::new();
        let mut right_ranked: Vec<Ranked> = Vec::new();

        // Depth-first growth with an explicit stack of (node id, rows
        // segment, per-feature segments, the node's target totals).
        let root_total = RiskAcc::over(&target, rows_arr.iter().map(|&r| r as usize));
        let root_id = tree.push_acc(&root_total, rows_arr.len(), 0);
        tree.root_risk = tree.nodes[root_id].risk;
        let mut stack: Vec<GrowFrame> = vec![(root_id, (0, rows_arr.len()), root_segs, root_total)];
        while let Some((node_id, (lo, hi), segs, total)) = stack.pop() {
            let depth = tree.nodes[node_id].depth;
            let risk = tree.nodes[node_id].risk;
            if depth >= params.max_depth || hi - lo < params.min_split || risk <= 1e-12 {
                continue;
            }
            let split = {
                let views: Vec<Option<&[Ranked]>> = segments
                    .iter()
                    .zip(&segs)
                    .map(|(segment, &(a, b))| segment.as_ref().map(|v| &v[a..b]))
                    .collect();
                best_split_ranked(&target, features, &rows_arr[lo..hi], &views, &total, params)
            };
            let Some((slot, split)) = split else {
                continue;
            };
            // rpart semantics: the split must improve fit by cp · root risk.
            if tree.root_risk > 0.0 && split.improvement < params.cp * tree.root_risk {
                continue;
            }
            let column = &features[slot].1;
            // The rule is a pure function of a row's value, so one flag
            // per row id routes every occurrence (repeated rows
            // included) consistently.
            for &r in &rows_arr[lo..hi] {
                goes_left[r as usize] = split.rule.try_goes_left(column, r as usize)?;
            }
            let left_n =
                partition(&mut rows_arr[lo..hi], |r| goes_left[r as usize], &mut scratch_rows);
            if left_n == 0 || left_n == hi - lo {
                continue;
            }
            let mid = lo + left_n;
            let mut left_segs = Vec::with_capacity(segs.len());
            let mut right_segs = Vec::with_capacity(segs.len());
            for (segment, &(a, b)) in segments.iter_mut().zip(&segs) {
                let ln = segment.as_mut().map_or(0, |v| {
                    partition(&mut v[a..b], |e| goes_left[e.row as usize], &mut right_ranked)
                });
                left_segs.push((a, a + ln));
                right_segs.push((a + ln, b));
            }
            let left_total = RiskAcc::over(&target, rows_arr[lo..mid].iter().map(|&r| r as usize));
            let right_total = RiskAcc::over(&target, rows_arr[mid..hi].iter().map(|&r| r as usize));
            let left_id = tree.push_acc(&left_total, mid - lo, depth + 1);
            let right_id = tree.push_acc(&right_total, hi - mid, depth + 1);
            {
                let node = &mut tree.nodes[node_id];
                node.rule = Some(split.rule);
                node.improvement = split.improvement;
                node.left = Some(left_id);
                node.right = Some(right_id);
            }
            stack.push((left_id, (lo, mid), left_segs, left_total));
            stack.push((right_id, (mid, hi), right_segs, right_total));
        }
        Ok(tree)
    }

    /// The reference fitter, which re-sorts every ordered feature at every
    /// node and re-adds a nominal feature's rows category by category. It
    /// is the oracle of the presort-equivalence tests (the proptest and
    /// the medium and paper-scale fleet tests), and
    /// [`Tree::fit_on_rows`] hands it the fits its presort path does not
    /// take: those with a nominal feature and a target whose sums are not
    /// exact, and those whose row ids do not fit in `u32`. Analysis code
    /// should call [`Tree::fit_on_rows`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid parameters or an empty row set.
    #[doc(hidden)]
    pub fn fit_on_rows_per_node_sort(
        dataset: &CartDataset<'_>,
        params: &CartParams,
        rows: &[usize],
    ) -> Result<Self> {
        params.validate()?;
        if rows.is_empty() {
            return Err(CartError::EmptyDataset);
        }
        let target = dataset.target();
        let features = dataset.features();
        let mut tree = Tree::skeleton(dataset, &target);

        // Depth-first growth with an explicit stack of (node id, rows).
        let root_id = tree.push_node(&target, rows, 0);
        tree.root_risk = tree.nodes[root_id].risk;
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(root_id, rows.to_vec())];
        while let Some((node_id, node_rows)) = stack.pop() {
            let depth = tree.nodes[node_id].depth;
            let risk = tree.nodes[node_id].risk;
            if depth >= params.max_depth || node_rows.len() < params.min_split || risk <= 1e-12 {
                continue;
            }
            let Some((slot, split)) = best_split(&target, features, &node_rows, risk, params)
            else {
                continue;
            };
            // rpart semantics: the split must improve fit by cp · root risk.
            if tree.root_risk > 0.0 && split.improvement < params.cp * tree.root_risk {
                continue;
            }
            let column = &features[slot].1;
            let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
            for &r in &node_rows {
                if split.rule.try_goes_left(column, r)? {
                    left_rows.push(r);
                } else {
                    right_rows.push(r);
                }
            }
            if left_rows.is_empty() || right_rows.is_empty() {
                continue;
            }
            let left_id = tree.push_node(&target, &left_rows, depth + 1);
            let right_id = tree.push_node(&target, &right_rows, depth + 1);
            {
                let node = &mut tree.nodes[node_id];
                node.rule = Some(split.rule);
                node.improvement = split.improvement;
                node.left = Some(left_id);
                node.right = Some(right_id);
            }
            stack.push((left_id, left_rows));
            stack.push((right_id, right_rows));
        }
        Ok(tree)
    }

    /// An empty tree carrying the dataset's metadata, ready for growth.
    fn skeleton(dataset: &CartDataset<'_>, target: &Target<'_>) -> Tree {
        let classes = match target {
            Target::Regression(_) => Vec::new(),
            Target::Classification { classes, .. } => classes.to_vec(),
        };
        let kind =
            if dataset.is_regression() { TreeKind::Regression } else { TreeKind::Classification };
        Tree {
            kind,
            nodes: Vec::new(),
            feature_names: dataset.features().iter().map(|(name, _)| name.clone()).collect(),
            target_name: dataset.target_name().to_owned(),
            root_risk: 0.0,
            classes,
        }
    }

    fn push_node(&mut self, target: &Target<'_>, rows: &[usize], depth: usize) -> usize {
        self.push_acc(&RiskAcc::over(target, rows.iter().copied()), rows.len(), depth)
    }

    /// Appends a node of `n` rows whose target totals are `acc`.
    fn push_acc(&mut self, acc: &RiskAcc, n: usize, depth: usize) -> usize {
        let (prediction, class_counts) = match acc {
            RiskAcc::Reg { n, sum, .. } => (sum / n, None),
            RiskAcc::Cls { counts, .. } => {
                // Counts are whole numbers, so `total_cmp` orders them as
                // `partial_cmp` would; the last of tied maxima wins.
                let majority = counts
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0.0, |(i, _)| i as f64);
                (majority, Some(counts.clone()))
            }
        };
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            depth,
            n,
            risk: acc.risk(),
            prediction,
            class_counts,
            rule: None,
            left: None,
            right: None,
            improvement: 0.0,
        });
        id
    }

    /// The tree kind.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// All nodes; index 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Class labels (empty for regression).
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Leaf nodes in id order.
    pub fn leaves(&self) -> Vec<&Node> {
        self.nodes.iter().filter(|n| n.is_leaf()).collect()
    }

    /// Maximum node depth.
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Feature names the tree may reference.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The target column name the tree was fitted on.
    pub fn target_name(&self) -> &str {
        &self.target_name
    }

    /// Resolves, once per call, the column each split node tests: slot
    /// `id` holds node `id`'s column (`None` for leaves), so the walk never
    /// looks a feature up by name.
    fn resolve_columns<'t>(&self, table: &'t Frame) -> Result<Vec<Option<FeatureColumn<'t>>>> {
        let mut columns = Vec::with_capacity(self.feature_names.len());
        for name in &self.feature_names {
            let column = feature_column(table, name)
                .ok_or_else(|| CartError::MissingFeature { name: name.clone() })?;
            columns.push(column);
        }
        self.nodes
            .iter()
            .map(|node| {
                let Some(rule) = &node.rule else {
                    return Ok(None);
                };
                match self.feature_names.iter().position(|name| name == rule.feature()) {
                    Some(slot) => Ok(Some(columns[slot].clone())),
                    None => Err(CartError::MissingFeature { name: rule.feature().to_owned() }),
                }
            })
            .collect()
    }

    /// The leaf node id each row of `table` lands in.
    ///
    /// Unseen nominal categories route to the right child (they are not in
    /// any `left_codes` set).
    ///
    /// # Errors
    ///
    /// Returns [`CartError::MissingFeature`] if `table` lacks a feature the
    /// tree references, or [`CartError::ColumnKindMismatch`] if a feature's
    /// kind drifted from the fit-time schema.
    pub fn leaf_assignments(&self, table: &Frame) -> Result<Vec<usize>> {
        let columns = self.resolve_columns(table)?;
        (0..table.rows()).map(|row| self.walk(&columns, row)).collect()
    }

    /// The leaf `row` lands in; a node without both children ends the walk.
    fn walk(&self, columns: &[Option<FeatureColumn<'_>>], row: usize) -> Result<usize> {
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            let (Some(rule), Some(column), Some(left), Some(right)) =
                (&node.rule, &columns[id], node.left, node.right)
            else {
                return Ok(id);
            };
            id = if rule.try_goes_left(column, row)? { left } else { right };
        }
    }

    /// Predicted values for every row of `table`: the leaf mean for
    /// regression, the majority class code for classification.
    ///
    /// # Errors
    ///
    /// See [`Tree::leaf_assignments`].
    pub fn predict(&self, table: &Frame) -> Result<Vec<f64>> {
        Ok(self
            .leaf_assignments(table)?
            .into_iter()
            .map(|leaf| self.nodes[leaf].prediction)
            .collect())
    }

    /// [`Tree::predict`] for the listed `rows` of `table` only, in `rows`
    /// order; the other rows are never walked.
    ///
    /// # Errors
    ///
    /// Returns [`CartError::InvalidParameter`] for a row outside `table`,
    /// otherwise see [`Tree::leaf_assignments`].
    pub fn predict_rows(&self, table: &Frame, rows: &[usize]) -> Result<Vec<f64>> {
        let columns = self.resolve_columns(table)?;
        rows.iter()
            .map(|&row| {
                if row >= table.rows() {
                    return Err(CartError::InvalidParameter { name: "row", value: row as f64 });
                }
                Ok(self.nodes[self.walk(&columns, row)?].prediction)
            })
            .collect()
    }

    /// Variable importance: total risk decrease attributed to each feature
    /// across all splits, normalized to sum to 100. Features never used
    /// score 0. Sorted descending.
    pub fn variable_importance(&self) -> Vec<(String, f64)> {
        let mut raw = vec![0.0; self.feature_names.len()];
        for node in &self.nodes {
            if let Some(rule) = &node.rule {
                if let Some(i) = self.feature_names.iter().position(|n| n == rule.feature()) {
                    raw[i] += node.improvement;
                }
            }
        }
        // The total is summed in feature order and ties sort in feature
        // order, so the ranking is bit-identical across runs.
        let total: f64 = raw.iter().sum();
        let mut out: Vec<(String, f64)> = self
            .feature_names
            .iter()
            .zip(raw)
            .map(|(name, v)| (name.clone(), if total > 0.0 { 100.0 * v / total } else { 0.0 }))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The chain of split descriptions from the root down to `leaf_id`,
    /// e.g. `["datacenter in {DC1}", "temperature_f <= 78.4"]`. Each entry
    /// is suffixed with `" (no)"` when the path takes the right branch.
    ///
    /// Returns an empty vector for the root, or if `leaf_id` is unknown.
    pub fn path_to(&self, leaf_id: usize) -> Vec<String> {
        // Parent links are implicit; rebuild by search (trees are small).
        let mut parent: HashMap<usize, (usize, bool)> = HashMap::new();
        for node in &self.nodes {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                parent.insert(l, (node.id, true));
                parent.insert(r, (node.id, false));
            }
        }
        let mut path = Vec::new();
        let mut id = leaf_id;
        while let Some(&(p, went_left)) = parent.get(&id) {
            let Some(rule) = &self.nodes[p].rule else {
                break;
            };
            let mut desc = rule.describe();
            if !went_left {
                desc.push_str(" (no)");
            }
            path.push(desc);
            id = p;
        }
        path.reverse();
        path
    }
}

/// One pending node on the presort fitter's growth stack: node id, its
/// `(lo, hi)` range of the shared rows array, the `(lo, hi)` segment of
/// every per-feature presorted array, and the node's target totals.
type GrowFrame = (usize, (usize, usize), Vec<(usize, usize)>, RiskAcc);

/// Stably partitions `seg` in place by `is_left` (left elements first,
/// both sides keeping their relative order) and returns the left count.
/// Left elements compact in place in one pass; right elements park in
/// `right`, a reusable buffer, and are copied back behind them.
fn partition<T: Copy>(seg: &mut [T], is_left: impl Fn(T) -> bool, right: &mut Vec<T>) -> usize {
    right.clear();
    let mut write = 0;
    for i in 0..seg.len() {
        let e = seg[i];
        if is_left(e) {
            seg[write] = e;
            write += 1;
        } else {
            right.push(e);
        }
    }
    seg[write..].copy_from_slice(right);
    write
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{FeatureKind, Field, FrameBuilder, Schema, Value};

    /// y = 1 for x<30; 5 for 30<=x<70 and k=="a"; 9 otherwise.
    fn step_table(n: usize) -> Frame {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("k", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..n {
            let x = (i % 100) as f64;
            let k = if i % 2 == 0 { "a" } else { "b" };
            let y = if x < 30.0 {
                1.0
            } else if x < 70.0 && k == "a" {
                5.0
            } else {
                9.0
            };
            b.push_row(vec![Value::Continuous(x), k.into(), Value::Continuous(y)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn fits_and_recovers_structure() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        assert!(tree.leaf_count() >= 3, "leaves: {}", tree.leaf_count());
        // Predictions reproduce the generating rule exactly (pure leaves).
        let preds = tree.predict(&t).unwrap();
        let y = t.continuous("y").unwrap();
        for (p, target) in preds.iter().zip(y) {
            assert!((p - target).abs() < 1e-9, "pred {p} target {target}");
        }
    }

    #[test]
    fn every_row_lands_in_exactly_one_leaf() {
        let t = step_table(200);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        let leaves = tree.leaf_assignments(&t).unwrap();
        assert_eq!(leaves.len(), t.rows());
        for &leaf in &leaves {
            assert!(tree.nodes()[leaf].is_leaf());
        }
        // Leaf sizes sum to the dataset size.
        let total: usize = tree.leaves().iter().map(|l| l.n).sum();
        assert_eq!(total, t.rows());
    }

    #[test]
    fn importance_ranks_informative_feature_first() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        let imp = tree.variable_importance();
        assert_eq!(imp[0].0, "x");
        assert!(imp[0].1 > imp[1].1);
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn importance_is_bit_identical_and_sums_in_feature_order() {
        // y depends on three features, so at least three split on them.
        let schema = Schema::new(vec![
            Field::new("a", FeatureKind::Continuous),
            Field::new("b", FeatureKind::Continuous),
            Field::new("c", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut fb = FrameBuilder::new(schema);
        for i in 0..600 {
            let a = (i % 10) as f64;
            let b = ((i / 10) % 7) as f64;
            let c = ["p", "q", "r"][(i / 70) % 3];
            let y = 0.3 * a + if b > 3.0 { 2.1 } else { 0.0 } + if c == "q" { 1.7 } else { 0.0 };
            fb.push_row(vec![a.into(), b.into(), c.into(), y.into()]).unwrap();
        }
        let t = fb.build().unwrap();
        let ds = CartDataset::regression(&t, "y", &["a", "b", "c"]).unwrap();
        let mut tree = Tree::fit(&ds, &CartParams::default().with_cp(0.0001)).unwrap();

        // Give each feature's first split an improvement whose sum depends
        // on the summation order (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1) and
        // zero the rest, so any order other than feature order shows.
        let mut raw = vec![0.0; 3];
        for node in &mut tree.nodes {
            if let Some(rule) = &node.rule {
                let i = tree.feature_names.iter().position(|n| n == rule.feature()).unwrap();
                node.improvement = if raw[i] == 0.0 { [0.1, 0.2, 0.3][i] } else { 0.0 };
                raw[i] += node.improvement;
            }
        }
        assert_eq!(raw, [0.1, 0.2, 0.3], "not every feature split");
        let total = raw[0] + raw[1] + raw[2];
        assert_ne!(total, raw[2] + raw[1] + raw[0]);

        let bits = |imp: &[(String, f64)]| -> Vec<(String, u64)> {
            imp.iter().map(|(n, v)| (n.clone(), v.to_bits())).collect()
        };
        let first = tree.variable_importance();
        for _ in 0..20 {
            assert_eq!(bits(&tree.variable_importance()), bits(&first));
        }
        for (name, v) in &first {
            let i = tree.feature_names.iter().position(|n| n == name).unwrap();
            assert_eq!(v.to_bits(), (100.0 * raw[i] / total).to_bits(), "{name}");
        }
    }

    #[test]
    fn cp_controls_tree_size() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let small = Tree::fit(&ds, &CartParams::default().with_cp(0.5)).unwrap();
        let large = Tree::fit(&ds, &CartParams::default().with_cp(0.0001)).unwrap();
        assert!(small.leaf_count() <= large.leaf_count());
        assert!(small.leaf_count() >= 1);
    }

    #[test]
    fn max_depth_respected() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_max_depth(1)).unwrap();
        assert!(tree.depth() <= 1);
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn constant_target_single_leaf() {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..50 {
            b.push_row(vec![Value::Continuous(i as f64), Value::Continuous(3.0)]).unwrap();
        }
        let t = b.build().unwrap();
        let ds = CartDataset::regression(&t, "y", &["x"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.root().prediction, 3.0);
    }

    #[test]
    fn classification_tree_predicts_classes() {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("c", FeatureKind::Nominal),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..200 {
            let x = i as f64;
            let c = if x < 100.0 { "low" } else { "high" };
            b.push_row(vec![Value::Continuous(x), c.into()]).unwrap();
        }
        let t = b.build().unwrap();
        let ds = CartDataset::classification(&t, "c", &["x"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        assert_eq!(tree.kind(), TreeKind::Classification);
        assert_eq!(tree.classes(), &["low", "high"]);
        let preds = tree.predict(&t).unwrap();
        let codes = t.nominal_codes("c").unwrap();
        let correct = preds.iter().zip(codes).filter(|(p, &c)| **p as u32 == c).count();
        assert_eq!(correct, 200, "perfectly separable");
    }

    #[test]
    fn path_to_describes_route() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        let leaf = tree.leaves()[0].id;
        let path = tree.path_to(leaf);
        assert!(!path.is_empty());
        assert!(tree.path_to(0).is_empty());
    }

    #[test]
    fn presort_fitter_matches_per_node_sort_reference() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let params = CartParams::default().with_cp(0.0005).with_min_sizes(4, 2);
        // Full table, a subset, and a bootstrap-style multiset with
        // duplicates must all produce bit-identical trees.
        let all: Vec<usize> = (0..t.rows()).collect();
        let subset: Vec<usize> = (0..t.rows()).step_by(3).collect();
        let multiset: Vec<usize> = (0..t.rows()).map(|i| (i * 7 + 13) % t.rows()).collect();
        for rows in [&all, &subset, &multiset] {
            let presort = Tree::fit_on_rows(&ds, &params, rows).unwrap();
            let reference = Tree::fit_on_rows_per_node_sort(&ds, &params, rows).unwrap();
            assert_eq!(presort, reference);
        }
    }

    #[test]
    fn targets_with_inexact_sums_fit_as_the_reference() {
        // Targets `exact_sums` rejects: a non-integer, a NaN, an infinity,
        // and integers past its 2^53 bound. With the nominal feature `k`
        // the fit is handed to the reference; on `x` alone the presort
        // path's ordered scans run on the inexact sums. NaN and infinite
        // targets give NaN risks, which `==` never matches, so trees
        // compare as Debug text.
        let n = 300;
        let base = |i: usize| ((i * 7) % 5) as f64 * 3.0 + (i % 3) as f64;
        let with_cell = |cell: f64| -> Vec<f64> {
            (0..n).map(|i| if i == 17 { cell } else { base(i) }).collect()
        };
        let targets = [
            ("non-integer", (0..n).map(|i| base(i) + 0.1 * (i % 37) as f64).collect()),
            ("NaN", with_cell(f64::NAN)),
            ("infinity", with_cell(f64::INFINITY)),
            ("past 2^53", (0..n).map(|i| base(i) * 12_345_677.0 + (1u64 << 40) as f64).collect()),
        ];
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("k", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
        ]);
        for (what, y) in targets {
            let mut b = FrameBuilder::new(schema.clone());
            for (i, &y) in y.iter().enumerate() {
                let k = ["a", "b", "c", "d", "e"][(i * 7) % 5];
                b.push_row(vec![Value::Continuous((i % 37) as f64), k.into(), y.into()]).unwrap();
            }
            let t = b.build().unwrap();
            let rows: Vec<usize> = (0..n).collect();
            let ids: Vec<u32> = (0..n as u32).collect();
            let params = CartParams::default().with_cp(0.0001).with_min_sizes(4, 2);
            // A finite target grows a tree, so nodes below the root are
            // scanned too; a NaN root risk admits no split.
            let finite = t.continuous("y").unwrap().iter().all(|v| v.is_finite());
            for features in [&["x", "k"][..], &["x"]] {
                let ds = CartDataset::regression(&t, "y", features).unwrap();
                assert!(!exact_sums(&ds.target(), &ids), "{what}");
                let tree = Tree::fit_on_rows(&ds, &params, &rows).unwrap();
                let reference = Tree::fit_on_rows_per_node_sort(&ds, &params, &rows).unwrap();
                assert_eq!(format!("{tree:?}"), format!("{reference:?}"), "{what} on {features:?}");
                assert_eq!(tree.leaf_count() > 1, finite, "{what} on {features:?}");
            }
        }
    }

    #[test]
    fn fit_on_rows_uses_subset_only() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let rows: Vec<usize> = (0..100).collect();
        let tree = Tree::fit_on_rows(&ds, &CartParams::default(), &rows).unwrap();
        assert_eq!(tree.root().n, 100);
    }

    #[test]
    fn predict_rows_reads_only_the_listed_rows() {
        let t = step_table(400);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        let whole = tree.predict(&t).unwrap();
        let rows = [399, 0, 57, 57, 130];
        let want: Vec<f64> = rows.iter().map(|&row| whole[row]).collect();
        assert_eq!(tree.predict_rows(&t, &rows).unwrap(), want);
        assert!(tree.predict_rows(&t, &[]).unwrap().is_empty());
        assert!(matches!(
            tree.predict_rows(&t, &[3, 400]),
            Err(CartError::InvalidParameter { name: "row", .. })
        ));
    }

    #[test]
    fn missing_feature_at_predict_errors() {
        let t = step_table(100);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        // A frame with only "y".
        let schema = Schema::new(vec![Field::new("y", FeatureKind::Continuous)]);
        let mut b = FrameBuilder::new(schema);
        b.push_row(vec![Value::Continuous(0.0)]).unwrap();
        let other = b.build().unwrap();
        assert!(matches!(tree.predict(&other), Err(CartError::MissingFeature { .. })));
    }

    #[test]
    fn drifted_column_kind_errors_instead_of_panicking() {
        let t = step_table(200);
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
        // Same column names, but "x" arrives nominal instead of continuous:
        // the schema drifted between fit and predict.
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Nominal),
            Field::new("k", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
        ]);
        let mut b = FrameBuilder::new(schema);
        b.push_row(vec!["10".into(), "a".into(), Value::Continuous(1.0)]).unwrap();
        let drifted = b.build().unwrap();
        match tree.predict(&drifted) {
            Err(CartError::ColumnKindMismatch { feature, expected, found }) => {
                assert_eq!(feature, "x");
                assert_eq!(expected, "continuous");
                assert_eq!(found, "nominal");
            }
            other => panic!("expected ColumnKindMismatch, got {other:?}"),
        }
    }
}
