//! Split-search machinery shared by regression and classification trees.
//!
//! For each candidate feature the search finds the binary partition of the
//! node's rows that maximizes the decrease in *risk*:
//!
//! * regression — risk(node) = Σ (y − ȳ)² (the node deviance);
//! * classification — risk(node) = n · Gini(node).
//!
//! Continuous and ordinal features are scanned over sorted distinct values.
//! Nominal features are scanned over categories ordered by mean response
//! (exact for these two criteria — Breiman et al. 1984, Thm. 4.5).

use std::collections::BTreeSet;

use crate::dataset::{FeatureColumn, Target};
use crate::error::CartError;
use crate::params::CartParams;

/// A fitted split rule. Rows satisfying the rule go to the **left** child.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitRule {
    /// Continuous: `value <= threshold` goes left. NaN values (missing
    /// telemetry, e.g. a sensor blackout) route to the majority branch
    /// recorded at fit time.
    ContinuousThreshold {
        /// Feature name.
        feature: String,
        /// Split threshold (midpoint between adjacent observed values).
        threshold: f64,
        /// Where rows with a NaN feature value go: the side that held the
        /// majority of (finite) rows when the split was fitted.
        nan_left: bool,
    },
    /// Ordinal: `level <= threshold` goes left.
    OrdinalThreshold {
        /// Feature name.
        feature: String,
        /// Highest level routed left.
        threshold: i64,
    },
    /// Nominal: `code ∈ left_codes` goes left.
    NominalSubset {
        /// Feature name.
        feature: String,
        /// Category codes routed left.
        left_codes: BTreeSet<u32>,
        /// Labels for `left_codes` (for display).
        left_labels: Vec<String>,
    },
}

impl SplitRule {
    /// The feature this rule tests.
    pub fn feature(&self) -> &str {
        match self {
            SplitRule::ContinuousThreshold { feature, .. }
            | SplitRule::OrdinalThreshold { feature, .. }
            | SplitRule::NominalSubset { feature, .. } => feature,
        }
    }

    /// The column kind this rule expects to test.
    fn expected_kind(&self) -> &'static str {
        match self {
            SplitRule::ContinuousThreshold { .. } => "continuous",
            SplitRule::OrdinalThreshold { .. } => "ordinal",
            SplitRule::NominalSubset { .. } => "nominal",
        }
    }

    /// Whether `row` of `column` goes to the left child.
    ///
    /// # Errors
    ///
    /// Returns [`CartError::ColumnKindMismatch`] if the column kind does
    /// not match the rule kind — this happens when a prediction table's
    /// schema drifted from the fit-time schema (same column name,
    /// different kind).
    pub fn try_goes_left(&self, column: &FeatureColumn<'_>, row: usize) -> Result<bool, CartError> {
        match (self, column) {
            (
                SplitRule::ContinuousThreshold { threshold, nan_left, .. },
                FeatureColumn::Continuous(v),
            ) => {
                let x = v[row];
                Ok(if x.is_nan() { *nan_left } else { x <= *threshold })
            }
            (SplitRule::OrdinalThreshold { threshold, .. }, FeatureColumn::Ordinal(v)) => {
                Ok(v[row] <= *threshold)
            }
            (SplitRule::NominalSubset { left_codes, .. }, FeatureColumn::Nominal { codes, .. }) => {
                Ok(left_codes.contains(&codes[row]))
            }
            _ => Err(CartError::ColumnKindMismatch {
                feature: self.feature().to_owned(),
                expected: self.expected_kind(),
                found: column.kind_name(),
            }),
        }
    }

    /// Human-readable description, e.g. `temperature_f <= 78.4`.
    pub fn describe(&self) -> String {
        match self {
            SplitRule::ContinuousThreshold { feature, threshold, .. } => {
                format!("{feature} <= {threshold:.4}")
            }
            SplitRule::OrdinalThreshold { feature, threshold } => {
                format!("{feature} <= {threshold}")
            }
            SplitRule::NominalSubset { feature, left_labels, .. } => {
                format!("{feature} in {{{}}}", left_labels.join(", "))
            }
        }
    }
}

/// Incremental risk accumulator for one side of a candidate split.
#[derive(Debug, Clone)]
pub(crate) enum RiskAcc {
    Reg { n: f64, sum: f64, sumsq: f64 },
    Cls { n: f64, counts: Vec<f64> },
}

impl RiskAcc {
    pub(crate) fn empty_like(target: &Target<'_>) -> Self {
        match target {
            Target::Regression(_) => RiskAcc::Reg { n: 0.0, sum: 0.0, sumsq: 0.0 },
            Target::Classification { classes, .. } => {
                RiskAcc::Cls { n: 0.0, counts: vec![0.0; classes.len()] }
            }
        }
    }

    /// The totals of `rows`, added in iteration order.
    pub(crate) fn over(target: &Target<'_>, rows: impl Iterator<Item = usize>) -> Self {
        let mut acc = Self::empty_like(target);
        for r in rows {
            acc.add_row(target, r);
        }
        acc
    }

    pub(crate) fn add_row(&mut self, target: &Target<'_>, row: usize) {
        match (self, target) {
            (RiskAcc::Reg { n, sum, sumsq }, Target::Regression(y)) => {
                *n += 1.0;
                *sum += y[row];
                *sumsq += y[row] * y[row];
            }
            (RiskAcc::Cls { n, counts }, Target::Classification { codes, .. }) => {
                *n += 1.0;
                counts[codes[row] as usize] += 1.0;
            }
            _ => unreachable!("accumulator kind matches target kind"),
        }
    }

    /// Adds `other`'s totals to these. The result equals adding
    /// `other`'s rows one by one, bit for bit, when every partial sum is
    /// exact ([`exact_sums`]); otherwise addition order can show.
    fn merge(&mut self, other: &RiskAcc) {
        match (self, other) {
            (RiskAcc::Reg { n, sum, sumsq }, RiskAcc::Reg { n: on, sum: os, sumsq: oss }) => {
                *n += on;
                *sum += os;
                *sumsq += oss;
            }
            (RiskAcc::Cls { n, counts }, RiskAcc::Cls { n: on, counts: oc }) => {
                *n += on;
                for (c, o) in counts.iter_mut().zip(oc) {
                    *c += o;
                }
            }
            _ => unreachable!("accumulator kinds match"),
        }
    }

    pub(crate) fn n(&self) -> f64 {
        match self {
            RiskAcc::Reg { n, .. } | RiskAcc::Cls { n, .. } => *n,
        }
    }

    /// Node risk: deviance (regression) or n·Gini (classification).
    pub(crate) fn risk(&self) -> f64 {
        match self {
            RiskAcc::Reg { n, sum, sumsq } => {
                if *n == 0.0 {
                    0.0
                } else {
                    (sumsq - sum * sum / n).max(0.0)
                }
            }
            RiskAcc::Cls { n, counts } => {
                if *n == 0.0 {
                    0.0
                } else {
                    *n * (1.0 - counts.iter().map(|c| (c / n).powi(2)).sum::<f64>())
                }
            }
        }
    }

    /// Risk of the complement side given the node total.
    pub(crate) fn complement_risk(&self, total: &RiskAcc) -> f64 {
        match (self, total) {
            (RiskAcc::Reg { n, sum, sumsq }, RiskAcc::Reg { n: tn, sum: ts, sumsq: tss }) => {
                let rn = tn - n;
                if rn <= 0.0 {
                    0.0
                } else {
                    let rs = ts - sum;
                    let rss = tss - sumsq;
                    (rss - rs * rs / rn).max(0.0)
                }
            }
            (RiskAcc::Cls { n, counts }, RiskAcc::Cls { n: tn, counts: tc }) => {
                let rn = tn - n;
                if rn <= 0.0 {
                    0.0
                } else {
                    let gini = 1.0
                        - counts.iter().zip(tc).map(|(c, t)| ((t - c) / rn).powi(2)).sum::<f64>();
                    rn * gini
                }
            }
            _ => unreachable!("accumulator kinds match"),
        }
    }

    /// Mean response (regression) or first-class proportion
    /// (classification) — the ordering key for nominal categories.
    fn ordering_key(&self) -> f64 {
        match self {
            RiskAcc::Reg { n, sum, .. } => {
                if *n == 0.0 {
                    0.0
                } else {
                    sum / n
                }
            }
            RiskAcc::Cls { n, counts } => {
                if *n == 0.0 {
                    0.0
                } else {
                    counts.first().copied().unwrap_or(0.0) / n
                }
            }
        }
    }
}

/// Best split found for one node.
#[derive(Debug, Clone)]
pub(crate) struct BestSplit {
    pub rule: SplitRule,
    /// Absolute risk decrease achieved by the split.
    pub improvement: f64,
}

/// The NaN-free, stably sorted row order of one ordered feature, as the
/// per-node-sort reference sorts it at every node. The stable sort (ties
/// keep the input row order) is what makes a partitioned presorted
/// segment ([`ranked_order`]) bit-identical to re-sorting the child's
/// rows from scratch.
///
/// `f64::total_cmp` (not `partial_cmp().expect(..)`) keeps a NaN that
/// slips past the pre-filter from panicking a fit: total order sorts
/// NaN to the ends instead of aborting.
pub(crate) fn sorted_order<V: Fn(usize) -> f64>(rows: &[usize], value_of: V) -> Vec<usize> {
    let mut order: Vec<usize> = rows.iter().copied().filter(|&r| !value_of(r).is_nan()).collect();
    order.sort_by(|&a, &b| value_of(a).total_cmp(&value_of(b)));
    order
}

/// Searches all features for the best split of `rows`, sorting each
/// ordered feature on the fly, and returns it with the winning feature's
/// slot in `features`.
///
/// This is the per-node-sort reference path: the presort-equivalence
/// oracles compare against it, and it grows the fits whose nominal sweep
/// would not be exact ([`exact_sums`]). Other fits grow with
/// [`best_split_ranked`] over presorted rank-keyed segments instead.
///
/// Returns `None` if no admissible split exists (all features constant on
/// the node, or min_leaf cannot be satisfied).
pub(crate) fn best_split(
    target: &Target<'_>,
    features: &[(String, FeatureColumn<'_>)],
    rows: &[usize],
    parent_risk: f64,
    params: &CartParams,
) -> Option<(usize, BestSplit)> {
    let mut best: Option<(usize, BestSplit)> = None;
    for (slot, (name, column)) in features.iter().enumerate() {
        let candidate = match column {
            FeatureColumn::Continuous(values) => scan_ordered(
                target,
                rows,
                &sorted_order(rows, |r| values[r]),
                parent_risk,
                params,
                |row| values[row],
                |left_max, right_min, nan_left| SplitRule::ContinuousThreshold {
                    feature: name.clone(),
                    threshold: (left_max + right_min) / 2.0,
                    nan_left,
                },
            ),
            FeatureColumn::Ordinal(values) => scan_ordered(
                target,
                rows,
                &sorted_order(rows, |r| values[r] as f64),
                parent_risk,
                params,
                |row| values[row] as f64,
                |left_max, _, _| SplitRule::OrdinalThreshold {
                    feature: name.clone(),
                    threshold: left_max as i64,
                },
            ),
            FeatureColumn::Nominal { codes, categories } => {
                scan_nominal(target, rows, parent_risk, params, name, codes, categories)
            }
        };
        if let Some(c) = candidate {
            if best.as_ref().is_none_or(|(_, b)| c.improvement > b.improvement) {
                best = Some((slot, c));
            }
        }
    }
    best
}

/// Scans an ordered feature over its sorted row order (as
/// [`sorted_order`] gives it), sweeping prefix boundaries between distinct
/// values.
///
/// Rows whose value is NaN (missing telemetry) are excluded from `order`;
/// the candidate split's risk is then measured against
/// the finite subpopulation only, and the rule records which side held
/// the majority so missing rows route there at partition/prediction
/// time. With no NaN present the arithmetic is identical to a scan over
/// `rows` as given.
fn scan_ordered<V, M>(
    target: &Target<'_>,
    rows: &[usize],
    order: &[usize],
    parent_risk: f64,
    params: &CartParams,
    value_of: V,
    make_rule: M,
) -> Option<BestSplit>
where
    V: Fn(usize) -> f64,
    M: Fn(f64, f64, bool) -> SplitRule,
{
    if order.len() < 2 {
        return None;
    }
    let all_finite = order.len() == rows.len();
    let mut total = RiskAcc::empty_like(target);
    if all_finite {
        // Accumulate in the caller's row order so clean-data results stay
        // bit-identical to the pre-NaN-tolerant scan.
        for &r in rows {
            total.add_row(target, r);
        }
    } else {
        for &r in order {
            total.add_row(target, r);
        }
    }
    let parent_risk = if all_finite { parent_risk } else { total.risk() };
    let n = order.len();
    let mut left = RiskAcc::empty_like(target);
    let mut best: Option<(f64, usize)> = None; // (improvement, boundary index)
    for i in 0..n - 1 {
        left.add_row(target, order[i]);
        // Only split between distinct values.
        if value_of(order[i]) == value_of(order[i + 1]) {
            continue;
        }
        let left_n = i + 1;
        let right_n = n - left_n;
        if left_n < params.min_leaf || right_n < params.min_leaf {
            continue;
        }
        let improvement = parent_risk - left.risk() - left.complement_risk(&total);
        if improvement > best.map_or(0.0, |b| b.0) {
            best = Some((improvement, i));
        }
    }
    best.map(|(improvement, i)| BestSplit {
        rule: make_rule(value_of(order[i]), value_of(order[i + 1]), i + 1 >= n - (i + 1)),
        improvement,
    })
}

/// Scans a nominal feature: orders the categories present in the node by
/// [`RiskAcc::ordering_key`] and scans the `k − 1` prefixes of that order,
/// which is exact for both risks (Breiman et al. 1984, Thm. 4.5) and costs
/// `O(k log k)` on top of the row passes.
fn scan_nominal(
    target: &Target<'_>,
    rows: &[usize],
    parent_risk: f64,
    params: &CartParams,
    name: &str,
    codes: &[u32],
    categories: &[String],
) -> Option<BestSplit> {
    // Aggregate per category present in this node.
    let mut per_cat: Vec<(u32, RiskAcc)> = Vec::new();
    for &r in rows {
        let code = codes[r];
        match per_cat.iter_mut().find(|(c, _)| *c == code) {
            Some((_, acc)) => acc.add_row(target, r),
            None => {
                let mut acc = RiskAcc::empty_like(target);
                acc.add_row(target, r);
                per_cat.push((code, acc));
            }
        }
    }
    if per_cat.len() < 2 {
        return None;
    }
    // total_cmp so a non-finite ordering key (possible only with a dirty
    // target) degrades the category order instead of panicking the fit.
    per_cat.sort_by(|a, b| a.1.ordering_key().total_cmp(&b.1.ordering_key()).then(a.0.cmp(&b.0)));
    let mut total = RiskAcc::empty_like(target);
    for &r in rows {
        total.add_row(target, r);
    }
    let n = rows.len();
    let mut left = RiskAcc::empty_like(target);
    let mut left_codes: BTreeSet<u32> = BTreeSet::new();
    let mut best: Option<(f64, BTreeSet<u32>)> = None;
    for (code, _) in &per_cat[..per_cat.len() - 1] {
        // Move the next category into the left side.
        for &r in rows {
            if codes[r] == *code {
                left.add_row(target, r);
            }
        }
        left_codes.insert(*code);
        let left_n = left.n() as usize;
        let right_n = n - left_n;
        if left_n < params.min_leaf || right_n < params.min_leaf {
            continue;
        }
        let improvement = parent_risk - left.risk() - left.complement_risk(&total);
        if improvement > best.as_ref().map_or(0.0, |b| b.0) {
            best = Some((improvement, left_codes.clone()));
        }
    }
    best.map(|(improvement, set)| BestSplit {
        rule: SplitRule::NominalSubset {
            feature: name.to_owned(),
            left_labels: set.iter().map(|&c| categories[c as usize].clone()).collect(),
            left_codes: set,
        },
        improvement,
    })
}

/// Whether every partial sum a [`RiskAcc`] takes of `target` over any
/// sub-multiset of `rows` is exact in `f64`, so that no addition order
/// can change a bit of it.
///
/// Class counts are integers, so a classification target always is. A
/// regression target is when every `y[r]` over `rows` is a finite integer
/// and `rows.len() · max|y|² ≤ 2^53`: every partial `n`, `Σy` and `Σy²`
/// is then an integer no larger than 2^53 in magnitude, which `f64` holds
/// exactly.
pub(crate) fn exact_sums(target: &Target<'_>, rows: &[u32]) -> bool {
    let Target::Regression(y) = target else {
        return true;
    };
    let mut max_abs = 0.0f64;
    for &r in rows {
        let v = y[r as usize];
        if !v.is_finite() || v.fract() != 0.0 {
            return false;
        }
        max_abs = max_abs.max(v.abs());
    }
    // `as` saturates, so a huge `max_abs` overflows the product instead
    // of wrapping.
    let m = max_abs as u64;
    m.checked_mul(m)
        .and_then(|square| square.checked_mul(rows.len() as u64))
        .is_some_and(|bound| bound <= 1 << 53)
}

/// One entry of a rank-keyed presorted segment: a row id and the dense
/// rank of its value. Two entries hold `==` values exactly when their
/// ranks are equal, so the scan never reads the column to find a
/// boundary between distinct values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ranked {
    pub row: u32,
    pub rank: u32,
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp` order.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_order_key`].
fn value_of_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The id of a NaN row in [`ranked_order`]: no distinct key has it.
const NO_ID: u32 = u32::MAX;

/// An open-addressing table of the distinct keys of one column, each with
/// a dense `u32` id in first-seen order. The table doubles whenever it
/// would pass half load, so a probe stays short.
struct KeyInterner {
    /// `NO_ID` or an id into `keys`; the length is a power of two.
    slots: Vec<u32>,
    /// The distinct keys, by id.
    keys: Vec<u64>,
}

impl KeyInterner {
    fn new() -> Self {
        KeyInterner { slots: vec![NO_ID; 16], keys: Vec::new() }
    }

    /// The first slot to probe for `key` in a table of `len` slots
    /// (Fibonacci hashing: the top bits of a multiplicative hash).
    fn home(key: u64, len: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    fn find(slots: &[u32], keys: &[u64], key: u64) -> usize {
        let mask = slots.len() - 1;
        let mut slot = Self::home(key, slots.len());
        while slots[slot] != NO_ID && keys[slots[slot] as usize] != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The id of `key`, interning it if it is new.
    fn id(&mut self, key: u64) -> u32 {
        let slot = Self::find(&self.slots, &self.keys, key);
        if self.slots[slot] != NO_ID {
            return self.slots[slot];
        }
        let id = self.keys.len() as u32;
        self.keys.push(key);
        if 2 * self.keys.len() > self.slots.len() {
            let mut grown = vec![NO_ID; 2 * self.slots.len()];
            for (id, &key) in self.keys.iter().enumerate() {
                let slot = Self::find(&grown, &self.keys, key);
                grown[slot] = id as u32;
            }
            self.slots = grown;
        } else {
            self.slots[slot] = id;
        }
        id
    }
}

/// The NaN-free presorted segment of one ordered feature over `rows`, with
/// dense ranks: the same row order as [`sorted_order`] gives.
///
/// Each finite value's [`total_order_key`] is interned to a distinct-value
/// id ([`KeyInterner`]); only the k distinct keys are sorted, and the rows
/// are counting-sorted by id in key order. The counting sort is stable,
/// so equal keys keep `rows` order, repeated rows included, exactly as
/// the stable `sort_by(total_cmp)` of [`sorted_order`] leaves them. The
/// ids and the output hold 12 B per row. Adjacent sorted keys share a
/// rank when their values are `==`, so −0.0 and +0.0 stay a tie.
/// `==`-equal values are contiguous in total order, so equal ranks mean
/// equal values for any two entries, adjacent or not, as they are after
/// the segment is partitioned.
pub(crate) fn ranked_order(rows: &[u32], value_of: impl Fn(usize) -> f64) -> Vec<Ranked> {
    let mut interner = KeyInterner::new();
    let mut rows_of: Vec<u32> = Vec::new();
    let ids: Vec<u32> = rows
        .iter()
        .map(|&r| {
            let v = value_of(r as usize);
            if v.is_nan() {
                return NO_ID;
            }
            let id = interner.id(total_order_key(v));
            if id as usize == rows_of.len() {
                rows_of.push(0);
            }
            rows_of[id as usize] += 1;
            id
        })
        .collect();
    let keys = interner.keys;
    let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
    by_key.sort_unstable_by_key(|&id| keys[id as usize]);
    // Per id: the next output slot of its rows, and its dense rank.
    let mut place = vec![(0u32, 0u32); keys.len()];
    let (mut next, mut rank) = (0u32, 0u32);
    for (i, &id) in by_key.iter().enumerate() {
        let key = keys[id as usize];
        if i > 0 && value_of_key(key) != value_of_key(keys[by_key[i - 1] as usize]) {
            rank += 1;
        }
        place[id as usize] = (next, rank);
        next += rows_of[id as usize];
    }
    let mut out = vec![Ranked { row: 0, rank: 0 }; next as usize];
    for (&row, &id) in rows.iter().zip(&ids) {
        if id == NO_ID {
            continue;
        }
        let (slot, rank) = &mut place[id as usize];
        out[*slot as usize] = Ranked { row, rank: *rank };
        *slot += 1;
    }
    out
}

/// Searches all features for the best split of a node, using each ordered
/// feature's rank-keyed segment (`segments` is aligned with `features`;
/// nominal entries are `None`) and the node's accumulated `total` over
/// `rows` in `rows` order.
///
/// It returns what [`best_split`] returns on the same node, bit for bit,
/// the winning feature's slot included, when `features` has no nominal
/// feature or the target's sums over `rows` are exact ([`exact_sums`]):
/// the nominal scan merges category totals ([`scan_merged`]).
pub(crate) fn best_split_ranked(
    target: &Target<'_>,
    features: &[(String, FeatureColumn<'_>)],
    rows: &[u32],
    segments: &[Option<&[Ranked]>],
    total: &RiskAcc,
    params: &CartParams,
) -> Option<(usize, BestSplit)> {
    // Where the winning candidate splits: a boundary index into its
    // segment, or its left category codes.
    enum Cut {
        Boundary(usize),
        Codes(Vec<u32>),
    }
    let mut best: Option<(usize, f64, Cut)> = None;
    for (slot, ((_, column), segment)) in features.iter().zip(segments).enumerate() {
        let candidate = match (column, segment) {
            (FeatureColumn::Nominal { codes, categories }, _) => {
                let k = categories.len();
                scan_merged(target, rows, total, params, codes, k)
                    .map(|(improvement, codes)| (improvement, Cut::Codes(codes)))
            }
            (_, Some(segment)) => scan_ranked(target, rows.len(), segment, total, params)
                .map(|(improvement, i)| (improvement, Cut::Boundary(i))),
            (_, None) => None,
        };
        if let Some((improvement, cut)) = candidate {
            if best.as_ref().is_none_or(|b| improvement > b.1) {
                best = Some((slot, improvement, cut));
            }
        }
    }
    let (slot, improvement, cut) = best?;
    let (name, column) = &features[slot];
    let feature = name.clone();
    let rule = match (column, cut) {
        (FeatureColumn::Nominal { categories, .. }, Cut::Codes(codes)) => {
            let left_codes: BTreeSet<u32> = codes.into_iter().collect();
            let left_labels = left_codes.iter().map(|&c| categories[c as usize].clone()).collect();
            SplitRule::NominalSubset { feature, left_codes, left_labels }
        }
        (FeatureColumn::Ordinal(values), Cut::Boundary(i)) => {
            let left_max = values[segments[slot]?[i].row as usize] as f64;
            SplitRule::OrdinalThreshold { feature, threshold: left_max as i64 }
        }
        (FeatureColumn::Continuous(values), Cut::Boundary(i)) => {
            let segment = segments[slot]?;
            let (left_max, right_min) =
                (values[segment[i].row as usize], values[segment[i + 1].row as usize]);
            let n = segment.len();
            SplitRule::ContinuousThreshold {
                feature,
                threshold: (left_max + right_min) / 2.0,
                nan_left: i + 1 >= n - (i + 1),
            }
        }
        _ => return None,
    };
    Some((slot, BestSplit { rule, improvement }))
}

/// [`scan_ordered`] over a rank-keyed segment: the same adds in the same
/// order and the same improvements, with a boundary found by comparing
/// ranks. Returns the best improvement and its boundary index `i` (the
/// split falls between `segment[i]` and `segment[i + 1]`).
///
/// When no row of the node is NaN for this feature, the node's `total`
/// (summed in row order) is the scan's total, as in [`scan_ordered`];
/// otherwise the finite rows are summed in segment order.
fn scan_ranked(
    target: &Target<'_>,
    node_n: usize,
    segment: &[Ranked],
    total: &RiskAcc,
    params: &CartParams,
) -> Option<(f64, usize)> {
    let n = segment.len();
    if n < 2 {
        return None;
    }
    let finite_total;
    let (total, parent_risk) = if n == node_n {
        (total, total.risk())
    } else {
        let mut acc = RiskAcc::empty_like(target);
        for e in segment {
            acc.add_row(target, e.row as usize);
        }
        finite_total = acc;
        (&finite_total, finite_total.risk())
    };
    let mut left = RiskAcc::empty_like(target);
    let mut best: Option<(f64, usize)> = None;
    for (i, pair) in segment.windows(2).enumerate() {
        left.add_row(target, pair[0].row as usize);
        if pair[0].rank == pair[1].rank {
            continue;
        }
        let left_n = i + 1;
        if left_n < params.min_leaf || n - left_n < params.min_leaf {
            continue;
        }
        let improvement = parent_risk - left.risk() - left.complement_risk(total);
        if improvement > best.map_or(0.0, |b| b.0) {
            best = Some((improvement, i));
        }
    }
    best
}

/// [`scan_nominal`] at O(n + k) per node instead of O(k·n): one pass over
/// the node's rows builds the per-category totals, and the prefix sweep
/// merges whole categories into `left` in sorted-category order. Returns
/// the best improvement and its left category codes.
///
/// Merging a category's total equals the reference's row-by-row adds only
/// when every partial sum is exact ([`exact_sums`]), which is why
/// [`Tree::fit_on_rows`](crate::Tree::fit_on_rows) hands every other fit
/// with a nominal feature to the reference.
fn scan_merged(
    target: &Target<'_>,
    rows: &[u32],
    total: &RiskAcc,
    params: &CartParams,
    codes: &[u32],
    k: usize,
) -> Option<(f64, Vec<u32>)> {
    let mut per_cat: Vec<Option<RiskAcc>> = vec![None; k];
    for &r in rows {
        let r = r as usize;
        per_cat[codes[r] as usize]
            .get_or_insert_with(|| RiskAcc::empty_like(target))
            .add_row(target, r);
    }
    let mut order: Vec<(u32, f64)> = per_cat
        .iter()
        .enumerate()
        .filter_map(|(code, acc)| acc.as_ref().map(|acc| (code as u32, acc.ordering_key())))
        .collect();
    if order.len() < 2 {
        return None;
    }
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    let n = rows.len();
    let parent_risk = total.risk();
    let mut left = RiskAcc::empty_like(target);
    let mut best: Option<(f64, usize)> = None;
    for (prefix, &(code, _)) in order[..order.len() - 1].iter().enumerate() {
        if let Some(acc) = &per_cat[code as usize] {
            left.merge(acc);
        }
        let left_n = left.n() as usize;
        if left_n < params.min_leaf || n - left_n < params.min_leaf {
            continue;
        }
        let improvement = parent_risk - left.risk() - left.complement_risk(total);
        if improvement > best.map_or(0.0, |b| b.0) {
            best = Some((improvement, prefix));
        }
    }
    best.map(|(improvement, prefix)| {
        (improvement, order[..=prefix].iter().map(|&(code, _)| code).collect())
    })
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn reg_target(values: &[f64]) -> Target<'_> {
        Target::Regression(values)
    }

    /// Exhaustive reference for the nominal scan: evaluates all
    /// `2^(k−1) − 1` binary partitions of the `k` categories present in the
    /// node and returns the best improvement with its left category set.
    fn scan_nominal_exhaustive(
        target: &Target<'_>,
        rows: &[usize],
        parent_risk: f64,
        params: &CartParams,
        codes: &[u32],
    ) -> Option<(f64, BTreeSet<u32>)> {
        let cats: Vec<u32> =
            rows.iter().map(|&r| codes[r]).collect::<BTreeSet<_>>().into_iter().collect();
        let k = cats.len();
        let mut total = RiskAcc::empty_like(target);
        for &r in rows {
            total.add_row(target, r);
        }
        let n = rows.len();
        let mut best: Option<(f64, BTreeSet<u32>)> = None;
        // Iterate proper non-empty subsets; fix category 0 on the right to
        // halve the space (masks over cats[1..]).
        for mask in 1u64..(1 << (k - 1)) {
            let mut left = RiskAcc::empty_like(target);
            let mut set = BTreeSet::new();
            for (bit, &cat) in cats[1..].iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    set.insert(cat);
                }
            }
            for &r in rows {
                if set.contains(&codes[r]) {
                    left.add_row(target, r);
                }
            }
            let left_n = left.n() as usize;
            let right_n = n - left_n;
            if left_n < params.min_leaf || right_n < params.min_leaf {
                continue;
            }
            let improvement = parent_risk - left.risk() - left.complement_risk(&total);
            if improvement > best.as_ref().map_or(0.0, |b| b.0) {
                best = Some((improvement, set));
            }
        }
        best
    }

    /// [`ranked_order`] as [`sorted_order`] and dense `==` ranks give it.
    fn reference_ranked(rows: &[u32], values: &[f64]) -> Vec<(u32, u32)> {
        let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let order = sorted_order(&rows, |r| values[r]);
        let mut rank = 0;
        order
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if i > 0 && values[r] != values[order[i - 1]] {
                    rank += 1;
                }
                (r as u32, rank)
            })
            .collect()
    }

    fn pairs(ranked: &[Ranked]) -> Vec<(u32, u32)> {
        ranked.iter().map(|e| (e.row, e.rank)).collect()
    }

    #[test]
    fn ranked_order_matches_sorted_order_on_all_distinct_values() {
        // 5,000 distinct values in shuffled order: the intern table grows
        // from 16 slots ten times, and every value gets its own rank.
        let mut rng = StdRng::seed_from_u64(7);
        let mut values: Vec<f64> = (0..5_000).map(|i| f64::from(i) * 0.37 - 900.0).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        let rows: Vec<u32> = (0..values.len() as u32).collect();
        let ranked = ranked_order(&rows, |r| values[r]);
        assert_eq!(pairs(&ranked), reference_ranked(&rows, &values));
        assert!(ranked.iter().enumerate().all(|(i, e)| e.rank as usize == i));
    }

    #[test]
    fn ranked_order_ties_signed_zeros_drops_nan_and_keeps_repeated_rows_in_order() {
        let values = [0.0, f64::NAN, -0.0, 2.5, -1.0, 0.0, 2.5, -0.0, f64::NAN, -1.0];
        // Repeated rows, a NaN row twice, and rows out of index order.
        let rows = [5, 1, 0, 7, 2, 3, 5, 9, 8, 4, 6, 2, 0, 3];
        let ranked = ranked_order(&rows, |r| values[r]);
        assert_eq!(pairs(&ranked), reference_ranked(&rows, &values));
        // −1.0 rows, then −0.0 and +0.0 as one rank, then 2.5: three ranks,
        // and −0.0 rows sort before +0.0 rows as `total_cmp` puts them.
        assert_eq!(
            pairs(&ranked),
            [
                (9, 0),
                (4, 0),
                (7, 1),
                (2, 1),
                (2, 1),
                (5, 1),
                (0, 1),
                (5, 1),
                (0, 1),
                (3, 2),
                (6, 2),
                (3, 2)
            ]
        );
    }

    #[test]
    fn exact_sums_holds_for_small_integer_targets_and_classes_only() {
        let rows = |n: u32| (0..n).collect::<Vec<u32>>();
        let exact = |y: &[f64]| exact_sums(&Target::Regression(y), &rows(y.len() as u32));
        assert!(exact(&[0.0, 3.0, -7.0, -0.0, 12.0]));
        assert!(!exact(&[0.0, 1.5, 2.0]), "a non-integer");
        assert!(!exact(&[0.0, f64::NAN]), "a NaN");
        assert!(!exact(&[1.0, f64::INFINITY]), "an infinity");
        assert!(!exact(&[f64::NEG_INFINITY, 1.0]), "an infinity");
        assert!(!exact(&[1.0e300, 1.0]), "a square far past 2^53");
        // The bound is rows · max|y|² ≤ 2^53: 2 · (2^26)² is on it, 3 rows
        // are past it.
        let big = f64::from(1u32 << 26);
        assert!(exact(&[big, -big]));
        assert!(!exact(&[big, -big, 0.0]));
        // Only the fit's rows count, repeats included.
        let y = [big, 0.5, 1.0];
        assert!(!exact_sums(&Target::Regression(&y), &[0, 0, 2]));
        assert!(exact_sums(&Target::Regression(&y), &[0, 2]));
        assert!(!exact_sums(&Target::Regression(&y), &[1]));

        let codes = [0u32, 1, 1];
        let classes: Vec<String> = vec!["a".into(), "b".into()];
        assert!(exact_sums(&Target::Classification { codes: &codes, classes: &classes }, &rows(3)));
    }

    #[test]
    fn risk_acc_regression_matches_ssd() {
        let y = [1.0, 2.0, 3.0, 10.0];
        let t = reg_target(&y);
        let mut acc = RiskAcc::empty_like(&t);
        for r in 0..4 {
            acc.add_row(&t, r);
        }
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let expected: f64 = y.iter().map(|v| (v - mean).powi(2)).sum();
        assert!((acc.risk() - expected).abs() < 1e-9);
    }

    #[test]
    fn complement_risk_matches_direct() {
        let y = [1.0, 2.0, 3.0, 10.0, 4.0];
        let t = reg_target(&y);
        let mut total = RiskAcc::empty_like(&t);
        for r in 0..5 {
            total.add_row(&t, r);
        }
        let mut left = RiskAcc::empty_like(&t);
        left.add_row(&t, 0);
        left.add_row(&t, 3);
        let mut right = RiskAcc::empty_like(&t);
        for r in [1, 2, 4] {
            right.add_row(&t, r);
        }
        assert!((left.complement_risk(&total) - right.risk()).abs() < 1e-9);
    }

    #[test]
    fn ordered_scan_finds_step() {
        let y = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0];
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..6).collect();
        let mut parent = RiskAcc::empty_like(&t);
        for &r in &rows {
            parent.add_row(&t, r);
        }
        let params = CartParams::default().with_min_sizes(2, 1);
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let (_, best) = best_split(&t, &features, &rows, parent.risk(), &params).unwrap();
        match best.rule {
            SplitRule::ContinuousThreshold { threshold, .. } => {
                assert!((threshold - 3.5).abs() < 1e-9);
            }
            _ => panic!("expected continuous rule"),
        }
        // Perfect split removes all deviance.
        assert!((best.improvement - parent.risk()).abs() < 1e-9);
    }

    #[test]
    fn nominal_ordered_matches_exhaustive_for_regression() {
        // 4 categories with means 1, 9, 2, 8 — optimal partition {a, c} | {b, d}.
        let codes = [0u32, 0, 1, 1, 2, 2, 3, 3];
        let y = [1.0, 1.2, 9.0, 8.8, 2.0, 2.2, 8.0, 8.2];
        let cats: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..8).collect();
        let mut parent = RiskAcc::empty_like(&t);
        for &r in &rows {
            parent.add_row(&t, r);
        }
        let params = CartParams::default().with_min_sizes(2, 1);
        let features =
            vec![("k".to_owned(), FeatureColumn::Nominal { codes: &codes, categories: &cats })];

        let (_, ordered) = best_split(&t, &features, &rows, parent.risk(), &params).unwrap();
        let exhaustive =
            scan_nominal_exhaustive(&t, &rows, parent.risk(), &params, &codes).unwrap();
        assert!((ordered.improvement - exhaustive.0).abs() < 1e-9);
        match &ordered.rule {
            SplitRule::NominalSubset { left_codes, .. } => {
                // Low-mean side: categories a (0) and c (2).
                assert_eq!(left_codes.iter().copied().collect::<Vec<_>>(), vec![0, 2]);
            }
            _ => panic!("expected nominal rule"),
        }
    }

    /// Breiman et al. 1984, Thm. 4.5: ordering categories by mean response
    /// (regression) or first-class proportion (two-class Gini) and scanning
    /// the prefixes finds the best of all binary partitions.
    #[test]
    fn nominal_ordered_matches_exhaustive_on_random_nodes() {
        let mut rng = StdRng::seed_from_u64(45);
        let params = CartParams::default().with_min_sizes(2, 1);
        let classes: Vec<String> = vec!["0".into(), "1".into()];
        for case in 0..200 {
            let k = rng.gen_range(2..=6usize);
            let n = rng.gen_range(k..=40);
            let cats: Vec<String> = (0..k).map(|c| format!("c{c}")).collect();
            // Every category is present at least once.
            let codes: Vec<u32> =
                (0..n).map(|i| if i < k { i as u32 } else { rng.gen_range(0..k as u32) }).collect();
            let means: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..10.0)).collect();
            let y: Vec<f64> =
                codes.iter().map(|&c| means[c as usize] + rng.gen_range(-2.0..2.0)).collect();
            let p_first: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..1.0)).collect();
            let labels: Vec<u32> =
                codes.iter().map(|&c| u32::from(!rng.gen_bool(p_first[c as usize]))).collect();
            let rows: Vec<usize> = (0..n).collect();
            let features =
                vec![("k".to_owned(), FeatureColumn::Nominal { codes: &codes, categories: &cats })];
            for t in [
                Target::Regression(&y),
                Target::Classification { codes: &labels, classes: &classes },
            ] {
                let mut parent = RiskAcc::empty_like(&t);
                for &r in &rows {
                    parent.add_row(&t, r);
                }
                let ordered = best_split(&t, &features, &rows, parent.risk(), &params)
                    .map_or(0.0, |(_, b)| b.improvement);
                let exhaustive = scan_nominal_exhaustive(&t, &rows, parent.risk(), &params, &codes)
                    .map_or(0.0, |b| b.0);
                assert!(
                    (ordered - exhaustive).abs() < 1e-9,
                    "case {case} (k = {k}, n = {n}): ordered {ordered} vs exhaustive {exhaustive}"
                );
            }
        }
    }

    #[test]
    fn min_leaf_blocks_extreme_splits() {
        let y = [0.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..6).collect();
        let mut parent = RiskAcc::empty_like(&t);
        for &r in &rows {
            parent.add_row(&t, r);
        }
        // min_leaf = 3 forbids the 1|5 split that isolates the outlier.
        let params = CartParams::default().with_min_sizes(2, 3);
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let (_, best) = best_split(&t, &features, &rows, parent.risk(), &params).unwrap();
        match best.rule {
            SplitRule::ContinuousThreshold { threshold, .. } => {
                assert!((threshold - 3.5).abs() < 1e-9, "got {threshold}");
            }
            _ => panic!("expected continuous rule"),
        }
    }

    #[test]
    fn constant_feature_yields_no_split() {
        let y = [0.0, 1.0, 2.0, 3.0];
        let x = [5.0, 5.0, 5.0, 5.0];
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..4).collect();
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let params = CartParams::default().with_min_sizes(2, 1);
        assert!(best_split(&t, &features, &rows, 10.0, &params).is_none());
    }

    #[test]
    fn classification_split_on_gini() {
        let codes = [0u32, 0, 0, 1, 1, 1];
        let classes: Vec<String> = vec!["no".into(), "yes".into()];
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = Target::Classification { codes: &codes, classes: &classes };
        let rows: Vec<usize> = (0..6).collect();
        let mut parent = RiskAcc::empty_like(&t);
        for &r in &rows {
            parent.add_row(&t, r);
        }
        // Parent gini risk: 6 * 0.5 = 3.
        assert!((parent.risk() - 3.0).abs() < 1e-9);
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let params = CartParams::default().with_min_sizes(2, 1);
        let (_, best) = best_split(&t, &features, &rows, parent.risk(), &params).unwrap();
        assert!((best.improvement - 3.0).abs() < 1e-9, "perfect split");
    }

    #[test]
    fn nan_rows_are_excluded_from_the_scan_and_routed_by_majority() {
        // Step at x = 3.5 among finite rows; two NaN rows ride along.
        let y = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 5.0, 5.0];
        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, f64::NAN, f64::NAN];
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..8).collect();
        let params = CartParams::default().with_min_sizes(2, 1);
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let (_, best) = best_split(&t, &features, &rows, 1e9, &params).unwrap();
        match &best.rule {
            SplitRule::ContinuousThreshold { threshold, nan_left, .. } => {
                assert!((threshold - 3.5).abs() < 1e-9, "got {threshold}");
                // 3 finite rows on each side: ties route left.
                assert!(nan_left);
            }
            other => panic!("expected continuous rule, got {other:?}"),
        }
        let col = FeatureColumn::Continuous(&x);
        assert!(best.rule.try_goes_left(&col, 6).unwrap(), "NaN row follows nan_left");
    }

    #[test]
    fn all_nan_feature_yields_no_split() {
        let y = [0.0, 1.0, 2.0, 3.0];
        let x = [f64::NAN; 4];
        let t = reg_target(&y);
        let rows: Vec<usize> = (0..4).collect();
        let features = vec![("x".to_owned(), FeatureColumn::Continuous(&x))];
        let params = CartParams::default().with_min_sizes(2, 1);
        assert!(best_split(&t, &features, &rows, 10.0, &params).is_none());
    }

    #[test]
    fn rule_describe_and_try_goes_left() {
        let rule = SplitRule::ContinuousThreshold {
            feature: "t".into(),
            threshold: 78.0,
            nan_left: false,
        };
        let values = [70.0, 80.0];
        let col = FeatureColumn::Continuous(&values);
        assert!(rule.try_goes_left(&col, 0).unwrap());
        assert!(!rule.try_goes_left(&col, 1).unwrap());
        assert_eq!(rule.describe(), "t <= 78.0000");

        let set: BTreeSet<u32> = [1u32].into_iter().collect();
        let rule = SplitRule::NominalSubset {
            feature: "k".into(),
            left_codes: set,
            left_labels: vec!["b".into()],
        };
        assert_eq!(rule.describe(), "k in {b}");
    }
}
