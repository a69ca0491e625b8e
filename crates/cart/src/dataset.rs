//! Dataset view binding a [`Frame`] to a target column and feature list.

use rainshine_telemetry::frame::{Column, Frame};
use rainshine_telemetry::TelemetryError;

use crate::{CartError, Result};

/// The target variable of a tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Target<'a> {
    /// Continuous response (regression / `anova`).
    Regression(&'a [f64]),
    /// Nominal response (classification / Gini).
    Classification {
        /// Per-row class codes.
        codes: &'a [u32],
        /// Class labels indexed by code.
        classes: &'a [String],
    },
}

/// A feature column borrowed from the table.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureColumn<'a> {
    /// Continuous values.
    Continuous(&'a [f64]),
    /// Ordinal levels.
    Ordinal(&'a [i64]),
    /// Nominal codes plus category labels.
    Nominal {
        /// Per-row category codes.
        codes: &'a [u32],
        /// Category labels indexed by code.
        categories: &'a [String],
    },
}

impl FeatureColumn<'_> {
    /// Human-readable kind name, used in kind-mismatch errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FeatureColumn::Continuous(_) => "continuous",
            FeatureColumn::Ordinal(_) => "ordinal",
            FeatureColumn::Nominal { .. } => "nominal",
        }
    }
}

/// A CART-ready dataset: a table with its target and feature columns
/// resolved once, at construction.
///
/// Construct with [`CartDataset::regression`] or
/// [`CartDataset::classification`].
#[derive(Debug, Clone)]
pub struct CartDataset<'a> {
    table: &'a Frame,
    target_name: String,
    target: Target<'a>,
    features: Vec<(String, FeatureColumn<'a>)>,
}

impl<'a> CartDataset<'a> {
    /// Creates a regression dataset (continuous target).
    ///
    /// # Errors
    ///
    /// Returns an error if the table is empty, the target is missing or not
    /// continuous, the feature list is empty, any feature is missing, or
    /// the target appears among the features.
    pub fn regression(table: &'a Frame, target: &str, features: &[&str]) -> Result<Self> {
        let values = table
            .continuous(target)
            .map_err(|_| CartError::TargetKind { expected: "continuous" })?;
        Self::new(table, target, Target::Regression(values), features)
    }

    /// Creates a classification dataset (nominal target).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CartDataset::regression`], with the target
    /// required to be nominal.
    pub fn classification(table: &'a Frame, target: &str, features: &[&str]) -> Result<Self> {
        let kind = |_| CartError::TargetKind { expected: "nominal" };
        let codes = table.nominal_codes(target).map_err(kind)?;
        let classes = table.dictionary(target).map_err(kind)?.labels();
        Self::new(table, target, Target::Classification { codes, classes }, features)
    }

    fn new(
        table: &'a Frame,
        target_name: &str,
        target: Target<'a>,
        features: &[&str],
    ) -> Result<Self> {
        if table.is_empty() {
            return Err(CartError::EmptyDataset);
        }
        if features.is_empty() {
            return Err(CartError::NoFeatures);
        }
        let features = features
            .iter()
            .map(|&name| {
                if name == target_name {
                    return Err(CartError::TargetIsFeature { name: name.to_owned() });
                }
                let column = feature_column(table, name).ok_or_else(|| {
                    CartError::Telemetry(TelemetryError::UnknownColumn { name: name.to_owned() })
                })?;
                Ok((name.to_owned(), column))
            })
            .collect::<Result<_>>()?;
        Ok(CartDataset { table, target_name: target_name.to_owned(), target, features })
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Frame {
        self.table
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.rows()
    }

    /// Whether the dataset has no rows (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a regression dataset.
    pub fn is_regression(&self) -> bool {
        matches!(self.target, Target::Regression(_))
    }

    /// The target column name.
    pub fn target_name(&self) -> &str {
        &self.target_name
    }

    /// The features, name and column, in declaration order.
    pub fn features(&self) -> &[(String, FeatureColumn<'a>)] {
        &self.features
    }

    /// The target values.
    pub fn target(&self) -> Target<'a> {
        self.target.clone()
    }

    /// A feature's column by name.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` is not one of the dataset's features.
    pub fn feature(&self, name: &str) -> Result<FeatureColumn<'a>> {
        self.features
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, column)| column.clone())
            .ok_or_else(|| CartError::MissingFeature { name: name.to_owned() })
    }
}

/// Reads the column `name` of any kind from a table as a
/// [`FeatureColumn`]; `None` if the table has no such column.
pub(crate) fn feature_column<'t>(table: &'t Frame, name: &str) -> Option<FeatureColumn<'t>> {
    let idx = table.schema().index_of(name)?;
    Some(match table.column(idx) {
        Column::Continuous(values) => FeatureColumn::Continuous(values),
        Column::Ordinal(values) => FeatureColumn::Ordinal(values),
        Column::Nominal { codes, dict } => {
            FeatureColumn::Nominal { codes, categories: dict.labels() }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{FeatureKind, Field, FrameBuilder, Schema, Value};

    fn table() -> Frame {
        let schema = Schema::new(vec![
            Field::new("x", FeatureKind::Continuous),
            Field::new("k", FeatureKind::Nominal),
            Field::new("y", FeatureKind::Continuous),
            Field::new("label", FeatureKind::Nominal),
        ]);
        let mut b = FrameBuilder::new(schema);
        for i in 0..10 {
            b.push_row(vec![
                Value::Continuous(i as f64),
                Value::Nominal(if i % 2 == 0 { "even".into() } else { "odd".into() }),
                Value::Continuous(i as f64 * 2.0),
                Value::Nominal(if i < 5 { "low".into() } else { "high".into() }),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn regression_dataset_validates() {
        let t = table();
        let ds = CartDataset::regression(&t, "y", &["x", "k"]).unwrap();
        assert_eq!(ds.len(), 10);
        assert!(ds.is_regression());
        assert!(matches!(ds.target(), Target::Regression(_)));
        assert!(matches!(ds.feature("x").unwrap(), FeatureColumn::Continuous(_)));
        assert!(matches!(ds.feature("k").unwrap(), FeatureColumn::Nominal { .. }));
    }

    #[test]
    fn features_keep_declaration_order() {
        let t = table();
        let ds = CartDataset::regression(&t, "y", &["label", "x", "k"]).unwrap();
        let names: Vec<&str> = ds.features().iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["label", "x", "k"]);
        assert_eq!(ds.features()[1].1, FeatureColumn::Continuous(t.continuous("x").unwrap()));
        assert_eq!(ds.feature("x").unwrap(), ds.features()[1].1);
    }

    #[test]
    fn classification_dataset_validates() {
        let t = table();
        let ds = CartDataset::classification(&t, "label", &["x"]).unwrap();
        assert!(!ds.is_regression());
        match ds.target() {
            Target::Classification { classes, .. } => assert_eq!(classes.len(), 2),
            _ => panic!("expected classification target"),
        }
    }

    #[test]
    fn rejects_bad_construction() {
        let t = table();
        assert!(matches!(
            CartDataset::regression(&t, "k", &["x"]),
            Err(CartError::TargetKind { .. })
        ));
        assert!(matches!(
            CartDataset::classification(&t, "y", &["x"]),
            Err(CartError::TargetKind { .. })
        ));
        assert!(matches!(CartDataset::regression(&t, "y", &[]), Err(CartError::NoFeatures)));
        assert!(matches!(
            CartDataset::regression(&t, "y", &["y"]),
            Err(CartError::TargetIsFeature { .. })
        ));
        assert_eq!(
            CartDataset::regression(&t, "y", &["x", "missing"]).unwrap_err(),
            CartError::Telemetry(TelemetryError::UnknownColumn { name: "missing".into() })
        );
        assert!(matches!(
            CartDataset::regression(&t, "y", &["x"]).unwrap().feature("k"),
            Err(CartError::MissingFeature { .. })
        ));
    }
}
