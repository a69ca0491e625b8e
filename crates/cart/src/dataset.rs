//! Dataset view binding a [`Frame`] to a target column and feature list.

use rainshine_telemetry::frame::{FeatureKind, Frame};

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

/// A CART-ready dataset: a table, a validated target, and a feature list.
///
/// Construct with [`CartDataset::regression`] or
/// [`CartDataset::classification`].
#[derive(Debug, Clone)]
pub struct CartDataset<'a> {
    table: &'a Frame,
    target_name: String,
    feature_names: Vec<String>,
    is_regression: bool,
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
        table.continuous(target).map_err(|_| CartError::TargetKind { expected: "continuous" })?;
        Self::new(table, target, features, true)
    }

    /// Creates a classification dataset (nominal target).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CartDataset::regression`], with the target
    /// required to be nominal.
    pub fn classification(table: &'a Frame, target: &str, features: &[&str]) -> Result<Self> {
        table.nominal_codes(target).map_err(|_| CartError::TargetKind { expected: "nominal" })?;
        Self::new(table, target, features, false)
    }

    fn new(table: &'a Frame, target: &str, features: &[&str], is_regression: bool) -> Result<Self> {
        if table.is_empty() {
            return Err(CartError::EmptyDataset);
        }
        if features.is_empty() {
            return Err(CartError::NoFeatures);
        }
        for &f in features {
            if f == target {
                return Err(CartError::TargetIsFeature { name: f.to_owned() });
            }
            if table.schema().index_of(f).is_none() {
                return Err(CartError::Telemetry(
                    rainshine_telemetry::TelemetryError::UnknownColumn { name: f.to_owned() },
                ));
            }
        }
        Ok(CartDataset {
            table,
            target_name: target.to_owned(),
            feature_names: features.iter().map(|&s| s.to_owned()).collect(),
            is_regression,
        })
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
        self.is_regression
    }

    /// The target column name.
    pub fn target_name(&self) -> &str {
        &self.target_name
    }

    /// Feature names in declaration order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The target values.
    ///
    /// # Panics
    ///
    /// Never panics for a value constructed through the public constructors
    /// (column presence and kind were validated there).
    pub fn target(&self) -> Target<'a> {
        if self.is_regression {
            Target::Regression(self.table.continuous(&self.target_name).expect("validated"))
        } else {
            Target::Classification {
                codes: self.table.nominal_codes(&self.target_name).expect("validated"),
                classes: self.table.dictionary(&self.target_name).expect("validated").labels(),
            }
        }
    }

    /// A feature's column by name.
    ///
    /// # Errors
    ///
    /// Returns an error if `name` is not one of the dataset's features.
    pub fn feature(&self, name: &str) -> Result<FeatureColumn<'a>> {
        if !self.feature_names.iter().any(|f| f == name) {
            return Err(CartError::MissingFeature { name: name.to_owned() });
        }
        feature_column(self.table, name)
    }
}

/// Reads a column of any kind from a table as a [`FeatureColumn`].
pub(crate) fn feature_column<'t>(table: &'t Frame, name: &str) -> Result<FeatureColumn<'t>> {
    let idx = table
        .schema()
        .index_of(name)
        .ok_or_else(|| CartError::MissingFeature { name: name.to_owned() })?;
    let kind = table.schema().fields()[idx].kind;
    Ok(match kind {
        FeatureKind::Continuous => FeatureColumn::Continuous(table.continuous(name)?),
        FeatureKind::Ordinal => FeatureColumn::Ordinal(table.ordinal(name)?),
        FeatureKind::Nominal => FeatureColumn::Nominal {
            codes: table.nominal_codes(name)?,
            categories: table.dictionary(name)?.labels(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::frame::{Field, FrameBuilder, Schema, Value};

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
        assert!(CartDataset::regression(&t, "y", &["missing"]).is_err());
        assert!(matches!(
            CartDataset::regression(&t, "y", &["x"]).unwrap().feature("k"),
            Err(CartError::MissingFeature { .. })
        ));
    }
}
