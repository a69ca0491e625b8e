//! Classification and Regression Trees (CART) for the `rainshine` workspace.
//!
//! The paper builds its multi-factor analysis on CART (Breiman, Friedman,
//! Olshen & Stone 1984) as implemented by R's `rpart` package. This crate
//! is a from-scratch Rust implementation of the pieces the paper uses:
//!
//! * **regression trees** (`rpart` `method = "anova"`): within-node variance
//!   as impurity, used to cluster racks by failure behaviour (Q1) —
//!   [`tree::Tree`] with [`tree::TreeKind::Regression`];
//! * **classification trees** (Gini impurity) — [`tree::TreeKind::Classification`];
//! * nominal (unordered categorical) splits via the ordered-by-mean theorem
//!   (exact for both impurities, Breiman et al. 1984, Thm. 4.5);
//! * rpart-style stopping rules: `min_split`, `min_leaf`, `max_depth`, and
//!   the complexity parameter `cp` ([`params::CartParams`]);
//! * variable importance rankings ([`tree::Tree::variable_importance`]);
//! * the paper's "`Metric ~ X1, N(X2), …, N(Xn)`" stratified
//!   normalization of a nominal feature's effect ([`pdp`]).
//!
//! Missing-data surrogate splits are *not* implemented: the simulator's
//! datasets are complete by construction.
//!
//! # Example: recover a planted threshold
//!
//! ```
//! use rainshine_telemetry::frame::{Field, FeatureKind, Schema, FrameBuilder, Value};
//! use rainshine_cart::dataset::CartDataset;
//! use rainshine_cart::params::CartParams;
//! use rainshine_cart::tree::Tree;
//!
//! // y jumps at x = 50.
//! let schema = Schema::new(vec![
//!     Field::new("x", FeatureKind::Continuous),
//!     Field::new("y", FeatureKind::Continuous),
//! ]);
//! let mut b = FrameBuilder::new(schema);
//! for i in 0..100 {
//!     let x = i as f64;
//!     let y = if x < 50.0 { 1.0 } else { 5.0 };
//!     b.push_row(vec![Value::Continuous(x), Value::Continuous(y)])?;
//! }
//! let table = b.build()?;
//! let ds = CartDataset::regression(&table, "y", &["x"])?;
//! let tree = Tree::fit(&ds, &CartParams::default())?;
//! assert_eq!(tree.leaf_count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod dataset;
pub mod params;
pub mod pdp;
pub mod tree;

mod error;
mod split;

pub use split::SplitRule;

pub use error::CartError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CartError>;
