//! Tree-growing hyper-parameters (the analogue of `rpart.control`).

use serde::{Deserialize, Serialize};

use crate::{CartError, Result};

/// Hyper-parameters controlling tree growth.
///
/// Defaults mirror `rpart.control`: `min_split = 20`, `min_leaf = 7`
/// (rpart's `minbucket = minsplit/3`), `max_depth = 30`, `cp = 0.01`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartParams {
    /// Minimum observations in a node for a split to be attempted.
    pub min_split: usize,
    /// Minimum observations in each child of a split.
    pub min_leaf: usize,
    /// Maximum tree depth (root is depth 0).
    pub max_depth: usize,
    /// Complexity parameter: a split must decrease the overall relative
    /// risk by at least `cp` (as a fraction of the root risk).
    pub cp: f64,
}

impl Default for CartParams {
    fn default() -> Self {
        CartParams { min_split: 20, min_leaf: 7, max_depth: 30, cp: 0.01 }
    }
}

impl CartParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CartError::InvalidParameter`] if any value is out of range
    /// (`min_leaf` must be ≥ 1, `min_split` ≥ 2·`min_leaf` is *not*
    /// required but `min_split` ≥ 2 is, `cp` must be in `[0, 1]`, depth ≥ 1).
    pub fn validate(&self) -> Result<()> {
        if self.min_leaf == 0 {
            return Err(CartError::InvalidParameter { name: "min_leaf", value: 0.0 });
        }
        if self.min_split < 2 {
            return Err(CartError::InvalidParameter {
                name: "min_split",
                value: self.min_split as f64,
            });
        }
        if self.max_depth == 0 {
            return Err(CartError::InvalidParameter { name: "max_depth", value: 0.0 });
        }
        if !(0.0..=1.0).contains(&self.cp) || !self.cp.is_finite() {
            return Err(CartError::InvalidParameter { name: "cp", value: self.cp });
        }
        Ok(())
    }

    /// Returns a copy with a different `cp`.
    pub fn with_cp(mut self, cp: f64) -> Self {
        self.cp = cp;
        self
    }

    /// Returns a copy with different size thresholds.
    pub fn with_min_sizes(mut self, min_split: usize, min_leaf: usize) -> Self {
        self.min_split = min_split;
        self.min_leaf = min_leaf;
        self
    }

    /// Returns a copy with a different depth cap.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rpart_control() {
        let p = CartParams::default();
        assert_eq!(p.min_split, 20);
        assert_eq!(p.min_leaf, 7);
        assert_eq!(p.max_depth, 30);
        assert_eq!(p.cp, 0.01);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(CartParams::default().with_cp(-0.1).validate().is_err());
        assert!(CartParams::default().with_cp(f64::NAN).validate().is_err());
        assert!(CartParams::default().with_min_sizes(1, 1).validate().is_err());
        assert!(CartParams::default().with_min_sizes(5, 0).validate().is_err());
        assert!(CartParams::default().with_max_depth(0).validate().is_err());
    }

    #[test]
    fn builder_methods_chain() {
        let p = CartParams::default().with_cp(0.001).with_min_sizes(10, 3).with_max_depth(5);
        assert_eq!(p.cp, 0.001);
        assert_eq!(p.min_split, 10);
        assert_eq!(p.min_leaf, 3);
        assert_eq!(p.max_depth, 5);
    }
}
