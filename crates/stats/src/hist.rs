//! Value binning.
//!
//! Most of the paper's single-factor figures (Figs. 2–9, 16, 17) are
//! "bin a factor, average the failure rate per bin" plots; [`Binner`]
//! assigns the bins, and one [`crate::running::Welford`] per bin averages.

use crate::error::ensure_finite;
use crate::{Result, StatsError};

/// Maps continuous values to bin indices.
///
/// Bins come from an explicit edge list with open-ended outer bins,
/// mirroring the paper's bin conventions, e.g. RH bins `<20, 20-30, …, >70`
/// in Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Binner {
    /// Interior edges, ascending. A value `v` lands in bin
    /// `partition_point(edges, e <= v)`, so there are `edges.len() + 1` bins
    /// with the first and last open-ended.
    edges: Vec<f64>,
}

impl Binner {
    /// Creates a binner from ascending interior edges.
    ///
    /// With edges `[a, b]` the bins are `(-inf, a)`, `[a, b)`, `[b, +inf)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `edges` is empty, non-finite, or not strictly
    /// ascending.
    pub fn from_edges(edges: Vec<f64>) -> Result<Self> {
        if edges.is_empty() {
            return Err(StatsError::DegenerateDimension { what: "binner needs at least one edge" });
        }
        ensure_finite(&edges)?;
        if edges.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StatsError::DegenerateDimension {
                what: "binner edges must be strictly ascending",
            });
        }
        Ok(Binner { edges })
    }

    /// Number of bins (`edges + 1`).
    pub fn bin_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index of `value`.
    pub fn bin_of(&self, value: f64) -> usize {
        self.edges.partition_point(|&e| e <= value)
    }

    /// Human-readable label for bin `i`, e.g. `"<20"`, `"20-30"`, `">=70"`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bin_count()`.
    pub fn label(&self, i: usize) -> String {
        assert!(i < self.bin_count(), "bin index {i} out of range");
        if i == 0 {
            format!("<{}", fmt_edge(self.edges[0]))
        } else if i == self.edges.len() {
            format!(">={}", fmt_edge(self.edges[i - 1]))
        } else {
            format!("{}-{}", fmt_edge(self.edges[i - 1]), fmt_edge(self.edges[i]))
        }
    }
}

fn fmt_edge(e: f64) -> String {
    if e == e.trunc() {
        format!("{}", e as i64)
    } else {
        format!("{e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binner_open_ended_bins() {
        let b = Binner::from_edges(vec![20.0, 30.0, 40.0]).unwrap();
        assert_eq!(b.bin_count(), 4);
        assert_eq!(b.bin_of(5.0), 0);
        assert_eq!(b.bin_of(20.0), 1);
        assert_eq!(b.bin_of(29.9), 1);
        assert_eq!(b.bin_of(40.0), 3);
        assert_eq!(b.bin_of(400.0), 3);
    }

    #[test]
    fn binner_labels() {
        let b = Binner::from_edges(vec![20.0, 30.0]).unwrap();
        assert_eq!(b.label(0), "<20");
        assert_eq!(b.label(1), "20-30");
        assert_eq!(b.label(2), ">=30");
    }

    #[test]
    fn binner_rejects_unsorted_edges() {
        assert!(Binner::from_edges(vec![3.0, 1.0]).is_err());
        assert!(Binner::from_edges(vec![1.0, 1.0]).is_err());
        assert!(Binner::from_edges(vec![]).is_err());
    }
}
