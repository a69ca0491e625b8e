//! Histograms and value binning.
//!
//! Most of the paper's single-factor figures (Figs. 2–9, 16, 17) are
//! "bin a factor, average the failure rate per bin" plots; [`Binner`] and
//! [`GroupedMeans`] are the machinery behind them.

use crate::describe::Summary;
use crate::error::ensure_finite;
use crate::running::Welford;
use crate::{Result, StatsError};

/// Maps continuous values to bin indices.
///
/// Supports uniform bins over a range and explicit (possibly open-ended)
/// edge lists, mirroring the paper's bin conventions, e.g. RH bins
/// `<20, 20-30, …, >70` in Fig. 5.
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

    /// Creates `count` uniform bins over `[lo, hi)` plus the two open-ended
    /// outer bins.
    ///
    /// # Errors
    ///
    /// Returns an error if `count == 0` or `lo >= hi` or bounds are not
    /// finite.
    pub fn uniform(lo: f64, hi: f64, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(StatsError::DegenerateDimension { what: "zero bins" });
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(StatsError::InvalidParameter { name: "range", value: hi - lo });
        }
        let width = (hi - lo) / count as f64;
        let edges = (0..=count).map(|i| lo + i as f64 * width).collect();
        Self::from_edges(edges)
    }

    /// Number of bins (`edges + 1`).
    pub fn bin_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Bin index of `value`.
    pub fn bin_of(&self, value: f64) -> usize {
        self.edges.partition_point(|&e| e <= value)
    }

    /// The interior edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
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

/// A histogram of counts per bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    binner: Binner,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram of `data` under `binner`.
    ///
    /// # Errors
    ///
    /// Returns an error if `data` contains non-finite values.
    pub fn new(binner: Binner, data: &[f64]) -> Result<Self> {
        ensure_finite(data)?;
        let mut counts = vec![0u64; binner.bin_count()];
        for &v in data {
            counts[binner.bin_of(v)] += 1;
        }
        let total = counts.iter().sum();
        Ok(Histogram { binner, counts, total })
    }

    /// Counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The binner used.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }
}

/// Per-bin summaries of a response variable grouped by a binned factor —
/// the "mean (and sd) failure rate per factor bin" shape used throughout the
/// paper's Section V-B evidence figures.
#[derive(Debug, Clone)]
pub struct GroupedMeans {
    binner: Binner,
    groups: Vec<Welford>,
}

impl GroupedMeans {
    /// Accumulates `(factor, response)` pairs into bins of `binner`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::LengthMismatch`] if the slices differ in length
    /// or an error for non-finite factor values. Non-finite responses are
    /// skipped.
    pub fn new(binner: Binner, factor: &[f64], response: &[f64]) -> Result<Self> {
        if factor.len() != response.len() {
            return Err(StatsError::LengthMismatch { left: factor.len(), right: response.len() });
        }
        ensure_finite(factor)?;
        let mut groups = vec![Welford::new(); binner.bin_count()];
        for (&f, &r) in factor.iter().zip(response) {
            groups[binner.bin_of(f)].push(r);
        }
        Ok(GroupedMeans { binner, groups })
    }

    /// Summary for bin `i`, or `None` if the bin is empty.
    pub fn summary(&self, i: usize) -> Option<Summary> {
        self.groups.get(i).and_then(Welford::summary)
    }

    /// `(label, mean, sample stddev, count)` rows for non-empty bins, in bin
    /// order — directly printable as a paper figure's data series.
    pub fn rows(&self) -> Vec<(String, f64, f64, usize)> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                w.summary().map(|s| (self.binner.label(i), s.mean(), s.sample_stddev(), s.count()))
            })
            .collect()
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
    fn uniform_binner_covers_range() {
        let b = Binner::uniform(0.0, 10.0, 5).unwrap();
        assert_eq!(b.bin_count(), 7); // 5 interior + 2 open-ended
        assert_eq!(b.bin_of(-0.1), 0);
        assert_eq!(b.bin_of(0.0), 1);
        assert_eq!(b.bin_of(9.99), 5);
        assert_eq!(b.bin_of(10.0), 6);
    }

    #[test]
    fn binner_rejects_unsorted_edges() {
        assert!(Binner::from_edges(vec![3.0, 1.0]).is_err());
        assert!(Binner::from_edges(vec![1.0, 1.0]).is_err());
        assert!(Binner::from_edges(vec![]).is_err());
    }

    #[test]
    fn histogram_counts() {
        let b = Binner::from_edges(vec![1.0, 2.0]).unwrap();
        let h = Histogram::new(b, &[0.5, 1.5, 1.7, 2.5]).unwrap();
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn grouped_means_per_bin() {
        let b = Binner::from_edges(vec![10.0]).unwrap();
        let g = GroupedMeans::new(b, &[5.0, 15.0, 20.0], &[1.0, 3.0, 5.0]).unwrap();
        assert_eq!(g.summary(0).unwrap().mean(), 1.0);
        assert_eq!(g.summary(1).unwrap().mean(), 4.0);
        let rows = g.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, ">=10");
    }

    #[test]
    fn grouped_means_length_mismatch() {
        let b = Binner::from_edges(vec![10.0]).unwrap();
        assert!(GroupedMeans::new(b, &[1.0], &[]).is_err());
    }
}
