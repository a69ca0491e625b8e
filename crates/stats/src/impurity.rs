//! Impurity measures used by CART split selection.
//!
//! The paper uses Gini impurity for classification splits and (implicitly,
//! via `rpart`'s `anova` method) within-node variance for regression splits.

/// Gini impurity of a discrete distribution given class counts.
///
/// `1 − Σ p_i²`; zero for a pure node, maximal for a uniform distribution.
/// An empty or all-zero count vector has impurity `0.0`.
///
/// # Example
///
/// ```
/// use rainshine_stats::impurity::gini;
///
/// assert_eq!(gini(&[10.0, 0.0]), 0.0);
/// assert_eq!(gini(&[5.0, 5.0]), 0.5);
/// ```
pub fn gini(class_counts: &[f64]) -> f64 {
    let total: f64 = class_counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - class_counts.iter().map(|&c| (c / total).powi(2)).sum::<f64>()
}

/// Shannon entropy (nats) of a discrete distribution given class counts.
///
/// An empty or all-zero count vector has entropy `0.0`.
pub fn entropy(class_counts: &[f64]) -> f64 {
    let total: f64 = class_counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    -class_counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Sum of squared deviations from the mean ("node deviance" in rpart's
/// anova method). Zero for empty or constant nodes.
pub fn sum_squared_deviation(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|&v| (v - mean).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
        assert_eq!(gini(&[7.0]), 0.0);
        // Uniform over k classes: 1 - 1/k.
        assert!((gini(&[1.0, 1.0, 1.0, 1.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[5.0]), 0.0);
        assert!((entropy(&[1.0, 1.0]) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn ssd_hand_check() {
        assert_eq!(sum_squared_deviation(&[]), 0.0);
        assert_eq!(sum_squared_deviation(&[3.0, 3.0]), 0.0);
        assert_eq!(sum_squared_deviation(&[1.0, 3.0]), 2.0);
    }
}
