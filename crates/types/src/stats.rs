//! Small statistics helpers used by the experiment harness.

/// Geometric mean of a slice of positive values.
///
/// Used for averaging speedups across benchmark configurations, exactly as
/// architecture papers (including PAPI) report cross-workload means.
///
/// Returns `None` for an empty slice or if any value is non-positive.
///
/// # Example
///
/// ```
/// use papi_types::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometric_mean_of_speedups() {
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
    }

    proptest! {
        #[test]
        fn geo_mean_between_min_and_max(values in proptest::collection::vec(0.001..1e6f64, 1..32)) {
            let g = geometric_mean(&values).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(g >= min * 0.999999 && g <= max * 1.000001);
        }
    }
}
