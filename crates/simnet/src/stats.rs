//! Small numeric helpers over sample slices.
//!
//! The experiment harness reports means and percentiles of per-second
//! series (goodput timelines, latency series). These are exact
//! computations over in-memory samples, unlike the streaming
//! [`crate::histogram::LatencyHistogram`].

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Exact `q`-quantile (nearest-rank) of the samples; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn quantile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.95), Some(95.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
    }

    #[test]
    fn quantile_does_not_mutate_input_order() {
        let xs = [3.0, 1.0, 2.0];
        let _ = quantile(&xs, 0.5);
        assert_eq!(xs, [3.0, 1.0, 2.0]);
    }
}
