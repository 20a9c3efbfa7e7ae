//! The benchmark's percentile rule and the small summaries built on it.

/// Samples a reported percentile must leave above it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `values` (`p` in `(0, 1]`): the smallest
/// value with at least a `p` share of the samples at or below it, i.e.
/// the `ceil(p * n)`-th smallest. `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The percentile `p` of `values` if it leaves at least [`MIN_TAIL`]
/// samples beyond it, else `None`.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    (samples_beyond(values.len(), p) >= MIN_TAIL)
        .then(|| percentile(values, p))
        .flatten()
}

/// Median by the same nearest-rank rule (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean (0 for no samples). Means, unlike medians, add up:
/// the step attribution uses them so its parts sum to the whole.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.001), Some(1.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        // Nearest rank takes the lower middle of an even count.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(0, 0.9), 0);
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(89.0));
    }

    #[test]
    fn percentile_ignores_input_order_and_keeps_nan_last() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.2, 0.5, 0.8, 1.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
        assert_eq!(percentile(&[f64::NAN, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn mean_adds_up() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
