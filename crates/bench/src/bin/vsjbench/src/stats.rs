//! The arithmetic every reported number goes through: medians, the
//! tail-percentile rule, and the per-round canary scaling.

use crate::host::CANARY_REF_MS;

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice, which callers report as "not measured".
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentiles a tail may be reported at, ascending, in per mille.
const TAIL_LADDER: [u64; 7] = [500, 750, 900, 950, 980, 990, 999];

/// The highest percentile of the ladder that still has at least ten of
/// `samples` beyond it — a p99 over 200 requests is two samples, not a
/// tail. `None` below 20 samples (not even the median qualifies).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&per_mille| samples as u64 * (1000 - per_mille) / 1000 >= 10)
        .map(|&per_mille| per_mille as f64 / 10.0)
}

/// The factor that converts a duration measured while the canary read
/// `canary_ms` into what it would have been at the reference speed.
pub fn canary_factor(canary_readings: &[f64]) -> f64 {
    let canary = median(canary_readings);
    if canary > 0.0 {
        CANARY_REF_MS / canary
    } else {
        1.0
    }
}

/// Coefficient of variation, in percent.
pub fn cv_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    if mean > 0.0 {
        100.0 * var.sqrt() / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn canary_scaling_undoes_a_slow_host() {
        // A host running 25 % slow reads 1.25 × the reference on the
        // canary; a 20 ms sample taken then is a 16 ms sample at the
        // reference speed. One disturbed reading does not move the median.
        let slow = CANARY_REF_MS * 1.25;
        let readings = [slow * 0.99, slow, slow * 1.4, slow, slow * 1.01];
        let factor = canary_factor(&readings);
        assert!((factor - 0.8).abs() < 1e-12);
        assert!((20.0 * factor - 16.0).abs() < 1e-9);
        // At the reference speed nothing changes; a dead canary is
        // ignored rather than dividing by zero.
        assert_eq!(canary_factor(&[CANARY_REF_MS; 5]), 1.0);
        assert_eq!(canary_factor(&[]), 1.0);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(cv_pct(&[2.0, 2.0, 2.0]), 0.0);
        assert!(cv_pct(&[1.0, 3.0]) > 0.0);
    }
}
