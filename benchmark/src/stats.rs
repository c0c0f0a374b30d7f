//! Sample summaries: median, percentiles, and the percentile rule.

/// Median of the samples (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Whether `n` samples support reporting the `p`-th percentile as a
/// *tail*: a tail percentile is only reported when at least ten samples
/// lie beyond it (p95 needs 200 samples, p90 needs 100). Medians are
/// always reported, with their sample count.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // Multiply before dividing: `1.0 - 0.9` is not exactly a tenth.
    let beyond = (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor();
    beyond >= 10.0
}

/// The `p`-th percentile when the sample count supports it, else `None`.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if percentile_supported(samples.len(), p) {
        percentile(samples, p)
    } else {
        None
    }
}

/// `(min, max)`; `None` when empty.
pub fn min_max(samples: &[f64]) -> Option<(f64, f64)> {
    let lo = samples.iter().copied().min_by(f64::total_cmp)?;
    let hi = samples.iter().copied().max_by(f64::total_cmp)?;
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(96.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p95 leaves 5% of the samples beyond it: ten of them need 200.
        assert!(!percentile_supported(199, 95.0));
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(99, 90.0));
        assert!(percentile_supported(100, 90.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(percentile_supported(20, 50.0));
        // The highest percentile 24 samples support is the 58th.
        assert!(percentile_supported(24, 58.0) && !percentile_supported(24, 59.0));
        assert_eq!(tail(&[1.0; 50], 95.0), None);
        assert_eq!(tail(&[1.0; 200], 95.0), Some(1.0));
    }
}
