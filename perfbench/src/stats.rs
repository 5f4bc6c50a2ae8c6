//! Order statistics with the benchmark's sample-count rule.

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`).
///
/// A percentile is reported only when at least ten samples lie beyond
/// it, so that it says something about the tail rather than about one
/// outlier: a p90 needs at least 100 samples, a p50 at least 20.
///
/// # Errors
///
/// Refuses, naming the shortfall, when the sample cannot support `q`.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    // Nearest rank, 1-based: the smallest value with at least a share
    // `q` of the sample at or below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{:.0} refused: {beyond} of {n} samples lie beyond it, 10 are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The plain median (mean of the middle pair for even counts), for
/// small sample sets that carry no tail claim: repeated set-ups and
/// per-layer span durations.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The arithmetic mean.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_what_the_sample_cannot_support() {
        // p90 over 99 samples leaves only 9 beyond it.
        assert!(percentile(&ramp(99), 0.9).is_err());
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        // p50 needs 20 samples.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
        // p99 needs 1000.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(percentile(&shuffled, 0.9), Ok(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
