//! Summary statistics for latency samples.

/// A percentile as reported: the percentile actually used, its value and
/// the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile used, in `[0, 1]`.
    pub q: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q * n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The percentile `want` of `samples`, lowered to the highest percentile
/// that still has at least ten samples beyond it (so a p99 needs 1,000
/// samples; with 500 it is reported as p98). Empty input reports zero.
pub fn tail(samples: &[f64], want: f64) -> Quantile {
    let n = samples.len();
    if n == 0 {
        return Quantile {
            q: 0.0,
            value: 0.0,
            samples: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = want.min(n.saturating_sub(10) as f64 / n as f64);
    Quantile {
        q,
        value: nearest_rank(&sorted, q),
        samples: n,
    }
}

/// The median (mean of the two middle samples for even counts); zero for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order: the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn fewer_samples_lower_the_percentile() {
        let t = tail(&ramp(500), 0.99);
        assert!((t.q - 0.98).abs() < 1e-12, "{t:?}");
        assert_eq!(t.value, 490.0);
        assert_eq!(ramp(500).iter().filter(|&&v| v > t.value).count(), 10);
        // A p50 with plenty of samples is not lowered.
        assert_eq!(tail(&ramp(500), 0.5).q, 0.5);
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let t = tail(&[3.0, 1.0, 2.0], 0.99);
        assert_eq!((t.q, t.value, t.samples), (0.0, 1.0, 3));
        assert_eq!(tail(&[], 0.99).samples, 0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
