//! Order statistics for the end-to-end metrics.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the value and the percentile it was read at.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile as a fraction (`1.0` means the maximum).
    pub quantile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The nearest-rank `quantile` of `values`. Each workload fixes its tail
/// percentile as the highest one that leaves at least ten samples beyond
/// it in a run at the seed commit's speed; a fixed percentile keeps the
/// metric comparable between commits whose runs complete different
/// numbers of operations.
pub fn tail(values: &[f64], quantile: f64) -> Tail {
    if values.is_empty() {
        return Tail { quantile, value: 0.0, beyond: 0 };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = ((quantile * n as f64).ceil() as usize).clamp(1, n) - 1;
    Tail { quantile, value: v[idx], beyond: n - 1 - idx }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 0.9);
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert_eq!(tail(&v, 0.99).beyond, 1);
        assert_eq!(tail(&[1.0, 5.0], 1.0).value, 5.0);
    }
}
