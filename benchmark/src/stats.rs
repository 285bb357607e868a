//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in `(0, 100]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest of the p50/p90/p99/p99.9 percentiles that keeps at least
/// ten samples strictly beyond its rank, as `(q, value)`; `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|q| {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n >= rank + 10).then(|| (q, percentile(samples, q)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&[1.0; 19]), None);
        assert_eq!(tail_percentile(&[1.0; 20]).map(|t| t.0), Some(50.0));
    }
}
