//! Order statistics over latency samples.

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `p`th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest of the usual reporting percentiles that leaves at least ten
/// samples beyond it — the tail a sample of `n` can support.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> Option<f64> {
    let q = quantiles(values)?;
    Some(q[1])
}

/// Arithmetic mean of a sample; `None` when it is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quantiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        n => {
            let m = n as f64 + 1.0;
            let at = |j: f64| {
                let pos = j * m / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - lo as f64;
                v[lo - 1] + (v[lo] - v[lo - 1]) * frac
            };
            Some([at(1.0), at(2.0), at(3.0)])
        }
    }
}

/// Sort a sample for [`percentile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(20.0));
        assert_eq!(percentile(&v, 75.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // rank rounds up: the 50th percentile of 5 samples is the 3rd
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(beyond(39, 75.0), 9);
        assert_eq!(supported_tail(39), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
