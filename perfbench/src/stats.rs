//! Order statistics over latency samples.

/// Median of `values` (sorts them in place); 0 when empty.
pub fn median(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2] as f64,
        n => (values[n / 2 - 1] as f64 + values[n / 2] as f64) / 2.0,
    }
}

/// The tail of a sample: the highest order statistic with at least
/// ten samples above it. Returns the value and its percentile
/// (the share of samples at or below it), or the maximum at the 100th
/// percentile when there are ten samples or fewer.
pub fn tail(values: &mut [u64]) -> (f64, f64) {
    values.sort_unstable();
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = if n <= 10 { n - 1 } else { n - 11 };
    (values[rank] as f64, 100.0 * (rank + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut xs: Vec<u64> = (1..=40).rev().collect();
        let (value, pct) = tail(&mut xs);
        assert_eq!(value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x as f64 > value).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&mut [5, 1, 3]), (5.0, 100.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3, 1, 2]), 2.0);
        assert_eq!(median(&mut [4, 1, 2, 3]), 2.5);
    }
}
