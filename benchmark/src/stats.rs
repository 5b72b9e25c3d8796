//! Order statistics the benchmark reports: median, quartiles, nearest-rank
//! percentiles and the "highest percentile with at least ten samples
//! beyond it" rule.

/// A percentile in parts per ten thousand (`P99 == Pct(9900)`), so ranks
/// are exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct(pub u32);

impl Pct {
    pub const P50: Pct = Pct(5000);
    pub const P99: Pct = Pct(9900);
    pub const P999: Pct = Pct(9990);

    /// The 1-based nearest rank of this percentile among `n` samples.
    fn rank(self, n: usize) -> usize {
        (n * self.0 as usize).div_ceil(10_000)
    }
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0 as f64 / 100.0)
    }
}

/// The percentile ladder [`highest_percentile`] chooses from.
const LADDER: [Pct; 7] = [
    Pct::P50,
    Pct(7500),
    Pct(9000),
    Pct(9500),
    Pct::P99,
    Pct::P999,
    Pct(9999),
];

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the two middle values when the
/// count is even); 0 for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of values in any order.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// First and third quartile of an ascending slice, by the method of
/// Python's `statistics.quantiles(values, n=4)` (exclusive), so the
/// spread `selfcheck` prints is the spread an outside checker computes.
/// With fewer than two samples both quartiles are the sample itself.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based scale, clamped to the ends.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median; 0 when the
/// median is 0.
pub fn spread(sorted: &[f64]) -> f64 {
    let m = median(sorted);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(sorted);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: Pct) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[p.rank(sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it, or `None` when even the median does not.
pub fn highest_percentile(n: usize) -> Option<Pct> {
    LADDER.iter().copied().rfind(|p| n - p.rank(n) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(median(&w), 4.0);
        assert_eq!(quartiles(&w), (1.5, 12.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 10.5]: Python
        // extrapolates past the ends with two samples; so do we.
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 10.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, Pct::P50), 100.0);
        assert_eq!(percentile(&v, Pct::P99), 198.0);
        assert_eq!(percentile(&v, Pct(10_000)), 200.0);
        assert_eq!(percentile(&[5.0], Pct::P99), 5.0);
        assert_eq!(percentile(&[], Pct::P99), 0.0);
        assert_eq!(Pct::P999.to_string(), "p99.9");
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(19), None);
        // 20 samples: the median leaves exactly ten beyond it.
        assert_eq!(highest_percentile(20), Some(Pct::P50));
        assert_eq!(highest_percentile(40), Some(Pct(7500)));
        assert_eq!(highest_percentile(100), Some(Pct(9000)));
        assert_eq!(highest_percentile(999), Some(Pct(9500)));
        assert_eq!(highest_percentile(1000), Some(Pct::P99));
        assert_eq!(highest_percentile(20_000), Some(Pct::P999));
        assert_eq!(highest_percentile(100_000), Some(Pct(9999)));
    }

    #[test]
    fn sorted_orders_ascending() {
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
