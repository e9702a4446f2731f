//! Order statistics behind every reported number.

/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method): the three cut points of the sorted sample. A sample of one
/// value returns it three times.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The sample median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartile distance over the median: the in-run spread printed beside
/// every end-to-end metric.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(xs);
    let mid = median(xs);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, 1-based. The
/// tolerance keeps `99.9 * 1000 / 100` from rounding up past 999.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// A tail percentile that the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
}

/// Percentiles tried for [`tail`], highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer than ten.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let r = rank(pct, n);
        (r >= 1 && n - r >= 10).then(|| Tail {
            pct,
            value: sorted[r - 1],
            beyond: n - r,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves 10.
        assert_eq!(
            tail(&xs),
            Some(Tail {
                pct: 99.0,
                value: 990.0,
                beyond: 10
            })
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.pct, t.beyond)), Some((90.0, 10)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(percentile(&xs, 50.0), 10.0);
    }
}
