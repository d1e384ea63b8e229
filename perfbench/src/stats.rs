//! Order statistics shared by every report: nearest-rank percentiles,
//! the tail rule, and the quartiles the steadiness mode prints.

/// Percentiles the tail metric may use, highest first, in per-mille.
///
/// Capped at p99: a run measures for a fixed time, so on the faster
/// workloads p99.9 would sit on the few slowest operations of the run,
/// which a single stall on a shared host moves by more than any bound.
pub const TAIL_LADDER_PERMILLE: [u32; 3] = [990, 900, 500];

/// 1-based nearest rank of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `permille` percentile.
pub fn samples_beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// The tail percentile for `n` samples: the highest ladder entry with at
/// least ten samples beyond it, or the median when none has.
pub fn tail_permille(n: usize) -> u32 {
    TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(500)
}

/// Nearest-rank percentile of ascending-sorted, non-empty samples.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median` gives it (mean of the middle
/// two for an even count).
pub fn py_median(values: &[f64]) -> f64 {
    let d = sorted(values);
    let n = d.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default `exclusive` method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let d = sorted(values);
    let ld = d.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (d[j as usize - 1], d[j as usize]);
        *slot = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    out
}

/// Mean of a non-empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// True for a metric name the benchmark contract accepts: 1 to 64
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_at_edge_sample_counts() {
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail_permille(0), 500);
        assert_eq!(tail_permille(1), 500);
        assert_eq!(tail_permille(19), 500);
        assert_eq!(samples_beyond(19, 500), 9);
        assert_eq!(tail_permille(20), 500);
        assert_eq!(samples_beyond(20, 500), 10);
        // p90 from 100 samples (exactly ten beyond), p99 from 1000.
        assert_eq!(tail_permille(99), 500);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(tail_permille(999), 900);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(samples_beyond(1000, 990), 10);
        // The ladder stops at p99.
        assert_eq!(tail_permille(1_000_000), 990);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(py_median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn metric_name_rule() {
        assert!(valid_name("tensor.matmul.calls_per_op"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
