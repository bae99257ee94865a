//! Sample statistics: exact medians and nearest-rank percentiles, plus the
//! rule that picks which tail percentile a sample can support.

/// Percentiles a tail metric may report, highest first, in tenths of a
/// percent (integer arithmetic keeps the ranks exact).
const TAIL_CANDIDATES: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank index (0-based) of the percentile given in tenths of a
/// percent, `p10`, in `n` sorted samples.
fn rank(n: usize, p10: u64) -> usize {
    let r = (p10 * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let p10 = (p * 10.0).round().clamp(0.0, 1000.0) as u64;
    (!s.is_empty()).then(|| s[rank(s.len(), p10)])
}

/// The highest candidate percentile of `n` samples with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it; `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p10| n > 0 && n - 1 - rank(n, p10) >= TAIL_MIN_BEYOND)
        .map(|p10| p10 as f64 / 10.0)
}

/// The tail of `samples` under [`tail_percentile`]: `(percentile, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len())?;
    Some((p, percentile(samples, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, so 10 lie beyond it; p99.9 has 1.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // 10 000 samples support p99.9.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 20 samples: the median has 10 beyond; 19 samples support nothing.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_value_has_ten_larger_samples() {
        let s: Vec<f64> = (0..250).map(f64::from).collect();
        let (p, v) = tail(&s).unwrap();
        assert_eq!(p, 95.0);
        assert!(s.iter().filter(|&&x| x > v).count() >= TAIL_MIN_BEYOND);
    }
}
