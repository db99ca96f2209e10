//! Order statistics shared by the workloads and `compare`.

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of `xs`; 0 for none.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    // The epsilon keeps the rank exact when p * n / 100 is a whole number
    // that floating point lands just above.
    let rank = (p * s.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method), so
/// the spreads `compare` prints match the ones a Python check computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The tail percentile reported for a workload: the highest of p50, p75,
/// p90, p95 and p99 that leaves at least ten samples beyond its nearest
/// rank when `ops` samples are taken. Workloads pass the fewest ops a run
/// took on the reference host, so the percentile is frozen.
pub fn tail_percentile(ops: usize) -> f64 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| ops.saturating_sub((p * ops).div_ceil(100)) >= 10)
        .unwrap_or(50) as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(1_000_000), 99.0);
        let ladder = [50.0, 75.0, 90.0, 95.0, 99.0];
        for ops in [20, 42, 77, 170, 250, 999, 8000] {
            let p = tail_percentile(ops);
            // The sample at the percentile's rank has >= 10 samples above
            // it; the next rung up would leave fewer.
            let xs: Vec<f64> = (1..=ops).map(|i| i as f64).collect();
            let beyond = ops - percentile(&xs, p) as usize;
            assert!(beyond >= 10, "ops {ops}: p{p} leaves {beyond}");
            if let Some(&next) = ladder.iter().find(|&&q| q > p) {
                let left = ops - percentile(&xs, next) as usize;
                assert!(left < 10, "ops {ops}: p{p} is not the highest rung");
            }
        }
    }
}
