//! Order statistics for latency samples and run-to-run spreads.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [usize; 4] = [99, 90, 75, 50];

/// Samples the tail rule requires strictly beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `samples`, linearly interpolated
/// between closest ranks. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // A line-for-line port of CPython's exclusive method with n = 4,
    // including its extrapolation when the clamped rank moves.
    let m = (n + 1) as i64;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread statistic the
/// steadiness check compares against each metric's bound.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The tail rule: the highest percentile of the ladder (99, 90, 75, 50)
/// that leaves at least [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond
/// it. `None` when even the median does not qualify.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Integer ranks: the p-th percentile sits at rank ceil(n p / 100), and
    // every sample above that rank lies beyond it.
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - (n * p).div_ceil(100) >= TAIL_MIN_BEYOND)
        .map(|p| p as f64)
}

/// The `p`-th percentile of `samples`, reported as a tail. Warns on
/// stderr when the tail rule does not allow `p` for this many samples.
pub fn tail(samples: &[f64], p: f64) -> f64 {
    if tail_percentile(samples.len()).is_none_or(|allowed| allowed < p) {
        eprintln!(
            "perfbench: {} samples are too few for a p{p} tail",
            samples.len()
        );
    }
    percentile(samples, p).unwrap_or(0.0)
}

/// One stderr line about a timing sample: its count, median, the tail the
/// rule allows, and its interquartile spread.
pub fn describe(samples: &[f64]) -> String {
    let p = tail_percentile(samples.len());
    format!(
        "n={} p50={:.3} ms, tail rule allows {}, iqr/median={:.3}",
        samples.len(),
        median(samples).unwrap_or(f64::NAN),
        p.map_or("no tail".to_string(), |p| format!("p{p}")),
        iqr_share(samples).unwrap_or(f64::NAN),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(11.0));
        assert_eq!(percentile(&[1.0, 2.0], 75.0), Some(1.75));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).expect("defined");
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_reports_the_asked_percentile() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), 91.0);
        assert_eq!(tail(&v[..11], 90.0), 10.0, "too few samples still report");
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }
}
