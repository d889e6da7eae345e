//! The benchmark's own arithmetic: percentiles, medians, the tail
//! percentile rule and self time. Kept apart from
//! the workloads so the unit tests pin it down without running a
//! simulation.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Self time of a span: its duration minus the part its children cover.
/// The children are disjoint sub-spans known only by their totals (the
/// profiler's phases never nest), so together they cover their sum, up to
/// the span itself.
pub fn self_time(span: f64, children: &[f64]) -> f64 {
    (span - children.iter().sum::<f64>()).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: 10 lie beyond p99, so p99 is allowed.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: only 9 beyond p99, so the tail drops to p90.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(90.0));
        // 100 samples: 10 beyond p90.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        // 72 samples (nine cells over eight passes): 18 beyond p75.
        assert_eq!(beyond(72, 75.0), 18);
        assert_eq!(tail_percentile(72), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        // Too few for any percentile to have ten beyond it.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        assert_eq!(self_time(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(self_time(10.0, &[]), 10.0);
        // Children cannot cover more than the span.
        assert_eq!(self_time(4.0, &[3.0, 3.0]), 0.0);
    }
}
