//! The arithmetic every reported number goes through: percentiles,
//! quartiles, and the slice medians that make host-time metrics robust
//! to a stall.

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of `values` (`p` in 0..=100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: the mean of the two middle values for an even count; 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // `delta` is taken after the clamp, so the ends extrapolate.
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The driver's spread: `(q3 - q1) / |median|`; 0 for a constant metric.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Cuts `0..len` into `slices` contiguous ranges of (as near as
/// possible) equal length; fewer ranges when `len < slices`.
pub fn slice_ranges(len: usize, slices: usize) -> Vec<std::ops::Range<usize>> {
    let slices = slices.min(len);
    (0..slices).map(|k| (k * len / slices)..((k + 1) * len / slices)).collect()
}

/// Applies `f` to each of `slices` equal-count slices of `items` and
/// returns the median of the results: a stall that lands in fewer than
/// half of the slices does not move it.
pub fn slice_median<T>(items: &[T], slices: usize, f: impl Fn(&[T]) -> f64) -> f64 {
    let per_slice: Vec<f64> =
        slice_ranges(items.len(), slices).into_iter().map(|r| f(&items[r])).collect();
    median(&per_slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), (1.0, 5.0, 9.0));
        assert_eq!(iqr_share(&v), 5.5 / 5.5);
        assert_eq!(iqr_share(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn slices_have_equal_counts_and_cover_everything() {
        let ranges = slice_ranges(103, 10);
        assert_eq!(ranges.len(), 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[9].end, 103);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() == 10 || r.len() == 11));
        assert_eq!(slice_ranges(3, 10).len(), 3);
    }

    #[test]
    fn slice_median_ignores_a_stall_in_a_minority_of_slices() {
        // 100 operations of 1 ms; a stall makes 30 consecutive ones 50 ms.
        let mut lat = vec![1.0; 100];
        for l in &mut lat[40..70] {
            *l = 50.0;
        }
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        assert_eq!(slice_median(&lat, 10, mean), 1.0);
        assert!(mean(&lat) > 15.0);
    }
}
