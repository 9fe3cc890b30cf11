//! Order statistics over a handful of measurements.

/// The three quartile cut points of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// how the spread of a set of runs is judged. One value yields itself
/// three times; no values yield `None`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let len = x.len();
    match len {
        0 => None,
        1 => Some([x[0]; 3]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// The interquartile range as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against. Zero when the
/// median is zero or there are no values.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([2, 1], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_relative_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
