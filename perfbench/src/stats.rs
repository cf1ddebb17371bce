//! Order statistics over host-time samples.

/// Sorts a copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `NaN` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`); `NaN` when `xs` is
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A tail reading: the value at a percentile, with the sample count it
/// was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of `value`, in percent.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the reading was taken from.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has at least `beyond`
/// samples above it: the `(beyond + 1)`-th largest sample. With `beyond`
/// or fewer samples no such percentile exists and the maximum (100th
/// percentile) is returned instead.
pub fn tail(xs: &[f64], beyond: usize) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: f64::NAN,
            value: f64::NAN,
            samples: 0,
        };
    }
    let rank = if n > beyond { n - beyond } else { n };
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones computed from the JSON results.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), 2.0);
        assert_eq!(percentile(&xs, 50.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&xs, 0.1), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, at the 90th percentile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|x| **x > t.value).count(), 10);

        // 1..=1000 in reverse order: the 990th value, the 99th percentile.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_when_samples_are_few() {
        let t = tail(&[5.0, 1.0, 3.0], 10);
        assert_eq!((t.value, t.percentile, t.samples), (5.0, 100.0, 3));
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>(), 10);
        assert_eq!(t.value, 1.0, "exactly ten samples above the smallest");
        assert!(tail(&[], 10).value.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
