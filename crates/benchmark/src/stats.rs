//! Order statistics for the benchmark: quartiles that agree with Python's
//! `statistics.quantiles(values, n=4)` (the driver's spread measure),
//! percentiles, the highest percentile a sample count can support, and the
//! per-metric [`Summary`] every reported number carries.

/// Median of `v` (mean of the two middle values for even counts).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `(q1, q2, q3)` by Python's default ("exclusive") method, so a spread
/// computed here equals the one the driver computes. A single sample is its
/// own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m == 1 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `p`-th percentile (`0 < p < 100`) by linear interpolation between
/// closest ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it; `None` below 20 samples, where not even the median does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille, so that 100 samples beyond p90 count as exactly ten.
    [999, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// What every reported metric carries: how many raw samples are behind it,
/// and the median and quartiles of its per-window values within the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Raw samples (reps, jobs, ops) behind the number.
    pub n: usize,
    /// First quartile of the per-window values.
    pub q1: f64,
    /// Median of the per-window values.
    pub median: f64,
    /// Third quartile of the per-window values.
    pub q3: f64,
}

impl Summary {
    /// Summarise per-window values of one metric; `n` counts raw samples.
    pub fn of_windows(values: &[f64], n: usize) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary { n, q1, median, q3 }
    }

    /// A number measured once (a count, a peak).
    pub fn single(value: f64) -> Summary {
        Summary::of_windows(&[value], 1)
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// One metric's per-window values from one measured phase, with the raw
/// sample count behind them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Windowed {
    /// One value per window.
    pub values: Vec<f64>,
    /// Raw samples (reps, jobs, ops) behind the values.
    pub n: usize,
}

impl Windowed {
    /// Median and quartiles over the windows.
    pub fn summary(&self) -> Summary {
        Summary::of_windows(&self.values, self.n)
    }
}

/// A measured phase is cut into this many consecutive windows and a metric
/// is computed in each; the run reports the quartiles of the per-window
/// values and is gated on the one on the metric's better side (see
/// `MetricDef::value`), so a disturbed stretch (the host is shared) does not
/// move it, and the interquartile distance is the spread within the run.
pub const WINDOWS: usize = 20;

/// Split `items` into [`WINDOWS`] consecutive, near-equal chunks (fewer when
/// there are fewer items; never an empty chunk).
pub fn windows<T>(items: &[T]) -> Vec<&[T]> {
    let k = WINDOWS.min(items.len()).max(1);
    (0..k)
        .map(|w| &items[w * items.len() / k..(w + 1) * items.len() / k])
        .filter(|c| !c.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5,1,9,3,7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_percentile_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!((Summary::of_windows(&[9.0, 10.0, 11.0], 3).spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn windows_cover_every_item_once() {
        let items: Vec<usize> = (0..23).collect();
        let w = windows(&items);
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w.concat(), items);
        assert_eq!(windows(&items[..1]).len(), 1);
        let disturbed = Windowed {
            values: vec![1.0, 2.0, 3.0, 4.0, 100.0],
            n: 50,
        };
        let s = disturbed.summary();
        assert_eq!((s.q1, s.median, s.n), (1.5, 3.0, 50));
    }
}
