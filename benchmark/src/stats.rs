//! Median and quartile helpers for repeated wall-time measurements.

use crate::json::Json;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method) so
/// the spreads printed here are the ones an outside checker computes.
/// A single value is its own three quartiles.
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The summary of one metric over the repetitions of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median over the repetitions.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of repetitions.
    pub n: usize,
}

impl Summary {
    /// Summarize `values`.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// `{"median", "q1", "q3", "n"}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("median", self.median)
            .with("q1", self.q1)
            .with("q3", self.q3)
            .with("n", self.n as u64)
    }

    /// Read back [`Summary::to_json`].
    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            median: j.num("median")?,
            q1: j.num("q1")?,
            q3: j.num("q3")?,
            n: j.num("n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
    }

    #[test]
    fn summary_spread_and_round_trip() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
