//! Order statistics shared by the run and compare paths.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `0..=100`.
/// Returns `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).max(1) - 1])
}

/// 1-based nearest rank of the `p`th percentile among `n` samples. The
/// epsilon keeps float noise in `p * n` from rounding an exact rank up.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize).min(n)
}

/// Samples strictly above the nearest-rank `p`th percentile of `n`
/// samples. The reported tail percentile must keep at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// One round's latency percentiles. Rounds keep these instead of their
/// samples, so memory does not grow with the number of rounds run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Latency {
    pub fn of(mut samples: Vec<f64>) -> Latency {
        samples.sort_by(f64::total_cmp);
        Latency {
            samples: samples.len(),
            p50: percentile(&samples, 50.0).unwrap_or(0.0),
            p90: percentile(&samples, 90.0).unwrap_or(0.0),
        }
    }
}

/// Sorts a copy ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method). A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly ten above it; of 99, only nine.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        // p99 needs a thousand, p99.9 ten thousand; float noise in the
        // rank must not cost a sample.
        assert_eq!(samples_beyond(1_000, 99.0), 10);
        assert_eq!(samples_beyond(10_000, 99.9), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
