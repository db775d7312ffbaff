//! Medians and percentiles for wall-clock samples.
//!
//! Every timing the benchmark reports is a median, together with its sample
//! count and the highest percentile that still has at least ten samples
//! beyond it — a p99 quoted from 200 samples rests on two of them.

/// Percentiles the tail report may quote, ascending, each with the `k` of
/// "one sample in `k` lies beyond it" (whole numbers, so the ten-samples rule
/// is not at the mercy of `1.0 - 0.9`).
const LADDER: [(f64, usize); 5] = [
    (0.5, 2),
    (0.9, 10),
    (0.99, 100),
    (0.999, 1000),
    (0.9999, 10_000),
];

/// Median of the samples (mean of the two middle ones for an even count).
/// Sorts `v`; `NaN` for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`LADDER`] with at least ten of `n` samples
/// beyond it; `None` below twenty samples, where not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&(_, k)| n >= 10 * k)
        .map(|&(p, _)| p)
}

/// Median, sample count and the trustworthy tail of one set of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` chosen by [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &mut [f64]) -> Summary {
        let p50 = median(samples);
        let tail = tail_percentile(samples.len()).map(|p| (p, quantile_sorted(samples, p)));
        Summary {
            n: samples.len(),
            p50,
            tail,
        }
    }

    /// `n=…, p99=…` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!("n={}, p{}={:.3} {unit}", self.n, p * 100.0, v),
            None => format!("n={}", self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_the_chosen_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
    }
}
