//! The one sampler every workload and probe uses: warm-up, N timed
//! samples, then median, quartiles and MAD with the sample count kept
//! beside them. A percentile is only ever reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

use std::time::Instant;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity, kept sorted ascending.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn from_values(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Calls `op` `warmup` times untimed, then `n` times timed; each
    /// sample is the wall time of one call in milliseconds.
    pub fn time_ms(warmup: usize, n: usize, mut op: impl FnMut()) -> Samples {
        for _ in 0..warmup {
            op();
        }
        Samples::from_values(
            (0..n)
                .map(|_| {
                    let t = Instant::now();
                    op();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        )
    }

    /// Like [`Samples::time_ms`] for operations far below a millisecond:
    /// each sample is the mean of `batch` back-to-back calls, in
    /// microseconds.
    pub fn time_batched_us(warmup: usize, n: usize, batch: usize, mut op: impl FnMut()) -> Samples {
        for _ in 0..warmup {
            op();
        }
        Samples::from_values(
            (0..n)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..batch {
                        op();
                    }
                    t.elapsed().as_secs_f64() * 1e6 / batch as f64
                })
                .collect(),
        )
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// The value at quantile `q` in `[0, 1]` by linear interpolation
    /// between order statistics `(n + 1) q`, clamped to the extremes —
    /// the rule of Python's `statistics.quantiles` (exclusive method),
    /// which the acceptance procedure uses for quartiles.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => f64::NAN,
            1 => self.sorted[0],
            _ => {
                let pos = ((n + 1) as f64 * q - 1.0).clamp(0.0, (n - 1) as f64);
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(n - 1);
                self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// Median absolute deviation from the median.
    pub fn mad(&self) -> f64 {
        let m = self.median();
        Samples::from_values(self.sorted.iter().map(|v| (v - m).abs()).collect()).median()
    }

    /// The `p`-th percentile (nearest rank), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank.min(n) >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// The highest of p50 / p90 / p99 that this many samples support,
    /// with its label; a set too small for even a supported p50 reports
    /// its median.
    pub fn tail(&self) -> (&'static str, f64) {
        for (label, p) in [("p99", 99.0), ("p90", 90.0)] {
            if let Some(v) = self.percentile(p) {
                return (label, v);
            }
        }
        ("p50", self.median())
    }

    /// `median [q1 .. q3] mad m n=k` — the spread line printed beside
    /// every timing.
    pub fn describe(&self) -> String {
        let (q1, q3) = self.quartiles();
        format!(
            "median {:.4} [q1 {:.4} .. q3 {:.4}] mad {:.4} n={}",
            self.median(),
            q1,
            q3,
            self.mad(),
            self.n()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Samples::from_values((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        assert_eq!(s.mad(), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred = Samples::from_values((1..=100).map(f64::from).collect());
        assert_eq!(hundred.percentile(90.0), Some(90.0));
        assert_eq!(hundred.percentile(99.0), None);
        assert_eq!(hundred.tail(), ("p90", 90.0));
        let few = Samples::from_values((1..=99).map(f64::from).collect());
        assert_eq!(few.percentile(90.0), None);
        assert_eq!(few.tail(), ("p50", 50.0));
        let thousand = Samples::from_values((1..=1000).map(f64::from).collect());
        assert_eq!(thousand.tail(), ("p99", 990.0));
    }

    #[test]
    fn timed_samples_are_counted() {
        let mut calls = 0;
        let s = Samples::time_ms(2, 5, || calls += 1);
        assert_eq!((calls, s.n()), (7, 5));
    }
}
