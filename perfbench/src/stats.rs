//! Order statistics and outcome counting behind every reported metric.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the numbers in the steadiness note can be recomputed with it. A single
/// sample is its own quartiles; `NaN`s for an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let n = 4;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative or above n when j was clamped: the method extrapolates.
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// A tail latency: the value at `permille`/10 percent, how many samples
/// lie beyond it, and how many there were in all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile in tenths of a percent (990 = p99).
    pub permille: u32,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// Candidate tail percentiles, highest first, in tenths of a percent.
pub const TAIL_LADDER: [u32; 7] = [999, 990, 950, 900, 800, 750, 500];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, by the nearest-rank method (rank =
/// ⌈p·n⌉). `None` when even the median has fewer than that many beyond
/// it, i.e. with fewer than 20 samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p as usize * n).div_ceil(1000).max(1);
        let beyond = n.saturating_sub(rank);
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail {
            permille: p,
            value: s[rank - 1],
            beyond,
            samples: n,
        })
    })
}

/// How one attempted unit of work ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, and every check of its output passed.
    Ok,
    /// Refused at admission (queue full, draining, bad spec).
    Rejected,
    /// Ran but returned an error instead of a result.
    Error,
    /// Returned a result that failed a correctness check.
    CheckFailed,
}

/// Attempted and failed counts; every outcome but [`Outcome::Ok`] fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units of work attempted.
    pub attempted: usize,
    /// Units that were rejected, errored, or failed a check.
    pub failed: usize,
}

impl Tally {
    /// Counts one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Failed work as a share of attempted work (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // Two points extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // quantiles([1.5, 2.25, 7, 3.5, 9.75], n=4) == [1.875, 3.5, 8.375]
        assert_eq!(quartiles(&[1.5, 2.25, 7.0, 3.5, 9.75]), (1.875, 3.5, 8.375));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn tail_refuses_p90_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        // p90 of 99 samples sits at rank 90 with only 9 beyond it.
        assert_eq!(t.permille, 800);
        assert_eq!(t.value, 80.0);
        assert_eq!(t.beyond, 19);
        assert_eq!(t.samples, 99);

        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.permille, t.value, t.beyond), (900, 90.0, 10));
    }

    #[test]
    fn tail_needs_twenty_samples_for_the_median() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.permille, t.value)), Some((500, 10.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn rejects_errors_and_check_failures_all_count_as_failed() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Rejected,
            Outcome::Error,
            Outcome::CheckFailed,
        ] {
            t.record(o);
        }
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.failed_frac(), 0.75);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
