//! Sample statistics and failure accounting for the benchmark report.

/// Samples a tail percentile must leave beyond it before it is reported
/// as a measured tail rather than as the largest sample.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median at each position across several series of the same length.
/// The benchmark's passes repeat an identical simulation, so the chunk at
/// one position does the same work in every pass; the median across
/// passes drops host noise that hit only some of them (with two passes it
/// is their mean). Positions missing from a shorter series are taken over
/// the series that have them.
pub fn positionwise_median(series: &[Vec<f64>]) -> Vec<f64> {
    let len = series.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            median(
                &series
                    .iter()
                    .filter_map(|s| s.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Median and nearest-rank 99th percentile of a set of chunk timings, with
/// the sample count and how many samples rank above the p99 sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// Nearest-rank 99th percentile: the `ceil(0.99 n)`-th smallest sample.
    pub p99: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked above the p99 sample (`n - ceil(0.99 n)`).
    pub beyond_p99: usize,
}

impl Tail {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Tail {
        if xs.is_empty() {
            return Tail {
                p50: 0.0,
                p99: 0.0,
                samples: 0,
                beyond_p99: 0,
            };
        }
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // ceil(0.99 n) in integers, so 1000 samples give rank 990 exactly.
        let rank = (99 * n).div_ceil(100).max(1);
        Tail {
            p50: median(&v),
            p99: v[rank - 1],
            samples: n,
            beyond_p99: n - rank,
        }
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond the p99 sample;
    /// with fewer, the p99 is (close to) the largest sample.
    pub fn rule_met(&self) -> bool {
        self.beyond_p99 >= MIN_BEYOND
    }
}

/// Operations attempted and failed. An operation fails on an error, a
/// panic, an incomplete run, or any failed output check; one failed
/// operation counts once however many of its checks failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one problem.
    pub failed: u64,
    /// Every problem found, prefixed by the operation it belongs to.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one operation and the problems its checks found.
    pub fn record(&mut self, op: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{op}: {p}")));
        }
    }

    /// Failed operations over attempted ones (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn positionwise_median_drops_noise_in_one_pass() {
        let quiet = vec![1.0, 2.0, 3.0];
        let noisy = vec![1.0, 9.0, 3.0];
        let m = positionwise_median(&[quiet.clone(), noisy, quiet.clone()]);
        assert_eq!(m, quiet);
        assert_eq!(
            positionwise_median(&[vec![1.0, 4.0], vec![3.0]]),
            vec![2.0, 4.0]
        );
        assert!(positionwise_median(&[]).is_empty());
    }

    #[test]
    fn p99_leaves_ten_samples_beyond_at_one_thousand() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.p99, 990.0);
        assert_eq!(t.beyond_p99, 10);
        assert_eq!(xs.iter().filter(|&&x| x > t.p99).count(), t.beyond_p99);
        assert!(t.rule_met());
        assert_eq!(t.p50, 500.5);
    }

    #[test]
    fn p99_rule_fails_below_one_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.samples, 999);
        assert_eq!(t.beyond_p99, 9);
        assert!(!t.rule_met());
    }

    #[test]
    fn few_samples_make_p99_the_maximum() {
        let t = Tail::of(&[5.0, 9.0, 7.0]);
        assert_eq!((t.p99, t.samples, t.beyond_p99), (9.0, 3, 0));
        assert!(!t.rule_met());
    }

    #[test]
    fn tally_counts_each_failed_operation_once() {
        let mut t = Tally::default();
        t.record("a", vec![]);
        t.record("b", vec!["x".into(), "y".into()]);
        t.record("c", vec![]);
        t.record("d", vec![]);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(t.problems, vec!["b: x".to_string(), "b: y".to_string()]);
    }
}
