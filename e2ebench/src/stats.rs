//! The benchmark's own arithmetic: order statistics, the `.tail`
//! percentile rule, and failure accounting.

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest whole percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (1–99), or 50 when there are too few samples for
    /// any percentile above the median to qualify.
    pub pct: u32,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The `.tail` rule: walk down from p99 and take the first nearest-rank
/// percentile with at least [`TAIL_BEYOND`] samples strictly after its
/// rank. With fewer than `2 * TAIL_BEYOND` samples no percentile above
/// the median qualifies and the median's rank is reported instead.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 50,
            value: 0.0,
            samples: 0,
        };
    }
    for pct in (51..=99u32).rev() {
        let rank = nearest_rank(pct, n);
        if n - rank >= TAIL_BEYOND {
            return Tail {
                pct,
                value: s[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        pct: 50,
        value: s[nearest_rank(50, n) - 1],
        samples: n,
    }
}

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: u32, n: usize) -> usize {
    ((pct as usize * n).div_ceil(100)).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Counts attempted operations and the ones that failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempted operation; `ok` is false for an error, a
    /// timeout, an outcome other than completed, or wrong output.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `num / den`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let t = tail(&range(1000));
        assert_eq!((t.pct, t.value, t.samples), (99, 990.0, 1000));
        // 100 samples: p90 is the highest with 10 beyond.
        let t = tail(&range(100));
        assert_eq!((t.pct, t.value), (90, 90.0));
        // 40 samples: rank(75) = 30 leaves 10; rank(76) = 31 leaves 9.
        let t = tail(&range(40));
        assert_eq!((t.pct, t.value), (75, 30.0));
        // Input order does not matter.
        let mut rev = range(40);
        rev.reverse();
        assert_eq!(tail(&rev), t);
    }

    #[test]
    fn tail_beyond_count_holds_for_every_size() {
        for n in 20..400 {
            let t = tail(&range(n));
            let beyond = range(n).iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n} {t:?}");
            // The next percentile up would leave fewer than ten.
            if t.pct < 99 {
                let next = nearest_rank(t.pct + 1, n);
                assert!(n - next < TAIL_BEYOND, "n={n} {t:?}");
            }
        }
    }

    #[test]
    fn tail_falls_back_to_median_when_short() {
        let t = tail(&range(12));
        assert_eq!((t.pct, t.value, t.samples), (50, 6.0, 12));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn failed_frac_counts_every_failure_kind_once() {
        let mut t = Tally::default();
        for ok in [true, false, true, true, false, true, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (8, 2));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
