//! Quantiles as the benchmark reports them: the median plus the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles tried for the tail, highest first, in per-mille.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples a tail percentile must leave beyond it.
const MIN_BEYOND: usize = 10;

/// A timing distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value: the highest percentile of [`TAIL_LADDER`] with at
    /// least ten samples beyond it, or the maximum when no percentile
    /// qualifies (fewer than 40 samples).
    pub tail: f64,
    /// Which percentile `tail` is (100 = the maximum).
    pub tail_pct: f64,
}

/// Nearest-rank percentile of sorted, non-empty samples (`per_mille`
/// in 1..=1000) and the number of samples beyond it.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> (f64, usize) {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n.max(1));
    (
        sorted.get(rank - 1).copied().unwrap_or(f64::NAN),
        n.saturating_sub(rank),
    )
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = |i: usize| v.get(i).copied().unwrap_or(f64::NAN);
    if n % 2 == 1 {
        mid(n / 2)
    } else {
        (mid((n / 2).wrapping_sub(1)) + mid(n / 2)) / 2.0
    }
}

/// The nearest-rank percentile (`per_mille` in 1..=1000) of `samples`;
/// NaN when there are none.
pub fn percentile(samples: &[f64], per_mille: usize) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, per_mille).0
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail, tail_pct) = TAIL_LADDER
        .iter()
        .map(|&pm| (nearest_rank(&sorted, pm), pm))
        .find(|((_, beyond), _)| *beyond >= MIN_BEYOND)
        .map_or(
            (sorted.last().copied().unwrap_or(f64::NAN), 100.0),
            |((v, _), pm)| (v, pm as f64 / 10.0),
        );
    Some(Summary {
        n: sorted.len(),
        p50: median(&sorted),
        tail,
        tail_pct,
    })
}

impl Summary {
    /// `p50 … pNN of n` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{} {:.1} {unit}, n={}",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n shuffled deterministically, so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        // 999 samples: p99 has only 9 beyond it, so the tail drops to p95.
        let s = summarize(&ramp(999)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (95.0, 950.0));
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        let s = summarize(&ramp(10_000)).unwrap();
        assert_eq!((s.tail_pct, s.tail), (99.9, 9990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&ramp(1000), 990), 990.0);
        assert_eq!(percentile(&ramp(10), 500), 5.0);
        assert!(percentile(&[], 500).is_nan());
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let s = summarize(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 7.0, 9.0, 100.0));
        assert!(summarize(&[]).is_none());
    }
}
