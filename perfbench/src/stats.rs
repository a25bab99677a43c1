//! Summary statistics the benchmark reports: medians and the tail
//! percentile rule.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile `q` of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// Median of unsorted samples: the middle one, or the mean of the two
/// middle ones when their number is even, so that with few samples it
/// does not lean towards the lower half.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub n: usize,
}

/// The highest percentile of `wanted` or below that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer. A p99 needs 1000 samples; with 400 the rule falls back to p95.
pub fn tail(values: &[f64], wanted: f64) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().copied().filter(|&q| q <= wanted).find_map(|q| {
        let beyond = n as f64 * (1.0 - q / 100.0);
        (beyond + 1e-9 >= MIN_BEYOND as f64).then(|| Tail { q, value: percentile_sorted(&v, q), n })
    })
}

/// A tail percentile taken per group of samples, summarized by its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupTail {
    /// Median over the groups of each group's tail percentile.
    pub value: f64,
    /// The lowest percentile any group could report.
    pub q: f64,
    pub groups: usize,
    /// Samples in the smallest group.
    pub min_n: usize,
}

/// Takes each group's [`tail`] at `wanted` and reports the median over
/// groups: the tail a typical group shows, which one stall cannot move
/// on its own. `None` when any group is too small for any percentile.
pub fn median_tail(groups: &[Vec<f64>], wanted: f64) -> Option<GroupTail> {
    let tails: Vec<Tail> = groups.iter().map(|g| tail(g, wanted)).collect::<Option<_>>()?;
    Some(GroupTail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        q: tails.iter().map(|t| t.q).fold(wanted, f64::min),
        groups: groups.len(),
        min_n: tails.iter().map(|t| t.n).min()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 75.0), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.q, t.value, t.n), (99.0, 990.0, 1000));
        // One short of 1000: only 9.99 samples lie beyond p99, so p95.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!((t.q, t.n), (95.0, 999));
        assert_eq!(t.value, percentile_sorted(&ramp(999), 95.0));
    }

    #[test]
    fn tail_walks_down_the_ladder() {
        assert_eq!(tail(&ramp(10_000), 99.9).unwrap().q, 99.9);
        assert_eq!(tail(&ramp(200), 99.0).unwrap().q, 95.0);
        assert_eq!(tail(&ramp(100), 99.0).unwrap().q, 90.0);
        assert_eq!(tail(&ramp(40), 99.0).unwrap().q, 75.0);
        assert_eq!(tail(&ramp(20), 99.0).unwrap().q, 50.0);
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_tail_is_the_typical_group() {
        // Three groups of 1000 samples; the middle one stalls throughout.
        let group = |stalled: bool| -> Vec<f64> {
            (0..1000).map(|i| if stalled { 100.0 } else { (i % 100) as f64 }).collect()
        };
        let mut groups = vec![group(false), group(true), group(false)];
        let t = median_tail(&groups, 99.0).unwrap();
        assert_eq!((t.value, t.q, t.groups, t.min_n), (98.0, 99.0, 3, 1000));
        // A smaller group falls back down the ladder, and says so.
        groups.push(ramp(200));
        let t = median_tail(&groups, 99.0).unwrap();
        assert_eq!((t.q, t.min_n), (95.0, 200));
        // A group too thin for any percentile refuses the whole result.
        groups.push(ramp(5));
        assert_eq!(median_tail(&groups, 99.0), None);
    }

    #[test]
    fn tail_never_reports_above_the_wanted_percentile() {
        assert_eq!(tail(&ramp(100_000), 99.0).unwrap().q, 99.0);
    }
}
