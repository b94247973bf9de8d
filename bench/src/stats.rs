//! Sample statistics and interval arithmetic for the benchmark's own
//! spans: medians, the highest percentile the sample supports, interval
//! unions and self time.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it, as `(percent, value)`; `None` when even p90 does not (fewer
/// than 100 samples), in which case only the median is reported.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90].into_iter().find_map(|p| {
        let beyond = xs.len() - (xs.len() as f64 * f64::from(p) / 100.0).ceil() as usize;
        (beyond >= 10).then(|| (p, quantile(xs, f64::from(p) / 100.0)))
    })
}

/// Distance between the first and third quartile, with the quartiles of
/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) — the
/// spread rule the benchmark's acceptance uses.
pub fn iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        // statistics.quantiles, method='exclusive': position i*(n+1)/4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    cut(3) - cut(1)
}

/// A half-open wall-clock interval in microseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `intervals` (overlaps counted once).
pub fn union_len(intervals: &[Interval]) -> u64 {
    merged(intervals).iter().map(|(s, e)| e - s).sum()
}

/// `intervals` sorted and coalesced into disjoint runs.
fn merged(intervals: &[Interval]) -> Vec<Interval> {
    let mut v: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the part of `of`'s union that no interval of `cover`
/// overlaps: the *exposed* time of one phase against another.
pub fn uncovered_len(of: &[Interval], cover: &[Interval]) -> u64 {
    let cover = merged(cover);
    let mut total = 0;
    for (s, e) in merged(of) {
        let mut at = s;
        for &(cs, ce) in &cover {
            if ce <= at {
                continue;
            }
            if cs >= e {
                break;
            }
            total += cs.saturating_sub(at);
            at = at.max(ce);
            if at >= e {
                break;
            }
        }
        total += e.saturating_sub(at);
    }
    total
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 leaves only 9 beyond it.
        assert_eq!(tail_percentile(&xs(99)), None);
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(tail_percentile(&xs(100)), Some((90, 90.0)));
        // 200: p95 leaves ten, p99 only two.
        assert_eq!(tail_percentile(&xs(200)), Some((95, 190.0)));
        // 1000: p99 leaves ten.
        assert_eq!(tail_percentile(&xs(1000)), Some((99, 990.0)));
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&xs) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5).abs() < 1e-12);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(3, 3)]), 0);
        assert_eq!(union_len(&[]), 0);
    }

    #[test]
    fn uncovered_is_the_exposed_part() {
        // io [0,10)∪[20,30); compute covers [5,25): exposed 5 + 5.
        assert_eq!(uncovered_len(&[(0, 10), (20, 30)], &[(5, 25)]), 10);
        // Fully hidden.
        assert_eq!(uncovered_len(&[(2, 8)], &[(0, 5), (5, 10)]), 0);
        // Nothing covers it.
        assert_eq!(uncovered_len(&[(2, 8)], &[]), 6);
        // A hole in the cover shows through.
        assert_eq!(
            uncovered_len(&[(0, 100)], &[(10, 20), (15, 40), (90, 200)]),
            60
        );
    }

    #[test]
    fn self_time_subtracts_child_union_clipped_to_parent() {
        // step [0,100); children fwd_bwd [10,60), hook [40,70) nested
        // partly inside it, and one child leaking past the parent's end.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 70), (90, 120)]), 30);
        assert_eq!(self_time((0, 100), &[]), 100);
    }
}
