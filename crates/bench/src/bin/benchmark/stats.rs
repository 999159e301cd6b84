//! The one place percentiles, segment medians and span self-times are
//! computed, so every reported number follows the same rule.

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Median plus the highest percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count (always printed beside the values).
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` was read at (50 when no ladder step qualifies).
    pub tail_pct: f64,
    pub tail: f64,
}

/// The highest ladder percentile that still leaves at least ten samples
/// beyond it, capped at `cap`; 50 when the sample is too small for any.
fn tail_percentile(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap && n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .fold(50.0, f64::max)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 99.9 % of 30 000 at rank 29 970 despite rounding.
    let rank = (pct * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, pct)
}

pub fn summarize_capped(samples: &[f64], cap: f64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len(), cap);
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    }
}

pub fn summarize(samples: &[f64]) -> Summary {
    summarize_capped(samples, 100.0)
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Number of equal segments a timed region is cut into.
pub const SEGMENTS: usize = 5;

/// Cut `items` into [`SEGMENTS`] contiguous segments of (nearly) equal
/// length and evaluate `f` on each non-empty one.
pub fn per_segment<T>(items: &[T], f: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let n = items.len();
    (0..SEGMENTS)
        .map(|k| &items[k * n / SEGMENTS..(k + 1) * n / SEGMENTS])
        .filter(|seg| !seg.is_empty())
        .map(f)
        .collect()
}

/// `(max - min) / median` of the per-segment values, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid * 100.0
}

/// Self time of every span: its busy time minus the busy time of its
/// direct children. `spans[i] = (parent index, busy ns)`.
pub fn self_times(spans: &[(Option<usize>, u64)]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|&(_, busy)| busy).collect();
    for &(parent, busy) in spans {
        if let Some(p) = parent {
            own[p] = own[p].saturating_sub(busy);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        for (n, want_pct, want_tail) in [
            (1, 50.0, 1.0),
            (19, 50.0, 10.0),
            (20, 50.0, 10.0),
            (400, 95.0, 380.0),
            (30_000, 99.9, 29_970.0),
        ] {
            let s = summarize(&ramp(n));
            assert_eq!(s.n, n);
            assert_eq!(s.tail_pct, want_pct, "n = {n}");
            assert_eq!(s.tail, want_tail, "n = {n}");
            assert_eq!(s.p50, (n as f64 / 2.0).ceil(), "n = {n}");
        }
        assert_eq!(summarize_capped(&ramp(30_000), 95.0).tail_pct, 95.0);
        assert_eq!(summarize(&[]).p50, 0.0);
    }

    #[test]
    fn segments_cover_the_region_once() {
        let items = ramp(23);
        let sums = per_segment(&items, |seg| seg.iter().sum());
        assert_eq!(sums.len(), SEGMENTS);
        assert_eq!(sums.iter().sum::<f64>(), items.iter().sum::<f64>());
        assert_eq!(per_segment(&ramp(2), |seg| seg.len() as f64), vec![1.0, 1.0]);
        assert_eq!(spread_pct(&[9.0, 10.0, 11.0]), 20.0);
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // round(100) -> update(30), query(60) -> execute(45)
        let spans = [(None, 100), (Some(0), 30), (Some(0), 60), (Some(2), 45)];
        let own = self_times(&spans);
        assert_eq!(own, vec![10, 30, 15, 45]);
        assert_eq!(own.iter().sum::<u64>(), 100, "self times sum to the root span");
    }
}
