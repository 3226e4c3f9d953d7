//! Order statistics over host timings.

/// Jobs that must lie beyond the tail percentile for it to mean anything.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p <= 100) in `n` sorted
/// samples.
fn rank_index(p: u32, n: usize) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    rank.max(1) - 1
}

/// The highest whole percentile of `n` samples that still has at least
/// [`TAIL_BEYOND`] samples strictly beyond its nearest-rank sample, or
/// `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=100u32)
        .rev()
        .find(|&p| n >= 1 && n - 1 - rank_index(p, n) >= TAIL_BEYOND)
}

/// Nearest-rank percentile `p` of `xs`.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(p, v.len())]
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly beyond the nearest-rank sample of `p`.
    fn beyond(p: u32, n: usize) -> usize {
        n - 1 - rank_index(p, n)
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..2000 {
            let p = tail_percentile(n).expect("11 or more samples have a tail");
            assert!(beyond(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 100 {
                assert!(
                    beyond(p + 1, n) < TAIL_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        for n in 0..=10 {
            assert_eq!(tail_percentile(n), None, "n={n}");
        }
        assert_eq!(tail_percentile(11), Some(9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[3.0], 1), 3.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
