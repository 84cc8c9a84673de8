//! Summary statistics for op timings and rates.
//!
//! A percentile is reported only when at least [`MIN_TAIL`] samples lie
//! beyond it: with fewer, a single slow op would decide the number.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    if sorted.len() < rank + MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `samples` (mean of the middle pair for an even count);
/// `None` for no samples. Used where a handful of repeats is all there
/// is, such as the set-up repetitions, so no tail rule applies.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Millions of committed simulated instructions per host second.
/// `instructions` sums the baseline and every policy run an op
/// simulated; `busy_s` is the host time those ops took. Adding grid
/// points adds both instructions and time, so the rate measures the
/// simulator, not the grid size.
pub fn minst_per_s(instructions: u64, busy_s: f64) -> f64 {
    if busy_s <= 0.0 {
        return 0.0;
    }
    instructions as f64 / busy_s / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        // Order of arrival does not matter.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(90.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples leaves exactly 10 beyond rank 90.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // One sample fewer leaves only 9 beyond the rank.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p50 needs 20 samples; 19 leave 9 beyond rank 10.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn minst_accounting_is_per_host_second() {
        // One quick op: a 600k-instruction baseline plus six policy runs.
        let per_op = 7 * 600_000;
        assert!((minst_per_s(per_op, 0.2) - 21.0).abs() < 1e-9);
        // Twice the ops in twice the time is the same rate.
        assert!((minst_per_s(2 * per_op, 0.4) - 21.0).abs() < 1e-9);
        // A grid that gains points gains instructions and time alike.
        assert!((minst_per_s(13 * 600_000, 13.0 * 0.2 / 7.0) - 21.0).abs() < 1e-9);
        assert_eq!(minst_per_s(per_op, 0.0), 0.0);
    }
}
