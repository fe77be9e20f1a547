#![deny(unsafe_code)]
//! Order statistics with the suite's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p90 needs 100 samples and a p99 needs 1000.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the middle pair for even
/// counts); `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Nearest-rank percentile (`pct` in `(0, 100)`, resolved to a tenth of
/// a percent), or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let n = samples.len();
    // Integer rank arithmetic: `0.999 * 20000` must be exactly 19980.
    let per_mille = (pct * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000);
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The highest of p99.9, p99 and p90 the sample supports, as
/// `(percent, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0].into_iter().find_map(|pct| percentile(samples, pct).map(|v| (pct, v)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(5000), 99.0), Some(4950.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(50)), None);
        assert_eq!(tail(&ramp(150)), Some((90.0, 135.0)));
        assert_eq!(tail(&ramp(2000)), Some((99.0, 1980.0)));
        assert_eq!(tail(&ramp(20000)), Some((99.9, 19980.0)));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
