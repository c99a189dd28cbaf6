//! Order statistics and process gauges shared by every workload.

use std::time::Duration;

/// Nearest-rank quantile of `values` (need not be sorted); `q` in `[0, 1]`.
/// Returns 0.0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// The highest percentile of [`TAIL_LEVELS`] that still has at least ten
/// samples beyond it, as `(level, value)`. Falls back to the median when
/// the sample is too small for any of them.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    for level in TAIL_LEVELS {
        if n * (1.0 - level) >= 10.0 - 1e-9 {
            return (level, quantile(values, level));
        }
    }
    (0.5, median(values))
}

/// Geometric mean of strictly positive values (1.0 for an empty sample).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0.0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Union length of `[start, end)` intervals, in the intervals' unit.
/// A parent span's self time is its length minus the union of its
/// children clipped to it.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (0.95, 190.0));
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&small).0, 0.90);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }
}
