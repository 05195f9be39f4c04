//! Order statistics over samples.

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; `0.0` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least ten samples above it, or `None` when even the lowest does not.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
}
