//! Summary statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples. A
//! percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it: a p75 over 12 samples is decided by three requests and says
//! nothing about the tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of percentile `p` (in percent, `1..=100`) over
/// `n` samples: `ceil(p·n / 100)`, clamped to `1..=n`.
///
/// # Panics
///
/// Panics if `n` is zero or `p` is outside `1..=100`.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    assert!(n > 0, "nearest_rank: no samples");
    assert!(
        (1..=100).contains(&p),
        "nearest_rank: percentile {p} out of range"
    );
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - nearest_rank(n, p)
}

/// Fewest samples for which percentile `p` has [`MIN_TAIL`] samples
/// beyond it.
pub fn min_samples_for(p: u32) -> usize {
    (1..=100 * (MIN_TAIL + 1))
        .find(|&n| samples_beyond(n, p) >= MIN_TAIL)
        .expect("no sample lies beyond p100")
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it (or there are no samples).
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), p) < MIN_TAIL {
        return None;
    }
    Some(sorted(samples)[nearest_rank(samples.len(), p) - 1])
}

/// Median (nearest-rank p50) of `samples`; no tail requirement. `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(sorted(samples)[nearest_rank(samples.len(), 50) - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
