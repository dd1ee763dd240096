//! Order statistics and accounting rules shared by every stage.

use femux_forecast::ForecasterKind;

/// Tail percentiles a timing may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples:
/// `ceil(p / 100 · n)`, clamped to `1..=n`. The product is rounded
/// down by a hair first, so 99.9 % of 10 000 is rank 9 990, not the
/// 9 991 its binary rounding would give.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending). `None` when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The highest [`TAIL_PERCENTILES`] entry that has at least
/// [`MIN_BEYOND`] of `n` samples beyond its nearest rank. `None` when
/// even the lowest candidate has too few samples beyond it.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| n >= nearest_rank(n, p) + MIN_BEYOND)
}

/// Median of samples (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Whether serving step `t` completes a block: the extractor finalizes
/// features (and the classifier runs) on the `block_len`-th sample.
pub fn is_boundary_tick(t: usize, block_len: usize) -> bool {
    (t + 1).is_multiple_of(block_len)
}

/// Forecasts that failed and fell back to the degradation ladder's
/// moving average, read off a serving decision log.
///
/// A fault pushes `MovingAverage` while the app is healthy, i.e. right
/// after a non-fallback entry; a fallback block boundary pushes it
/// again while the app is already degraded. The paper-config forecaster
/// set never contains the moving average, so every healthy → fallback
/// transition in the log is exactly one failed forecast.
pub fn fallback_events(decisions: &[ForecasterKind]) -> u64 {
    decisions
        .windows(2)
        .filter(|w| w[0] != ForecasterKind::MovingAverage && w[1] == ForecasterKind::MovingAverage)
        .count() as u64
}
