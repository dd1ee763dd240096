//! Traffic representations.
//!
//! Lifetime managers in the literature consume traces in different shapes
//! (§4.3.1): per-minute invocation counts (IceBreaker, Aquatope), idle
//! times (Shahrad '20 histograms), or Knative's *average concurrency* —
//! the representation FeMux uses because the prototype sits in Knative's
//! metric path. This module converts the raw invocation stream into each
//! of them.

use crate::types::{Invocation, MS_PER_MIN};

/// Computes invocation counts per fixed-size step.
///
/// `steps` is derived from `span_ms` rounded up; invocations past the span
/// are ignored.
pub fn counts_per_step(
    invocations: &[Invocation],
    step_ms: u64,
    span_ms: u64,
) -> Vec<f64> {
    assert!(step_ms > 0, "step must be positive");
    let steps = span_ms.div_ceil(step_ms) as usize;
    let mut counts = vec![0.0; steps];
    for inv in invocations {
        let idx = (inv.start_ms / step_ms) as usize;
        if idx < steps {
            counts[idx] += 1.0;
        }
    }
    counts
}

/// Computes invocation counts per minute — the Azure '19 representation.
pub fn counts_per_minute(
    invocations: &[Invocation],
    span_ms: u64,
) -> Vec<f64> {
    counts_per_step(invocations, MS_PER_MIN, span_ms)
}

/// Computes *average concurrency* per step, the Knative representation:
/// for each step, the sum over requests of their in-flight overlap with
/// the step, divided by the step length.
///
/// A request is considered in flight from its arrival to the end of its
/// execution (service time). This matches the queue-proxy's concurrency
/// metric, which counts queued plus executing requests.
pub fn average_concurrency(
    invocations: &[Invocation],
    step_ms: u64,
    span_ms: u64,
) -> Vec<f64> {
    assert!(step_ms > 0, "step must be positive");
    let steps = span_ms.div_ceil(step_ms) as usize;
    let mut acc = vec![0.0; steps];
    for inv in invocations {
        let start = inv.start_ms;
        // Zero-duration requests still contribute an impulse of one
        // request; give them a 1 ms floor so they register.
        let end = inv.end_ms().max(start + 1);
        let first = (start / step_ms) as usize;
        let last = ((end - 1) / step_ms) as usize;
        #[expect(
            clippy::needless_range_loop,
            reason = "`step` also sets each step's time bounds, not only the index"
        )]
        for step in first..=last.min(steps.saturating_sub(1)) {
            let step_start = step as u64 * step_ms;
            let step_end = step_start + step_ms;
            let overlap =
                end.min(step_end).saturating_sub(start.max(step_start));
            acc[step] += overlap as f64 / step_ms as f64;
        }
    }
    acc
}

/// Computes per-minute average concurrency over the span.
pub fn concurrency_per_minute(
    invocations: &[Invocation],
    span_ms: u64,
) -> Vec<f64> {
    average_concurrency(invocations, MS_PER_MIN, span_ms)
}

/// Computes idle gaps in seconds: for each consecutive invocation pair, the
/// time from the completion of the earlier request to the arrival of the
/// next, clamped at zero (overlapping requests have no idle gap).
pub fn idle_times_secs(invocations: &[Invocation]) -> Vec<f64> {
    let mut busy_until = 0u64;
    let mut gaps = Vec::new();
    for (i, inv) in invocations.iter().enumerate() {
        if i > 0 {
            let gap = inv.start_ms.saturating_sub(busy_until);
            gaps.push(gap as f64 / 1_000.0);
        }
        busy_until = busy_until.max(inv.end_ms());
    }
    gaps
}

/// Expands per-minute counts into millisecond invocations by distributing
/// each minute's invocations uniformly within the minute — the convention
/// the paper (and FaasCache/IceBreaker evaluations) use when replaying the
/// minute-granularity Azure '19 trace.
///
/// `duration_ms` is applied to every generated invocation.
pub fn counts_to_invocations(
    counts: &[f64],
    duration_ms: u32,
) -> Vec<Invocation> {
    let mut out = Vec::new();
    for (minute, &c) in counts.iter().enumerate() {
        let n = c.round() as u64;
        if n == 0 {
            continue;
        }
        let base = minute as u64 * MS_PER_MIN;
        for k in 0..n {
            // Uniform spacing with a half-slot offset keeps arrivals
            // strictly inside the minute and deterministic.
            let offset = (2 * k + 1) * MS_PER_MIN / (2 * n);
            out.push(Invocation {
                start_ms: base + offset,
                duration_ms,
                delay_ms: 0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv(start_ms: u64, duration_ms: u32) -> Invocation {
        Invocation {
            start_ms,
            duration_ms,
            delay_ms: 0,
        }
    }

    #[test]
    fn counts_bucket_correctly() {
        let invs = vec![inv(0, 10), inv(59_999, 10), inv(60_000, 10)];
        let counts = counts_per_minute(&invs, 120_000);
        assert_eq!(counts, vec![2.0, 1.0]);
    }

    #[test]
    fn counts_ignore_out_of_span() {
        let invs = vec![inv(0, 10), inv(500_000, 10)];
        let counts = counts_per_minute(&invs, 60_000);
        assert_eq!(counts, vec![1.0]);
    }

    #[test]
    fn concurrency_single_request_fraction() {
        // A 30 s request in a 60 s step contributes 0.5.
        let invs = vec![inv(0, 30_000)];
        let conc = concurrency_per_minute(&invs, 60_000);
        assert!((conc[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn concurrency_spanning_steps() {
        // Runs from 30 s to 90 s: half of each of two minutes.
        let invs = vec![inv(30_000, 60_000)];
        let conc = concurrency_per_minute(&invs, 120_000);
        assert!((conc[0] - 0.5).abs() < 1e-9);
        assert!((conc[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn concurrency_overlapping_requests_sum() {
        let invs = vec![inv(0, 60_000), inv(0, 60_000)];
        let conc = concurrency_per_minute(&invs, 60_000);
        assert!((conc[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn concurrency_counts_delay_as_in_flight() {
        // 30 s of delay + 30 s execution occupies the full minute.
        let invs = vec![Invocation {
            start_ms: 0,
            duration_ms: 30_000,
            delay_ms: 30_000,
        }];
        let conc = concurrency_per_minute(&invs, 60_000);
        assert!((conc[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_registers() {
        let invs = vec![inv(10, 0)];
        let conc = concurrency_per_minute(&invs, 60_000);
        assert!(conc[0] > 0.0);
    }

    #[test]
    fn idle_gaps() {
        let invs = vec![inv(0, 1_000), inv(5_000, 1_000), inv(5_500, 1_000)];
        let gaps = idle_times_secs(&invs);
        assert_eq!(gaps.len(), 2);
        assert!((gaps[0] - 4.0).abs() < 1e-9);
        // Third arrives while second still running: zero gap.
        assert_eq!(gaps[1], 0.0);
    }

    #[test]
    fn counts_round_trip() {
        let counts = vec![3.0, 0.0, 1.0];
        let invs = counts_to_invocations(&counts, 250);
        assert_eq!(invs.len(), 4);
        let back = counts_per_minute(&invs, 180_000);
        assert_eq!(back, counts);
        // All arrivals stay within their minute.
        assert!(invs[0].start_ms < 60_000);
        assert!(invs[3].start_ms >= 120_000 && invs[3].start_ms < 180_000);
        // Uniform spread: three per minute at 10 s, 30 s, 50 s offsets.
        assert_eq!(invs[0].start_ms, 10_000);
        assert_eq!(invs[1].start_ms, 30_000);
        assert_eq!(invs[2].start_ms, 50_000);
    }

    #[test]
    fn empty_inputs() {
        assert!(counts_per_minute(&[], 0).is_empty());
        assert!(average_concurrency(&[], 1_000, 0).is_empty());
        assert!(idle_times_secs(&[]).is_empty());
        assert!(counts_to_invocations(&[], 10).is_empty());
    }
}
