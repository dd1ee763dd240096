//! The single sanctioned wall-clock site of the deterministic crates.
//!
//! Wall-clock time is inherently nondeterministic, so it is quarantined
//! here behind the `walltime` cargo feature (default on) and two rules:
//!
//! - values derived from this module may only feed *diagnostics* —
//!   `TrainStats` timings, `wall.*` metrics — never labels, features,
//!   model state, or simulated outcomes;
//! - `wall.*` metrics are recorded only while profiling is switched on
//!   ([`crate::set_profiling`]), which explicitly waives the
//!   byte-identical-report guarantee for them.
//!
//! The workspace `clippy.toml` bans `Instant` and its `elapsed`; the
//! `expect` below exempts exactly this file, so an `Instant` anywhere
//! else is still a lint error. With the feature disabled every function
//! here returns 0 and the crate contains no clock read at all.

#![cfg_attr(
    feature = "walltime",
    expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the one sanctioned clock: feature- and profiling-gated, feeding only wall.* diagnostics"
    )
)]

#[cfg(feature = "walltime")]
use std::sync::OnceLock;
#[cfg(feature = "walltime")]
use std::time::Instant;

#[cfg(feature = "walltime")]
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Microseconds of monotonic wall time since the first call in this
/// process. Returns 0 when the `walltime` feature is disabled.
#[cfg(feature = "walltime")]
pub fn monotonic_micros() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Microseconds of monotonic wall time since the first call in this
/// process. Returns 0 when the `walltime` feature is disabled.
#[cfg(not(feature = "walltime"))]
pub fn monotonic_micros() -> u64 {
    0
}

/// Seconds elapsed since a [`monotonic_micros`] reading (0 with the
/// feature disabled — diagnostics degrade to zero, nothing breaks).
pub fn elapsed_secs(start_us: u64) -> f64 {
    monotonic_micros().saturating_sub(start_us) as f64 / 1_000_000.0
}

/// Records the wall time since `start_us` into the `wall.*` histogram
/// `name` — only while profiling is on, because wall durations are not
/// reproducible and must never reach the deterministic report surface
/// by default.
pub fn record_elapsed(name: &str, start_us: u64) {
    if crate::profiling() {
        crate::observe(name, monotonic_micros().saturating_sub(start_us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_decreases() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_secs_is_nonnegative() {
        let t0 = monotonic_micros();
        assert!(elapsed_secs(t0) >= 0.0);
        // A start in the (artificial) future saturates to zero.
        assert_eq!(elapsed_secs(u64::MAX), 0.0);
    }
}
