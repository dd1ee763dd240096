//! `tick_idle` equivalence harness.
//!
//! [`crate::policy::ScalingPolicy::tick_idle`] lets a policy answer an
//! idle stretch in one call instead of once per tick. Its contract is
//! strict: the fast path must leave the policy in the same state and
//! produce the same decisions as calling `target_pods` every tick —
//! otherwise the batched idle stretches drift from the decisions the
//! policy would really have made, and every downstream number with
//! them.
//!
//! [`assert_tick_idle_equivalence`] is the machine-checked form of that
//! contract: it replays a battery of idle-heavy scenarios through the
//! engine twice — once with the policy as given, once behind a private
//! wrapper that hides its `tick_idle` override, so the trait's default
//! takes one `target_pods` decision per tick — and asserts the full
//! [`crate::SimResult`] is `Debug`-identical. A wrong `tick_idle`, or a
//! wrong batched branch in the engine, differs from the one-tick path.
//! The engine itself is checked against the independent
//! per-millisecond reference in `femux-oracle`.
//!
//! `tests/tick_idle_equivalence.rs` calls it for every policy that
//! overrides `tick_idle`, and fails when an override in the tree has no
//! such call, so adding an idle fast path without proving it equivalent
//! fails CI.

use femux_fault::FaultStats;
use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};

use crate::engine::{simulate_app, SimConfig};
use crate::policy::{PolicyCtx, ScalingPolicy};

/// The wrapped policy without its idle fast path: every method but
/// `tick_idle` is forwarded, so the engine gets the trait's default —
/// one `target_pods` call per tick.
struct PerTick(Box<dyn ScalingPolicy>);

impl ScalingPolicy for PerTick {
    fn name(&self) -> String {
        self.0.name()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        self.0.target_pods(ctx)
    }

    fn fault_stats(&self) -> FaultStats {
        self.0.fault_stats()
    }
}

/// One synthetic scenario: `(name, app, span_ms)`.
fn scenarios() -> Vec<(&'static str, AppRecord, u64)> {
    const HOUR: u64 = 3_600_000;
    let inv = |start_ms: u64, duration_ms: u32| Invocation {
        start_ms,
        duration_ms,
        delay_ms: 0,
    };
    let mut out = Vec::new();

    // Busy opening, then five-plus idle hours: saturates every
    // policy's history window with zeros so the idle fast path
    // engages, then nothing disturbs it until the span ends.
    let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
    for k in 0..60 {
        app.invocations.push(inv(k * 30_000, 500));
    }
    out.push(("busy-then-silent", app, 6 * HOUR));

    // Sparse heartbeat: one short request every 20 minutes. The idle
    // fast path starts and stops around each arrival, exercising the
    // re-entry bookkeeping.
    let mut app = AppRecord::new(AppId(2), WorkloadKind::Function);
    app.config.concurrency = 1;
    for k in 0..18 {
        app.invocations.push(inv(k * 20 * 60_000, 200));
    }
    out.push(("sparse-heartbeat", app, 6 * HOUR));

    // Idle bracket: silence, a concurrent burst mid-span, silence.
    // Fast-forwarding must hand control back exactly at the burst.
    let mut app = AppRecord::new(AppId(3), WorkloadKind::Application);
    for k in 0..40 {
        app.invocations.push(inv(3 * HOUR + k * 50, 2_000));
    }
    out.push(("idle-burst-idle", app, 6 * HOUR));

    // Min-scale floor with no traffic at all: the longest possible
    // idle run, held above zero by configuration.
    let mut app = AppRecord::new(AppId(4), WorkloadKind::Application);
    app.config.min_scale = 1;
    out.push(("all-idle-min-scale", app, 6 * HOUR));

    // Empty app, scale-to-zero: the degenerate all-idle run.
    let app = AppRecord::new(AppId(5), WorkloadKind::Function);
    out.push(("all-idle-empty", app, 6 * HOUR));

    out
}

/// Asserts that the policy built by `mk` makes byte-identical
/// decisions with its idle fast path (`tick_idle`) and with one
/// `target_pods` call per tick, across the idle-heavy scenario battery
/// and both evaluation intervals.
///
/// `mk` is called once per run so each run starts from a fresh policy
/// (policies are stateful).
///
/// # Panics
///
/// Panics with the scenario, interval and first divergence when the
/// fast path is not equivalent.
pub fn assert_tick_idle_equivalence(
    name: &str,
    mk: &mut dyn FnMut() -> Box<dyn ScalingPolicy>,
) {
    for (scenario, app, span_ms) in scenarios() {
        for interval_ms in [60_000, 10_000] {
            let cfg = SimConfig {
                interval_ms,
                record_delays: true,
                ..SimConfig::default()
            };
            let fast = simulate_app(&app, mk().as_mut(), span_ms, &cfg);
            let slow =
                simulate_app(&app, &mut PerTick(mk()), span_ms, &cfg);
            assert_eq!(
                format!("{fast:?}"),
                format!("{slow:?}"),
                "policy `{name}`: tick_idle fast path diverges from \
                 per-tick decisions (scenario `{scenario}`, interval \
                 {interval_ms} ms)",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{IdleRun, IdleTicks};

    /// Holds one pod every tick, but claims its idle fast path holds
    /// none: a broken `tick_idle` the harness must reject.
    struct WrongFastPath;

    impl ScalingPolicy for WrongFastPath {
        fn name(&self) -> String {
            "wrong-fast-path".to_string()
        }

        fn target_pods(&mut self, _ctx: &PolicyCtx<'_>) -> usize {
            1
        }

        fn tick_idle(
            &mut self,
            _idle: &IdleTicks<'_>,
            _i: u64,
            _current_pods: usize,
            max_ticks: u64,
        ) -> IdleRun {
            IdleRun {
                target: 0,
                ticks: max_ticks,
            }
        }
    }

    #[test]
    #[should_panic(expected = "diverges")]
    fn harness_rejects_a_wrong_fast_path() {
        assert_tick_idle_equivalence("WrongFastPath", &mut || {
            Box::new(WrongFastPath)
        });
    }
}
