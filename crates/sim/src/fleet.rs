//! Fleet-level simulation: run a policy over every application of a
//! trace and collect per-application cost records.
//!
//! Policies are stateful per application (forecasters accumulate
//! history), so the caller provides a *factory* that builds one policy
//! instance per app.

use std::borrow::Cow;

use femux_fault::FaultStats;
use femux_rum::CostRecord;
use femux_trace::types::{AppId, AppRecord, Trace};

use crate::engine::{simulate_app, SimConfig, SimResult};
use crate::policy::ScalingPolicy;

/// Per-application outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Application ids, aligned with `per_app`.
    pub app_ids: Vec<AppId>,
    /// One cost record per application, in trace order.
    pub per_app: Vec<CostRecord>,
    /// Fleet-wide totals.
    pub total: CostRecord,
    /// Injected-fault totals across the fleet: engine-side injections
    /// (crashes, stragglers, actuation faults, report loss) plus any
    /// policy-side injections reported via
    /// [`ScalingPolicy::fault_stats`]. All zero for fault-free runs.
    pub fault_totals: FaultStats,
}

impl FleetOutcome {
    /// Fleet cold-start fraction.
    pub fn cold_start_fraction(&self) -> f64 {
        self.total.cold_start_fraction()
    }
}

/// Namespaces a fleet run's trace events so repeated sweeps over the
/// same applications never reuse a track (each track must be one
/// sequential emission unit), and injects the process-ambient span
/// config (the bench layer's `--span-sample`) into configs that do not
/// already carry one. The epoch is drawn here, in sequential
/// coordination code, so its sequence is deterministic.
fn with_run_epoch(cfg: &SimConfig) -> Cow<'_, SimConfig> {
    let need_prefix =
        femux_obs::events_enabled() && cfg.obs_track_prefix.is_none();
    let ambient_spans = if cfg.spans.is_none() {
        femux_obs::span::ambient()
    } else {
        None
    };
    if need_prefix || ambient_spans.is_some() {
        let mut c = cfg.clone();
        if need_prefix {
            c.obs_track_prefix =
                Some(format!("fleet-{:02}", femux_obs::next_track_epoch()));
        }
        if ambient_spans.is_some() {
            c.spans = ambient_spans;
        }
        Cow::Owned(c)
    } else {
        Cow::Borrowed(cfg)
    }
}

/// Runs `make_policy(app_index, app)` over every app in the trace,
/// in parallel across the ambient `femux-par` thread count
/// (`FEMUX_THREADS` or available parallelism). Applications are
/// independent, per-app records come back in trace order, and the
/// totals are merged sequentially afterwards, so the outcome is
/// byte-identical at any thread count. The factory must therefore be
/// callable from any worker (`Fn + Sync`).
pub fn run_fleet<F>(
    trace: &Trace,
    cfg: &SimConfig,
    make_policy: F,
) -> FleetOutcome
where
    F: Fn(usize, &AppRecord) -> Box<dyn ScalingPolicy> + Sync,
{
    let cfg = with_run_epoch(cfg);
    let cfg = &*cfg;
    let results = femux_par::par_map(&trace.apps, |i, app| {
        let mut policy = make_policy(i, app);
        let result = simulate_app(app, policy.as_mut(), trace.span_ms, cfg);
        let mut faults = result.faults;
        faults.merge(&policy.fault_stats());
        (result.costs, faults)
    });
    let mut total = CostRecord::default();
    let mut fault_totals = FaultStats::default();
    let mut per_app = Vec::with_capacity(results.len());
    for (costs, faults) in results {
        total.merge(&costs);
        fault_totals.merge(&faults);
        per_app.push(costs);
    }
    FleetOutcome {
        app_ids: trace.apps.iter().map(|a| a.id).collect(),
        per_app,
        total,
        fault_totals,
    }
}

/// Runs the fleet but also returns the full [`SimResult`] per app
/// (including delay vectors and concurrency series) — used by the
/// characterization and Knative-comparison experiments.
///
/// Same parallel, trace-ordered contract as [`run_fleet`].
pub fn run_fleet_detailed<F>(
    trace: &Trace,
    cfg: &SimConfig,
    make_policy: F,
) -> Vec<SimResult>
where
    F: Fn(usize, &AppRecord) -> Box<dyn ScalingPolicy> + Sync,
{
    let cfg = with_run_epoch(cfg);
    let cfg = &*cfg;
    femux_par::par_map(&trace.apps, |i, app| {
        let mut policy = make_policy(i, app);
        simulate_app(app, policy.as_mut(), trace.span_ms, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{KeepAlivePolicy, ZeroPolicy};
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};

    #[test]
    fn fleet_totals_are_sums() {
        let trace = generate(&IbmFleetConfig::small(11));
        let cfg = SimConfig::default();
        let out = run_fleet(&trace, &cfg, |_, _| Box::new(ZeroPolicy));
        let mut merged = CostRecord::default();
        for r in &out.per_app {
            r.check().expect("per-app record consistent");
            merged.merge(r);
        }
        assert_eq!(merged.invocations, out.total.invocations);
        assert_eq!(
            out.total.invocations,
            trace.total_invocations(),
            "every invocation must be served exactly once"
        );
    }

    #[test]
    fn keep_alive_trades_memory_for_cold_starts() {
        let trace = generate(&IbmFleetConfig::small(12));
        // Disable min-scale so the trade-off is visible.
        let cfg = SimConfig {
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let zero = run_fleet(&trace, &cfg, |_, _| Box::new(ZeroPolicy));
        let ka = run_fleet(&trace, &cfg, |_, _| {
            Box::new(KeepAlivePolicy::ten_minutes())
        });
        assert!(
            ka.total.cold_starts < zero.total.cold_starts,
            "keep-alive should reduce cold starts: {} vs {}",
            ka.total.cold_starts,
            zero.total.cold_starts
        );
        assert!(
            ka.total.wasted_gb_seconds > zero.total.wasted_gb_seconds,
            "keep-alive should waste more memory"
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let trace = generate(&IbmFleetConfig::small(14));
        let cfg = SimConfig::default();
        let run = |threads| {
            let _guard = femux_par::override_threads(threads);
            run_fleet(&trace, &cfg, |_, _| Box::new(ZeroPolicy))
        };
        let (seq, par) = (run(1), run(4));
        assert_eq!(seq.per_app, par.per_app);
        assert_eq!(seq.total, par.total);
    }

    #[test]
    fn detailed_results_are_thread_count_invariant() {
        let trace = generate(&IbmFleetConfig::small(16));
        let cfg = SimConfig {
            record_delays: true,
            ..SimConfig::default()
        };
        let one = {
            let _guard = femux_par::override_threads(1);
            run_fleet_detailed(&trace, &cfg, |_, _| {
                Box::new(KeepAlivePolicy::ten_minutes())
            })
        };
        let eight = {
            let _guard = femux_par::override_threads(8);
            run_fleet_detailed(&trace, &cfg, |_, _| {
                Box::new(KeepAlivePolicy::ten_minutes())
            })
        };
        assert_eq!(one.len(), trace.apps.len());
        // Full SimResults — costs, delay vectors, every series — must be
        // byte-identical regardless of worker count.
        assert_eq!(one, eight);
    }

    #[test]
    fn min_scale_suppresses_cold_starts_fleetwide() {
        let trace = generate(&IbmFleetConfig::small(13));
        let with = run_fleet(&trace, &SimConfig::default(), |_, _| {
            Box::new(ZeroPolicy)
        });
        let without = run_fleet(
            &trace,
            &SimConfig {
                respect_min_scale: false,
                ..SimConfig::default()
            },
            |_, _| Box::new(ZeroPolicy),
        );
        assert!(with.total.cold_starts < without.total.cold_starts);
        assert!(with.cold_start_fraction() < without.cold_start_fraction());
    }
}
