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
//! engine twice — once with the policy as given and the idle
//! fast-forward on, once with every tick taken by the engine's per-tick
//! path, so the policy decides through `target_pods` at each tick — and
//! asserts the full [`crate::SimResult`] is `Debug`-identical. A wrong
//! `tick_idle`, or a wrong batched branch in the engine, differs from
//! the one-tick path. Every scenario also runs on a finite cluster,
//! without a plan and under a battery of fault plans, which holds the
//! engine's fast-forward on a cluster (denials counted in bulk, crashes
//! counted in place, stretches ended at observable faults) to the
//! per-tick path as well. The engine itself is checked
//! against the independent per-millisecond reference in `femux-oracle`.
//!
//! `tests/tick_idle_equivalence.rs` calls it for every policy that
//! overrides `tick_idle`, and fails when an override in the tree has no
//! such call, so adding an idle fast path without proving it equivalent
//! fails CI.

use femux_fault::FaultConfig;
use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};

use crate::cluster::{ClusterConfig, NodeConfig};
use crate::engine::{simulate_app, simulate_per_tick, ScaleLimit, SimConfig};
use crate::policy::ScalingPolicy;

const HOUR: u64 = 3_600_000;

/// Ticks a fault-plan run covers at most: the per-tick reference
/// decides at every one, and faults need no long tails. At 60 s this
/// keeps every scenario's first 200 minutes, the burst included.
const FAULT_TICKS: u64 = 200;

/// One synthetic scenario: `(name, app, span_ms)`.
fn scenarios() -> Vec<(&'static str, AppRecord, u64)> {
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

    // A floor no node can hold: five 711 MB pods against 600 MB nodes,
    // so on a cluster every tick's target is denied and every arrival
    // runs overcommitted, and the denial runs are counted in bulk.
    let mut app = AppRecord::new(AppId(7), WorkloadKind::Application);
    app.config.min_scale = 5;
    app.mem_used_mb = 711;
    for k in 0..4 {
        app.invocations.push(inv(HOUR / 2 + k * 80 * 60_000, 300));
    }
    out.push(("floor-no-node-holds", app, 6 * HOUR));

    out
}

/// The fault plans every scenario also runs under, each on perfbench's
/// crash-phase cluster (16 nodes of 600 MB, four 150 MB pods each):
/// every engine fault class alone at 5 %, all of them at 5 %, the
/// crash phase's own plan, and the rate-1 corners.
fn plans() -> Vec<(&'static str, FaultConfig)> {
    let off = FaultConfig::off(0xE0_1D1E);
    vec![
        ("pod crashes", FaultConfig { pod_crash_rate: 0.05, ..off.clone() }),
        ("stragglers", FaultConfig { straggler_rate: 0.05, ..off.clone() }),
        (
            "actuation delays",
            FaultConfig {
                actuation_delay_rate: 0.05,
                actuation_delay_ticks: 2,
                ..off.clone()
            },
        ),
        (
            "actuation drops",
            FaultConfig { actuation_drop_rate: 0.05, ..off.clone() },
        ),
        (
            "report losses",
            FaultConfig { report_loss_rate: 0.05, ..off.clone() },
        ),
        (
            "node crashes",
            FaultConfig {
                node_crash_rate: 0.05,
                node_recovery_ticks: 3,
                ..off.clone()
            },
        ),
        ("all at 5 %", FaultConfig::uniform(off.seed, 0.05)),
        (
            "crash phase",
            FaultConfig {
                node_crash_rate: 0.01,
                node_recovery_ticks: 2,
                pod_crash_rate: 0.001,
                ..off.clone()
            },
        ),
        (
            "all certain, delays",
            FaultConfig {
                actuation_drop_rate: 0.0,
                ..FaultConfig::uniform(off.seed, 1.0)
            },
        ),
        (
            "all certain, drops",
            FaultConfig {
                actuation_delay_rate: 0.0,
                node_recovery_ticks: 2,
                ..FaultConfig::uniform(off.seed, 1.0)
            },
        ),
    ]
}

/// Compares one fast-forwarded run of `mk()`'s policy with one run of
/// a fresh policy through the per-tick path.
fn assert_run_equivalent(
    name: &str,
    what: &str,
    mk: &mut dyn FnMut() -> Box<dyn ScalingPolicy>,
    app: &AppRecord,
    span_ms: u64,
    cfg: &SimConfig,
) {
    let fast = simulate_app(app, mk().as_mut(), span_ms, cfg);
    let slow = simulate_per_tick(app, mk().as_mut(), span_ms, cfg);
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "policy `{name}`: the idle fast-forward diverges from per-tick \
         decisions ({what}, interval {} ms)",
        cfg.interval_ms,
    );
}

/// Asserts that the policy built by `mk` makes byte-identical
/// decisions with the idle fast-forward (`tick_idle`) and with one
/// `target_pods` call per tick, across the idle-heavy scenario battery,
/// both evaluation intervals, and the fault-plan battery.
///
/// `mk` is called once per run so each run starts from a fresh policy
/// (policies are stateful).
///
/// # Panics
///
/// Panics with the scenario, plan, interval and first divergence when
/// the fast path is not equivalent.
pub fn assert_tick_idle_equivalence(
    name: &str,
    mk: &mut dyn FnMut() -> Box<dyn ScalingPolicy>,
) {
    let cluster = ClusterConfig::uniform(
        16,
        NodeConfig { cpu_milli: u64::MAX, mem_mb: 600 },
    );
    // Stretches that place pods while an empty node is down: a one-pod
    // floor and any higher target (`FixedPolicy` holds two) pack onto
    // the first of two small nodes, under the scale-out rate limit,
    // while node crashes take the empty second one out; an occupied
    // node's crash sends its pods to whatever the second one's state
    // allows.
    let refill = SimConfig {
        scale_limit: Some(ScaleLimit { threshold: 0, per_minute: 1 }),
        cluster: Some(ClusterConfig::uniform(
            2,
            NodeConfig { cpu_milli: u64::MAX, mem_mb: 300 },
        )),
        ..SimConfig::default()
    };
    let mut floor = AppRecord::new(AppId(6), WorkloadKind::Function);
    floor.config.min_scale = 1;
    // A floor that partly fits: four of its five 150 MB pods fill the
    // two small nodes and the fifth is denied at every tick. The pod
    // fits a node, so the engine cannot rule out room and keeps these
    // runs on the per-tick path.
    let mut partial = AppRecord::new(AppId(8), WorkloadKind::Function);
    partial.config.min_scale = 5;
    for interval_ms in [60_000, 10_000] {
        let base = SimConfig {
            interval_ms,
            record_delays: true,
            ..SimConfig::default()
        };
        for (scenario, app, span_ms) in scenarios() {
            assert_run_equivalent(name, scenario, mk, &app, span_ms, &base);
            let on_cluster = SimConfig {
                cluster: Some(cluster.clone()),
                ..base.clone()
            };
            let what = format!("scenario `{scenario}`, on the cluster");
            assert_run_equivalent(name, &what, mk, &app, span_ms, &on_cluster);
            for (plan, faults) in plans() {
                let cfg = SimConfig {
                    faults: Some(faults),
                    ..on_cluster.clone()
                };
                let span_ms = span_ms.min(FAULT_TICKS * interval_ms);
                let what = format!("scenario `{scenario}`, plan `{plan}`");
                assert_run_equivalent(name, &what, mk, &app, span_ms, &cfg);
            }
        }
        let on_refill = SimConfig {
            interval_ms,
            record_delays: true,
            ..refill.clone()
        };
        let span_ms = FAULT_TICKS * interval_ms;
        for (scenario, app) in [
            ("refill beside an empty node", &floor),
            ("a floor that partly fits", &partial),
        ] {
            let what = format!("scenario `{scenario}`, no plan");
            assert_run_equivalent(name, &what, mk, app, span_ms, &on_refill);
            for (plan, faults) in plans() {
                let cfg = SimConfig {
                    faults: Some(faults),
                    ..on_refill.clone()
                };
                let what = format!("scenario `{scenario}`, plan `{plan}`");
                assert_run_equivalent(name, &what, mk, app, span_ms, &cfg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{IdleRun, IdleTicks, PolicyCtx};

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
