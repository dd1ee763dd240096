//! Discrete-event serverless platform simulator.
//!
//! The paper's primary evaluation methodology (§5) is trace-driven
//! simulation of lifetime-management policies at production scale. This
//! crate provides that substrate:
//!
//! - [`engine`]: per-application replay with pods, per-pod concurrency,
//!   cold-start latency, interval-based scaling, the paper's override
//!   rules (no mid-execution preemption; cold-start pods protected to
//!   the interval end), minimum-scale floors, and AWS-style scale-out
//!   rate limits. Produces [`femux_rum::CostRecord`]s.
//! - [`policy`]: the [`policy::ScalingPolicy`] trait plus reference
//!   policies — fixed keep-alive (1/5/10 min), Knative's default
//!   reactive autoscaling, and a generic forecaster-driven policy.
//! - [`fleet`]: running a policy factory over a whole trace.
//! - [`cluster`]: an optional node model (finite core/memory capacity,
//!   best-fit placement, memory-pressure eviction, node fault domains)
//!   enabled via [`SimConfig::cluster`]; `None` keeps the historical
//!   free-floating pod accounting bit-for-bit.
//! - [`equiv`]: the `tick_idle` equivalence harness, which runs each
//!   policy through the engine with its idle fast path and with one
//!   `target_pods` call per tick.
//!
//! The engine has one independent reference: `femux-oracle`'s
//! per-millisecond `reference_simulate`, held to exact agreement.
//!
//! Fault injection (pod crashes, cold-start stragglers, actuation
//! delay/drop, report loss, node crashes) is opt-in via
//! [`SimConfig::faults`] and fully deterministic: every fault comes
//! from a keyed schedule (see the `femux-fault` crate), so idle
//! stretches fast-forward under a plan too.

// A narrowing cast silently corrupts accumulated costs. Cargo rejects
// per-crate lint entries beside `[lints] workspace = true`, so the
// cast lints are denied here rather than in the manifest.
#![deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

pub mod cluster;
pub mod engine;
pub mod equiv;
pub mod fleet;
pub mod policy;

pub use cluster::{
    Cluster, ClusterConfig, ClusterOutcome, NodeConfig, PodRequest,
    ReleaseReason,
};
pub use engine::{
    simulate_app, simulate_app_with_stats, EngineStats, ScaleEvent,
    ScaleLimit, SimConfig, SimResult,
};
pub use fleet::{run_fleet, run_fleet_detailed, FleetOutcome};
pub use policy::{
    FixedPolicy, ForecastPolicy, IdleRun, IdleTicks, KeepAlivePolicy,
    KnativeDefaultPolicy, PolicyCtx, ScalingPolicy, ZeroPolicy,
};
pub use equiv::assert_tick_idle_equivalence;
