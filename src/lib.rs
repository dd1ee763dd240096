//! Workspace facade for the FeMux reproduction.
//!
//! Re-exports every member crate so examples and integration tests can
//! use one dependency. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the per-figure reproduction index.

pub use femux as core;
pub use femux_baselines as baselines;
pub use femux_classify as classify;
pub use femux_fault as fault;
pub use femux_features as features;
pub use femux_forecast as forecast;
pub use femux_knative as knative;
pub use femux_rum as rum;
pub use femux_serve as serve;
pub use femux_sim as sim;
pub use femux_stats as stats;
pub use femux_trace as trace;
