//! Miniature Knative Serving substrate with FeMux integration (§5.2).
//!
//! Reproduces the prototype evaluation's moving parts:
//!
//! - [`kpa`]: the Knative Pod Autoscaler model — 2-second decisions, a
//!   60-second stable window, a 6-second panic window, and the
//!   60-second scale-to-zero grace period that makes Knative's default
//!   lifetime policy effectively a 1-minute keep-alive. Runs on the
//!   `femux-sim` engine at a 2-second interval (the simulator's ticks
//!   play the autoscaler loop; its per-interval average concurrency
//!   plays the queue-proxy reports; its reactive cold-start handling
//!   plays the Activator's buffering).
//! - [`integration`]: FeMux inserted into the metric path — per-second
//!   concurrency batched into minutes, routed to forecasting threads,
//!   returning a predictive target that overrides the reactive KPA for
//!   one minute at a time.
//! - [`replayer`]: wall-clock trace replay against worker threads
//!   (the prototype's FaaSProfiler role).
//! - [`statestore`]: the etcd stand-in that persists each app's
//!   forecasting state across FeMux pod restarts.
//!
//! The FeMux-pod scalability study (the paper: ≥1,200 apps per 1-vCPU
//! pod at 7 ms mean / 25 ms p99) is not here: Fig. 14-Right serves the
//! real per-app controller through `femux_serve::harness::run`, one
//! shard per pod.

pub mod integration;
pub mod kpa;
pub mod replayer;
pub mod statestore;

pub use integration::FemuxKnativePolicy;
pub use kpa::{KpaConfig, KpaPolicy};
pub use replayer::{replay, ReplayConfig, ReplayResult};
pub use statestore::StateStore;
