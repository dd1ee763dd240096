//! Virtual-clock trace feed.
//!
//! Converts a [`Trace`] into per-app, per-minute average-concurrency
//! sample streams — the exact representation FeMux's Knative prototype
//! consumes — behind the strict serving ingest boundary: non-monotone
//! invocation timestamps are rejected or clamped
//! ([`femux_trace::ingest`]), never silently re-sorted.

use femux_trace::ingest::{
    enforce_monotone, IngestError, MonotonePolicy,
};
use femux_trace::repr::concurrency_per_minute;
use femux_trace::{AppId, Trace};

/// One app's serving input.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFeed {
    /// The app's identity (shard assignment and fault-stream key).
    pub id: AppId,
    /// Per-minute average concurrency, minute 0 first.
    pub samples: Vec<f64>,
    /// Mean execution time in seconds (feeds the ExecTime feature).
    pub exec_secs: f64,
    /// Per-pod concurrency limit (actuation divisor).
    pub concurrency_limit: u32,
}

/// A whole trace, ingested for serving.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFeed {
    /// Apps in trace order.
    pub apps: Vec<AppFeed>,
    /// Virtual steps (minutes) in the longest app stream.
    pub steps: usize,
    /// Invocations whose timestamps were clamped forward at ingest
    /// (always 0 under [`MonotonePolicy::Reject`]).
    pub clamped_timestamps: usize,
}

/// Mean execution time assumed for apps with no invocations at all
/// (seconds) — matches the synthetic generators' typical short request.
const DEFAULT_EXEC_SECS: f64 = 0.5;

impl TraceFeed {
    /// Ingests a trace for serving under the given monotonicity policy.
    pub fn from_trace(
        trace: &Trace,
        policy: MonotonePolicy,
    ) -> Result<TraceFeed, IngestError> {
        let mut apps = Vec::with_capacity(trace.apps.len());
        let mut clamped_total = 0usize;
        let mut steps = 0usize;
        for app in &trace.apps {
            // Fast path: already monotone, serve the records as-is.
            // Otherwise the policy decides — error out, or clamp a
            // private copy (the caller's trace is never mutated).
            let samples = if app.is_sorted() {
                concurrency_per_minute(&app.invocations, trace.span_ms)
            } else {
                let mut invs = app.invocations.clone();
                clamped_total +=
                    enforce_monotone(app.id, &mut invs, policy)?;
                concurrency_per_minute(&invs, trace.span_ms)
            };
            let exec_secs = if app.invocations.is_empty() {
                DEFAULT_EXEC_SECS
            } else {
                app.invocations
                    .iter()
                    .map(|i| i.duration_ms as f64 / 1_000.0)
                    .sum::<f64>()
                    / app.invocations.len() as f64
            };
            steps = steps.max(samples.len());
            apps.push(AppFeed {
                id: app.id,
                samples,
                exec_secs,
                concurrency_limit: app.config.pod_concurrency(),
            });
        }
        if clamped_total > 0 {
            femux_obs::counter_add(
                "serve.ingest.clamped_timestamps",
                clamped_total as u64,
            );
        }
        Ok(TraceFeed {
            apps,
            steps,
            clamped_timestamps: clamped_total,
        })
    }

    /// The sample an app sees at step `t` (0 past the end of its
    /// stream — the app has gone quiet, not away).
    pub fn sample(&self, app: usize, t: usize) -> f64 {
        self.apps[app].samples.get(t).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};
    use femux_trace::{
        AppConfig, AppRecord, Invocation, WorkloadKind,
    };

    fn toy_trace(starts: &[u64]) -> Trace {
        let mut trace = Trace::new(300_000);
        trace.apps.push(AppRecord {
            id: AppId(7),
            kind: WorkloadKind::Function,
            config: AppConfig {
                concurrency: 10,
                ..Default::default()
            },
            mem_used_mb: 128,
            cold_start_ms: 808,
            invocations: starts
                .iter()
                .map(|&start_ms| Invocation {
                    start_ms,
                    duration_ms: 1_000,
                    delay_ms: 0,
                })
                .collect(),
        });
        trace
    }

    #[test]
    fn sorted_trace_feeds_untouched() {
        let trace = toy_trace(&[10_000, 70_000, 130_000]);
        let feed =
            TraceFeed::from_trace(&trace, MonotonePolicy::Reject)
                .unwrap();
        assert_eq!(feed.clamped_timestamps, 0);
        assert_eq!(feed.apps.len(), 1);
        assert_eq!(feed.steps, feed.apps[0].samples.len());
        assert!((feed.apps[0].exec_secs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_trace_rejected_or_clamped() {
        let trace = toy_trace(&[70_000, 10_000, 130_000]);
        assert!(TraceFeed::from_trace(&trace, MonotonePolicy::Reject)
            .is_err());
        let feed =
            TraceFeed::from_trace(&trace, MonotonePolicy::Clamp)
                .unwrap();
        assert_eq!(feed.clamped_timestamps, 1);
        // The caller's trace is untouched.
        assert_eq!(trace.apps[0].invocations[1].start_ms, 10_000);
    }

    #[test]
    fn synthetic_fleet_ingests_cleanly() {
        let trace = generate(&IbmFleetConfig::small(5));
        let feed =
            TraceFeed::from_trace(&trace, MonotonePolicy::Reject)
                .expect("generators emit sorted traces");
        assert_eq!(feed.apps.len(), trace.apps.len());
        assert!(feed.steps > 0);
        assert!(feed
            .apps
            .iter()
            .all(|a| a.samples.iter().all(|s| s.is_finite())));
    }

    #[test]
    fn sample_past_stream_end_is_zero() {
        let trace = toy_trace(&[10_000]);
        let feed =
            TraceFeed::from_trace(&trace, MonotonePolicy::Reject)
                .unwrap();
        assert_eq!(feed.sample(0, feed.steps + 100), 0.0);
    }
}
