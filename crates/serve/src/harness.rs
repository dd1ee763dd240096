//! The sharded serving loop.
//!
//! [`run`] splits a trace's apps across worker shards (stable
//! [`crate::shard_of`] assignment), serves every virtual-clock step,
//! and returns a [`ServeReport`] whose [`digest`](ServeReport::digest)
//! is byte-identical for any shard count: sharding only partitions the
//! per-app state — each app's sample stream, fault draws (keyed by app
//! id), and decisions are the same wherever it lives. Wall-clock tick
//! latencies are measured per shard for the capacity bench and
//! deliberately excluded from the digest.
//!
//! Each app is driven by the one FeMux per-app controller,
//! [`femux::manager::AppManager`]; the harness adds only what is
//! specific to serving: the injected report-loss draw, the per-app
//! pod-target tallies, and the `classify`/`actuate` trace events.

use std::sync::Arc;

use femux::manager::{AppManager, KNATIVE_TARGET_UTILIZATION};
use femux::model::FemuxModel;
use femux_fault::{AppFaults, FaultConfig, FaultStats};
use femux_forecast::ForecasterKind;
use femux_trace::ingest::{IngestError, MonotonePolicy};
use femux_trace::{AppId, Trace};

use crate::feed::{AppFeed, TraceFeed};
use crate::shard_of;

/// Serving-harness configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; 0 means `FEMUX_THREADS` (the femux-par pool
    /// size). The digest is shard-count invariant either way.
    pub shards: usize,
    /// Per-pod utilization headroom (default
    /// [`KNATIVE_TARGET_UTILIZATION`]).
    pub utilization: f64,
    /// What to do with non-monotone trace timestamps at ingest.
    pub ingest: MonotonePolicy,
    /// Injected fault plan (report loss + forecaster faults), if any.
    pub faults: Option<FaultConfig>,
    /// Measure per-tick wall latency (off by default: the numbers are
    /// nondeterministic and for the capacity bench only).
    pub measure_latency: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            utilization: KNATIVE_TARGET_UTILIZATION,
            ingest: MonotonePolicy::Reject,
            faults: None,
            measure_latency: false,
        }
    }
}

/// Deterministic per-app serving outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppOutcome {
    /// The app.
    pub id: AppId,
    /// Forecaster decision log (`AppManager::history_of_kinds`).
    pub decisions: Vec<ForecasterKind>,
    /// Completed blocks.
    pub blocks: usize,
    /// Reports lost to injected faults.
    pub reports_lost: u64,
    /// Samples sanitized for being non-finite.
    pub nonfinite_samples: u64,
    /// Sum of per-step pod targets.
    pub target_pod_sum: u64,
    /// Largest single-step pod target.
    pub target_pod_max: usize,
    /// Injected forecaster faults fired.
    pub forecast_faults: u64,
}

/// The result of serving one trace.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Shards used (excluded from the digest).
    pub shards: usize,
    /// Virtual steps served.
    pub steps: usize,
    /// Per-app outcomes, in trace order.
    pub apps: Vec<AppOutcome>,
    /// Invocations clamped at ingest.
    pub clamped_timestamps: usize,
    /// Injected-fault totals across the fleet.
    pub totals: FaultStats,
    /// Per-shard, per-tick wall latencies in µs (empty unless
    /// `measure_latency`; excluded from the digest).
    pub tick_wall_us: Vec<Vec<u64>>,
}

impl ServeReport {
    /// FNV-1a digest over every deterministic field — decisions,
    /// counts, fault totals — excluding shard count and wall-clock
    /// measurements. Equal digests mean byte-identical serving
    /// behavior.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(self.steps as u64).to_le_bytes());
        bytes
            .extend_from_slice(&(self.clamped_timestamps as u64).to_le_bytes());
        bytes.extend_from_slice(&self.totals.total().to_le_bytes());
        for app in &self.apps {
            bytes.extend_from_slice(&app.id.0.to_le_bytes());
            for kind in &app.decisions {
                bytes.extend_from_slice(kind.name().as_bytes());
                bytes.push(b';');
            }
            for v in [
                app.blocks as u64,
                app.reports_lost,
                app.nonfinite_samples,
                app.target_pod_sum,
                app.target_pod_max as u64,
                app.forecast_faults,
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        crate::fnv1a(&bytes)
    }

    /// Fleet-wide pod-target sum (a cheap scalar the capacity bench
    /// compares across runs).
    pub fn total_pod_targets(&self) -> u64 {
        self.apps.iter().map(|a| a.target_pod_sum).sum()
    }
}

struct ShardResult {
    /// (index into trace order, outcome) pairs.
    outcomes: Vec<(usize, AppOutcome)>,
    stats: FaultStats,
    tick_wall_us: Vec<u64>,
}

/// Serves a whole trace and returns the deterministic report.
///
/// Virtual clock: step `t` is trace minute `t`; every app on every
/// shard sees its minute-`t` sample during step `t`. Shards run in
/// parallel (femux-par), each advancing its own apps step by step, so
/// per-tick wall latency is an honest per-shard measurement.
pub fn run(
    trace: &Trace,
    model: Arc<FemuxModel>,
    cfg: &ServeConfig,
) -> Result<ServeReport, IngestError> {
    let feed = TraceFeed::from_trace(trace, cfg.ingest)?;
    let shards = if cfg.shards == 0 {
        femux_par::thread_count()
    } else {
        cfg.shards
    };
    femux_obs::counter_add("serve.runs", 1);
    femux_obs::counter_add("serve.apps", feed.apps.len() as u64);
    // Partition apps by stable hash, preserving trace order inside each
    // shard.
    let mut groups: Vec<Vec<(usize, &AppFeed)>> = vec![Vec::new(); shards];
    for (idx, app) in feed.apps.iter().enumerate() {
        groups[shard_of(app.id, shards)].push((idx, app));
    }
    let steps = feed.steps;
    let results: Vec<ShardResult> =
        femux_par::par_map(&groups, |_, group| {
            let result = run_shard(group, &model, cfg, steps);
            femux_obs::flush_thread();
            result
        });
    // Reassemble in trace order so downstream consumers never see the
    // shard layout.
    let mut slots: Vec<Option<AppOutcome>> = vec![None; feed.apps.len()];
    let mut totals = FaultStats::default();
    let mut tick_wall_us = Vec::with_capacity(shards);
    for shard in results {
        totals.merge(&shard.stats);
        for (idx, outcome) in shard.outcomes {
            slots[idx] = Some(outcome);
        }
        tick_wall_us.push(shard.tick_wall_us);
    }
    let apps = slots
        .into_iter()
        .map(|s| s.expect("every app is served by exactly one shard"))
        .collect();
    Ok(ServeReport {
        shards,
        steps,
        apps,
        clamped_timestamps: feed.clamped_timestamps,
        totals,
        tick_wall_us,
    })
}

/// One served app: its controller plus the serving-only state.
struct Served<'a> {
    idx: usize,
    feed: &'a AppFeed,
    manager: AppManager,
    /// Injected engine faults (report loss), if serving under a plan.
    engine_faults: Option<AppFaults>,
    /// Tallies so far; `decisions` and `forecast_faults` are filled in
    /// from the manager at the end.
    outcome: AppOutcome,
}

impl Served<'_> {
    /// Serves one virtual-clock step: ingest the concurrency report
    /// (re-classifying at a block boundary), forecast one step ahead,
    /// and tally the pod target.
    fn step(&mut self, step: usize, utilization: f64) {
        // Injected report loss arrives as a NaN sample, exercising the
        // same sanitization path a production report gap would.
        let lost = self
            .engine_faults
            .as_mut()
            .is_some_and(|e| e.lose_report());
        let value = if lost {
            self.outcome.reports_lost += 1;
            f64::NAN
        } else {
            self.feed.samples.get(step).copied().unwrap_or(0.0)
        };
        if !value.is_finite() {
            self.outcome.nonfinite_samples += 1;
        }
        let track = || format!("serve/app-{}", self.feed.id.0);
        if let Some(block) = self.manager.observe(value) {
            self.outcome.blocks += 1;
            if femux_obs::events_enabled() {
                femux_obs::span(
                    &track(),
                    "serve",
                    "classify",
                    virtual_ts_us(step),
                    0,
                    &[
                        ("block", block.seq as u64),
                        ("idle", block.idle as u64),
                    ],
                );
            }
        }
        let pred = self.manager.forecast(1)[0];
        // Knative-style actuation: provision the forecast against the
        // per-pod concurrency target scaled by the utilization headroom
        // (cf. FemuxPolicy::target_pods + PolicyCtx::pods_for_concurrency).
        let target = pred / utilization.clamp(0.05, 1.0);
        let pods = if target <= 0.0 {
            0
        } else {
            (target / self.feed.concurrency_limit.max(1) as f64).ceil()
                as usize
        };
        self.outcome.target_pod_sum += pods as u64;
        self.outcome.target_pod_max = self.outcome.target_pod_max.max(pods);
        femux_obs::observe("serve.target_pods", pods as u64);
        if femux_obs::events_enabled() {
            femux_obs::instant(
                &track(),
                "serve",
                "actuate",
                virtual_ts_us(step),
                &[("pods", pods as u64)],
            );
        }
    }
}

/// Virtual timestamp of a serving step: one trace minute per step.
fn virtual_ts_us(step: usize) -> u64 {
    step as u64 * 60_000_000
}

fn run_shard(
    group: &[(usize, &AppFeed)],
    model: &Arc<FemuxModel>,
    cfg: &ServeConfig,
    steps: usize,
) -> ShardResult {
    let mut apps: Vec<Served> = group
        .iter()
        .map(|&(idx, feed)| {
            let model = Arc::clone(model);
            let (manager, engine_faults) = match &cfg.faults {
                Some(plan) => (
                    AppManager::with_faults(
                        model,
                        feed.exec_secs,
                        plan.forecast_faults(feed.id),
                    ),
                    Some(plan.engine_faults(feed.id)),
                ),
                None => (AppManager::new(model, feed.exec_secs), None),
            };
            Served {
                idx,
                feed,
                manager,
                engine_faults,
                outcome: AppOutcome {
                    id: feed.id,
                    decisions: Vec::new(),
                    blocks: 0,
                    reports_lost: 0,
                    nonfinite_samples: 0,
                    target_pod_sum: 0,
                    target_pod_max: 0,
                    forecast_faults: 0,
                },
            }
        })
        .collect();
    let mut tick_wall_us =
        Vec::with_capacity(if cfg.measure_latency { steps } else { 0 });
    for t in 0..steps {
        let t0 = if cfg.measure_latency {
            femux_obs::walltime::monotonic_micros()
        } else {
            0
        };
        for app in &mut apps {
            app.step(t, cfg.utilization);
        }
        if cfg.measure_latency {
            let now = femux_obs::walltime::monotonic_micros();
            tick_wall_us.push(now.saturating_sub(t0));
            femux_obs::walltime::record_elapsed("wall.serve.tick_us", t0);
        }
    }
    let mut stats = FaultStats::default();
    let outcomes = apps
        .into_iter()
        .map(|app| {
            let mut app_stats = app.manager.fault_stats();
            if let Some(e) = &app.engine_faults {
                app_stats.merge(&e.stats);
            }
            stats.merge(&app_stats);
            let mut outcome = app.outcome;
            outcome.forecast_faults = app_stats.forecast_faults;
            outcome.decisions = app.manager.history_of_kinds;
            (app.idx, outcome)
        })
        .collect();
    ShardResult {
        outcomes,
        stats,
        tick_wall_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux::config::FemuxConfig;
    use femux::model::{train, ClassifierKind, TrainApp};
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};

    fn model() -> Arc<FemuxModel> {
        let cfg = FemuxConfig::for_tests();
        let apps: Vec<TrainApp> = (0..4)
            .map(|i| TrainApp {
                concurrency: (0..600)
                    .map(|t| {
                        2.0 + (t as f64 * (0.2 + i as f64 * 0.1)).sin()
                    })
                    .collect(),
                exec_secs: 0.5,
                mem_gb: 0.5,
                pod_concurrency: 1,
            })
            .collect();
        Arc::new(
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
        )
    }

    #[test]
    fn digest_is_shard_count_invariant() {
        let trace = generate(&IbmFleetConfig::small(7));
        let model = model();
        let digests: Vec<u64> = [1usize, 2, 5]
            .iter()
            .map(|&shards| {
                let report = run(
                    &trace,
                    model.clone(),
                    &ServeConfig {
                        shards,
                        ..ServeConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(report.shards, shards);
                report.digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn apps_come_back_in_trace_order() {
        let trace = generate(&IbmFleetConfig::small(8));
        let report = run(
            &trace,
            model(),
            &ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let ids: Vec<u32> = report.apps.iter().map(|a| a.id.0).collect();
        let expected: Vec<u32> =
            trace.apps.iter().map(|a| a.id.0).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn report_loss_sanitizes_to_zero_sample() {
        // Every report is lost and no forecast is corrupted: each app
        // must serve exactly like an idle one (all-zero samples), not
        // crash or emit NaN.
        let mut trace = generate(&IbmFleetConfig::small(10));
        trace.apps.truncate(6);
        let cfg = ServeConfig {
            shards: 1,
            faults: Some(FaultConfig {
                report_loss_rate: 1.0,
                ..FaultConfig::off(5)
            }),
            ..ServeConfig::default()
        };
        let report = run(&trace, model(), &cfg).unwrap();
        let steps = report.steps as u64;
        assert_eq!(report.totals.report_losses, steps * 6);
        for app in &report.apps {
            assert_eq!(app.reports_lost, steps);
            assert_eq!(app.nonfinite_samples, steps);
            assert_eq!(app.target_pod_max, 0, "lost reports read as idle");
            assert_eq!(app.forecast_faults, 0);
        }
    }

    #[test]
    fn latency_measurement_fills_per_shard_ticks() {
        let trace = generate(&IbmFleetConfig::small(9));
        let report = run(
            &trace,
            model(),
            &ServeConfig {
                shards: 2,
                measure_latency: true,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.tick_wall_us.len(), 2);
        for shard in &report.tick_wall_us {
            assert_eq!(shard.len(), report.steps);
        }
    }
}
