//! The `serve` stage: `femux_serve::run` on one shard under the paper
//! config, and its traced replica.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use femux::degrade::{DegradeLadder, LadderDecision};
use femux::model::FemuxModel;
use femux_features::IncrementalExtractor;
use femux_forecast::{Forecaster, ForecasterKind};
use femux_obs::walltime::monotonic_micros;
use femux_serve::{AppOutcome, ServeConfig, ServeReport, TraceFeed};
use femux_trace::types::Trace;

use crate::stats::{fallback_events, is_boundary_tick};

/// One untraced serving round.
pub struct ServeRound {
    /// The deterministic report.
    pub report: ServeReport,
    /// Wall time of non-boundary ticks, µs.
    pub steady_us: Vec<u64>,
    /// Wall time of block-boundary ticks, µs.
    pub boundary_us: Vec<u64>,
    /// Wall time of the whole `run` call, µs.
    pub wall_us: u64,
}

/// Serves `trace` on one shard with per-tick latency measurement.
///
/// # Panics
///
/// Panics if the generated trace is not time-sorted (the generators
/// always sort).
pub fn serve_round(trace: &Trace, model: &Arc<FemuxModel>) -> ServeRound {
    serve_with(trace, model, None)
}

/// The serving configuration: one shard with per-tick latency
/// measurement, the rest as deployed.
fn config(faults: Option<femux_fault::FaultConfig>) -> ServeConfig {
    ServeConfig {
        shards: 1,
        faults,
        measure_latency: true,
        ..ServeConfig::default()
    }
}

/// [`serve_round`] under an optional fault plan (tests force
/// forecaster faults through it).
///
/// # Panics
///
/// Panics if the trace is not time-sorted.
pub fn serve_with(
    trace: &Trace,
    model: &Arc<FemuxModel>,
    faults: Option<femux_fault::FaultConfig>,
) -> ServeRound {
    let cfg = config(faults);
    let t0 = monotonic_micros();
    let report =
        femux_serve::run(trace, Arc::clone(model), &cfg).expect("generated traces are time-sorted");
    let wall_us = monotonic_micros().saturating_sub(t0);
    let block_len = model.cfg.block_len;
    let mut steady_us = Vec::new();
    let mut boundary_us = Vec::new();
    for shard in &report.tick_wall_us {
        for (t, &us) in shard.iter().enumerate() {
            if is_boundary_tick(t, block_len) {
                boundary_us.push(us);
            } else {
                steady_us.push(us);
            }
        }
    }
    ServeRound {
        report,
        steady_us,
        boundary_us,
        wall_us,
    }
}

/// Forecasts attempted in a report: one per app per step.
pub fn forecasts_attempted(report: &ServeReport) -> u64 {
    (report.apps.len() * report.steps) as u64
}

/// Forecasts that fell back to the moving average, fleet-wide.
pub fn forecasts_failed(report: &ServeReport) -> u64 {
    report
        .apps
        .iter()
        .map(|a| fallback_events(&a.decisions))
        .sum()
}

/// Correctness of a serving report: every app completed
/// `steps / block_len` blocks. Returns the offending app count.
pub fn incomplete_apps(report: &ServeReport, block_len: usize) -> usize {
    let expected = report.steps / block_len;
    report.apps.iter().filter(|a| a.blocks != expected).count()
}

/// Per-layer busy time and counts from the traced serving replica.
#[derive(Debug, Default)]
pub struct ServeTrace {
    /// Per forecaster kind: µs of each `Forecaster::forecast(window, 1)`.
    pub predict_us: BTreeMap<&'static str, Vec<u64>>,
    /// µs of each non-boundary `IncrementalExtractor::push`.
    pub push_us: Vec<u64>,
    /// µs of each block-completing push (feature finalize).
    pub boundary_push_us: Vec<u64>,
    /// µs of each `FemuxModel::select_from_features`.
    pub select_us: Vec<u64>,
    /// Forecaster changes at block boundaries.
    pub switches: u64,
    /// Completed blocks that were idle (routed to the default
    /// forecaster without classification).
    pub idle_blocks: u64,
    /// Traced tick time, µs: `[steady, boundary]`.
    pub tick_us: [u64; 2],
    /// Time inside named layers, µs, `[steady, boundary]`, by layer:
    /// forecast, features, classify.
    pub layer_us: [[u64; 3]; 2],
    /// Replica outcomes in trace order.
    pub outcomes: Vec<ReplicaOutcome>,
    /// Wall time of the traced replica, µs.
    pub wall_us: u64,
}

/// What the replica decided for one app; must equal `run`'s
/// [`AppOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaOutcome {
    /// Forecaster decision log.
    pub decisions: Vec<ForecasterKind>,
    /// Completed blocks.
    pub blocks: usize,
    /// Sum of per-step pod targets.
    pub target_pod_sum: u64,
    /// Largest single-step pod target.
    pub target_pod_max: usize,
}

impl ReplicaOutcome {
    /// Whether the replica agrees with the harness on this app.
    pub fn matches(&self, outcome: &AppOutcome) -> bool {
        self.decisions == outcome.decisions
            && self.blocks == outcome.blocks
            && self.target_pod_sum == outcome.target_pod_sum
            && self.target_pod_max == outcome.target_pod_max
    }
}

const FORECAST: usize = 0;
const FEATURES: usize = 1;
const CLASSIFY: usize = 2;

/// One app's replica state: `femux_serve::ServedApp` rebuilt from the
/// layers' public calls so each call can be timed from outside.
struct Replica {
    model: Arc<FemuxModel>,
    history: VecDeque<f64>,
    extractor: IncrementalExtractor,
    ladder: DegradeLadder,
    current_kind: ForecasterKind,
    forecaster: Box<dyn Forecaster>,
    fallback: Option<Box<dyn Forecaster>>,
    concurrency_limit: u32,
    utilization: f64,
    out: ReplicaOutcome,
}

impl Replica {
    /// Built before the first tick, like `ServedApp::new`, so outside
    /// every traced tick.
    fn new(
        model: &Arc<FemuxModel>,
        exec_secs: f64,
        concurrency_limit: u32,
        utilization: f64,
    ) -> Self {
        let kind = model.default_forecaster;
        let forecaster = kind.build();
        Replica {
            history: VecDeque::with_capacity(model.cfg.history),
            extractor: IncrementalExtractor::new(
                model.cfg.block_len,
                exec_secs,
                &model.cfg.features,
            ),
            ladder: DegradeLadder::new(),
            current_kind: kind,
            forecaster,
            fallback: None,
            concurrency_limit: concurrency_limit.max(1),
            utilization,
            model: Arc::clone(model),
            out: ReplicaOutcome {
                decisions: vec![kind],
                blocks: 0,
                target_pod_sum: 0,
                target_pod_max: 0,
            },
        }
    }

    fn build(&mut self, kind: ForecasterKind, layer: &mut [u64; 3]) {
        let t0 = monotonic_micros();
        self.forecaster = kind.build();
        layer[FORECAST] += monotonic_micros().saturating_sub(t0);
    }

    fn step(&mut self, value: f64, tr: &mut ServeTrace, layer: &mut [u64; 3]) {
        let value = if value.is_finite() { value } else { 0.0 };
        let value = value.max(0.0);
        let history = self.model.cfg.history;
        if self.history.len() == history {
            self.history.pop_front();
        }
        if history > 0 {
            self.history.push_back(value);
        }

        let t0 = monotonic_micros();
        let block = self.extractor.push(value);
        let dt = monotonic_micros().saturating_sub(t0);
        layer[FEATURES] += dt;
        match block {
            None => tr.push_us.push(dt),
            Some(block) => {
                tr.boundary_push_us.push(dt);
                tr.idle_blocks += u64::from(block.idle);
                self.out.blocks += 1;
                let t0 = monotonic_micros();
                let kind = self.model.select_from_features(&block.features, block.idle);
                let dt = monotonic_micros().saturating_sub(t0);
                tr.select_us.push(dt);
                layer[CLASSIFY] += dt;
                match self.ladder.block_boundary() {
                    LadderDecision::Fallback => {
                        self.out.decisions.push(ForecasterKind::MovingAverage);
                    }
                    LadderDecision::Repromote => {
                        self.fallback = None;
                        if kind != self.current_kind {
                            tr.switches += 1;
                        }
                        self.current_kind = kind;
                        self.build(kind, layer);
                        self.out.decisions.push(kind);
                    }
                    LadderDecision::Healthy { .. } => {
                        if kind != self.current_kind {
                            tr.switches += 1;
                            self.current_kind = kind;
                            self.build(kind, layer);
                        }
                        self.out.decisions.push(kind);
                    }
                }
            }
        }

        let pred = self.forecast_one(tr, layer);
        let target = pred / self.utilization.clamp(0.05, 1.0);
        let pods = if target <= 0.0 {
            0
        } else {
            (target / self.concurrency_limit as f64).ceil() as usize
        };
        self.out.target_pod_sum += pods as u64;
        self.out.target_pod_max = self.out.target_pod_max.max(pods);
    }

    fn forecast_one(&mut self, tr: &mut ServeTrace, layer: &mut [u64; 3]) -> f64 {
        if self.fallback.is_none() {
            let window: &[f64] = self.history.make_contiguous();
            let forecaster = &mut self.forecaster;
            let t0 = monotonic_micros();
            let result = catch_unwind(AssertUnwindSafe(|| forecaster.forecast(window, 1)));
            let dt = monotonic_micros().saturating_sub(t0);
            layer[FORECAST] += dt;
            tr.predict_us
                .entry(self.current_kind.name())
                .or_default()
                .push(dt);
            if let Ok(out) = result {
                if out.iter().all(|v| v.is_finite()) {
                    return out[0];
                }
            }
            self.ladder.record_fault();
            self.fallback = Some(ForecasterKind::MovingAverage.build());
            self.out.decisions.push(ForecasterKind::MovingAverage);
        }
        let window: &[f64] = self.history.make_contiguous();
        let fallback = self
            .fallback
            .as_mut()
            .expect("degraded path always has a fallback installed");
        let t0 = monotonic_micros();
        let pred = fallback.forecast(window, 1)[0];
        let dt = monotonic_micros().saturating_sub(t0);
        layer[FORECAST] += dt;
        tr.predict_us
            .entry(ForecasterKind::MovingAverage.name())
            .or_default()
            .push(dt);
        pred
    }
}

/// Replays the serving loop tick-major (every app's step `t`, then
/// `t + 1`), exactly as one `femux_serve` shard does, timing each layer
/// call from outside.
///
/// # Panics
///
/// Panics if the trace is not time-sorted.
pub fn traced_replica(trace: &Trace, model: &Arc<FemuxModel>) -> ServeTrace {
    let t_start = monotonic_micros();
    let cfg = config(None);
    let feed = TraceFeed::from_trace(trace, cfg.ingest).expect("generated traces are time-sorted");
    let mut tr = ServeTrace::default();
    let mut apps: Vec<Replica> = feed
        .apps
        .iter()
        .map(|f| Replica::new(model, f.exec_secs, f.concurrency_limit, cfg.utilization))
        .collect();
    let block_len = model.cfg.block_len;
    for t in 0..feed.steps {
        let kind = usize::from(is_boundary_tick(t, block_len));
        let mut layer = [0u64; 3];
        let t0 = monotonic_micros();
        for (app, f) in apps.iter_mut().zip(&feed.apps) {
            let sample = f.samples.get(t).copied().unwrap_or(0.0);
            app.step(sample, &mut tr, &mut layer);
        }
        tr.tick_us[kind] += monotonic_micros().saturating_sub(t0);
        for (acc, v) in tr.layer_us[kind].iter_mut().zip(layer) {
            *acc += v;
        }
    }
    tr.outcomes = apps.into_iter().map(|a| a.out).collect();
    tr.wall_us = monotonic_micros().saturating_sub(t_start);
    tr
}
