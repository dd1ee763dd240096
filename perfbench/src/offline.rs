//! The `offline` stage: the paper's §5.1 evaluation path (label, train,
//! replay the test split under FeMux and Knative's default), and its
//! traced label/train replica.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::label::{capacity_costs, strided_forecast, AppParams};
use femux::manager::FemuxPolicy;
use femux::model::{
    label_fleet, train_from_labels, Classifier, ClassifierKind, FemuxModel, LabelledBlocks,
    TrainApp,
};
use femux_classify::{assign_clusters, KMeans, StandardScaler};
use femux_features::Block;
use femux_obs::walltime::monotonic_micros;
use femux_rum::{CostRecord, RumSpec};
use femux_sim::{ScalingPolicy, SimConfig};
use femux_trace::types::{AppRecord, Trace};

use crate::engine::{knative, replay, replay_traced, Job, PolicyFactory, Replay};

/// One `label_fleet` + `train_from_labels` under the paper config.
pub struct Trained {
    /// The labelled train split (kept for the traced fidelity check).
    pub labelled: LabelledBlocks,
    /// The trained model.
    pub model: Arc<FemuxModel>,
    /// Wall time of labelling and training, µs.
    pub train_us: u64,
}

/// The test split replayed under FeMux and under Knative's default.
pub struct TestReplay {
    /// Replay under FeMux.
    pub femux: Replay,
    /// Replay under Knative's default.
    pub knative: Replay,
    /// Wall time of both replays, µs.
    pub replay_us: u64,
}

impl TestReplay {
    /// Fleet RUM of the FeMux replay ÷ that of knative-default.
    pub fn rum_ratio(&self) -> f64 {
        rum(&self.femux) / rum(&self.knative)
    }
}

/// Fleet RUM of a replay under the paper's default weights.
pub fn rum(replay: &Replay) -> f64 {
    RumSpec::default_paper().evaluate_fleet(replay.jobs.iter().map(|j| &j.costs))
}

/// The replay configuration of fig. 11: no min-scale floor, fixed
/// 808 ms cold starts.
fn sim_config() -> SimConfig {
    SimConfig {
        respect_min_scale: false,
        ..SimConfig::default()
    }
}

fn exec_secs(app: &AppRecord) -> f64 {
    app.invocations
        .first()
        .map(|i| i.duration_ms as f64 / 1_000.0)
        .unwrap_or(1.0)
}

fn femux_factory(model: &Arc<FemuxModel>) -> impl Fn(&AppRecord) -> Box<dyn ScalingPolicy> + Sync {
    let model = Arc::clone(model);
    move |app| Box::new(FemuxPolicy::new(Arc::clone(&model), exec_secs(app)))
}

fn jobs<'a>(trace: &'a Trace, mk: &'a PolicyFactory) -> Vec<Job<'a>> {
    trace.apps.iter().map(|a| (a, trace.span_ms, mk)).collect()
}

/// Labels the train split and fits the k-means router under the paper's
/// deployed configuration (`FemuxConfig::default()`: 504-step blocks,
/// 120-step history, all six forecasters).
///
/// # Panics
///
/// Panics if the train split yields no blocks.
pub fn train(train_apps: &[TrainApp]) -> Trained {
    let cfg = FemuxConfig::default();
    let t0 = monotonic_micros();
    let labelled = label_fleet(train_apps, &cfg);
    let model = train_from_labels(&labelled, &cfg, ClassifierKind::KMeans)
        .expect("the train split yields labelled blocks");
    Trained {
        train_us: monotonic_micros().saturating_sub(t0),
        labelled,
        model: Arc::new(model),
    }
}

/// Replays the test split under FeMux with `model`, then under Knative's
/// default.
pub fn replay_test(model: &Arc<FemuxModel>, test: &Trace) -> TestReplay {
    let sim = sim_config();
    let t0 = monotonic_micros();
    let mk = femux_factory(model);
    let femux = replay(&jobs(test, &mk), &sim);
    let knative = replay(&jobs(test, &knative), &sim);
    TestReplay {
        replay_us: monotonic_micros().saturating_sub(t0),
        femux,
        knative,
    }
}

/// Number of FeMux forecasters whose busy time the label pass reports.
pub const KINDS: usize = 6;

/// Per-layer busy time of the traced label + train replica, µs.
#[derive(Debug, Default)]
pub struct TrainTrace {
    /// `strided_forecast` per forecaster, in config order.
    pub strided_us: [u64; KINDS],
    /// `capacity_costs`.
    pub costs_us: u64,
    /// `features::extract_all`.
    pub extract_us: u64,
    /// `StandardScaler::fit` + `KMeans::fit`.
    pub fit_us: u64,
    /// The whole replica.
    pub total_us: u64,
    /// Whether the replica's cost records equal `label_fleet`'s.
    pub records_match: bool,
    /// Whether the replica's scaler, centroids, cluster → forecaster map
    /// and default forecaster equal `train_from_labels`'s.
    pub model_match: bool,
}

impl TrainTrace {
    /// Busy time inside named layers, µs.
    pub fn attributed_us(&self) -> u64 {
        self.strided_us.iter().sum::<u64>() + self.costs_us + self.extract_us + self.fit_us
    }
}

/// Replays `label_fleet` + `train_from_labels` on the calling thread
/// through the layers' public calls, timing each from outside, and
/// checks the result against the untraced [`train`]'s.
pub fn traced_train(train_apps: &[TrainApp], reference: &Trained) -> TrainTrace {
    let cfg = FemuxConfig::default();
    assert_eq!(cfg.forecasters.len(), KINDS, "paper config has six kinds");
    let mut tr = TrainTrace::default();
    let t_start = monotonic_micros();
    let mut blocks = Vec::new();
    let mut rum_costs = Vec::new();
    let mut records: Vec<Vec<CostRecord>> = Vec::new();
    for (ai, app) in train_apps.iter().enumerate() {
        let series = &app.concurrency;
        if series.len() < cfg.history + cfg.block_len {
            continue;
        }
        let params = AppParams {
            mem_gb: app.mem_gb,
            pod_concurrency: app.pod_concurrency.max(1) as f64,
            exec_secs: app.exec_secs,
            step_secs: 60.0,
            cold_start_secs: cfg.cold_start_secs,
        };
        let n_blocks = (series.len() - cfg.history) / cfg.block_len;
        let actual = &series[cfg.history..cfg.history + n_blocks * cfg.block_len];
        let mut per_block: Vec<Vec<CostRecord>> = vec![Vec::with_capacity(KINDS); n_blocks];
        for (k, &kind) in cfg.forecasters.iter().enumerate() {
            let t0 = monotonic_micros();
            let forecast = strided_forecast(kind, series, cfg.history, cfg.label_stride);
            tr.strided_us[k] += monotonic_micros().saturating_sub(t0);
            for (b, row) in per_block.iter_mut().enumerate() {
                let (lo, hi) = (b * cfg.block_len, (b + 1) * cfg.block_len);
                let t0 = monotonic_micros();
                let rec = capacity_costs(&forecast[lo..hi], &actual[lo..hi], &params);
                tr.costs_us += monotonic_micros().saturating_sub(t0);
                row.push(rec);
            }
        }
        for (b, row) in per_block.into_iter().enumerate() {
            let lo = cfg.history + b * cfg.block_len;
            blocks.push(Block {
                app_index: ai,
                seq: b,
                series: series[lo..lo + cfg.block_len].to_vec(),
                exec_secs: app.exec_secs,
            });
            rum_costs.push(
                row.iter()
                    .map(|c| cfg.rum.evaluate(c))
                    .collect::<Vec<f64>>(),
            );
            records.push(row);
        }
    }
    tr.records_match = records == reference.labelled.cost_records;

    let t0 = monotonic_micros();
    let rows = femux_features::extract_all(&blocks, &cfg.features);
    tr.extract_us = monotonic_micros().saturating_sub(t0);
    let t0 = monotonic_micros();
    let scaler = StandardScaler::fit(&rows);
    tr.fit_us += monotonic_micros().saturating_sub(t0);
    let scaled = scaler.transform(&rows);
    let t0 = monotonic_micros();
    let kmeans = KMeans::fit(&scaled, &cfg.kmeans);
    tr.fit_us += monotonic_micros().saturating_sub(t0);
    let assignments = kmeans.predict_all(&scaled);
    let (per_cluster, _) = assign_clusters(&assignments, &rum_costs, kmeans.k());
    let forecasters: Vec<_> = per_cluster.iter().map(|&i| cfg.forecasters[i]).collect();
    let mut totals = [0.0; KINDS];
    for row in &rum_costs {
        for (t, &c) in totals.iter_mut().zip(row) {
            *t += c;
        }
    }
    let default_idx = totals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i);
    tr.total_us = monotonic_micros().saturating_sub(t_start);

    let model = &reference.model;
    tr.model_match = model.scaler == scaler
        && model.default_forecaster == cfg.forecasters[default_idx]
        && matches!(
            &model.classifier,
            Classifier::KMeans { kmeans: k, cluster_forecasters: f }
                if *k == kmeans && *f == forecasters
        );
    tr
}

/// [`replay_test`] on the calling thread with each policy wrapped in the
/// timing wrapper; `replay_us` is the wrapped runs' time.
pub fn traced_replay(model: &Arc<FemuxModel>, test: &Trace) -> TestReplay {
    let sim = sim_config();
    let mk = femux_factory(model);
    let femux = replay_traced(&jobs(test, &mk), &sim);
    let knative = replay_traced(&jobs(test, &knative), &sim);
    TestReplay {
        replay_us: femux.wall_us + knative.wall_us,
        femux,
        knative,
    }
}
