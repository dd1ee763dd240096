//! The trained FeMux model and its offline training pipeline (§4.3.4).
//!
//! Training: for every training application, split its concurrency
//! series into blocks, label each block with the RUM cost of serving it
//! under each candidate forecaster ([`crate::label`]), extract block
//! features, standardize, cluster with k-means, and assign each cluster
//! the forecaster with the lowest summed RUM over its member blocks. The
//! forecaster with the lowest total RUM becomes the default used before
//! an app has completed its first block.
//!
//! Training extracts each block's features with the same
//! [`femux_features::IncrementalExtractor`] that
//! [`crate::manager::AppManager`] runs online: the rows the router is
//! trained on and the rows it routes are one computation.

use femux_classify::{assign_clusters, KMeans, StandardScaler};
use femux_features::Block;
use femux_forecast::ForecasterKind;
use femux_rum::CostRecord;

use crate::config::FemuxConfig;
use crate::label::{label_app_blocks, AppParams};

/// One training application.
#[derive(Debug, Clone)]
pub struct TrainApp {
    /// Per-step (per-minute) average concurrency.
    pub concurrency: Vec<f64>,
    /// Mean execution time, seconds.
    pub exec_secs: f64,
    /// Pod memory, GB.
    pub mem_gb: f64,
    /// Per-pod concurrency limit.
    pub pod_concurrency: u32,
}

/// The classifier backing a FeMux model.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// K-means clusters with a per-cluster forecaster (FeMux's choice).
    KMeans {
        /// Fitted clustering.
        kmeans: KMeans,
        /// Forecaster per cluster.
        cluster_forecasters: Vec<ForecasterKind>,
    },
}

/// A trained FeMux model.
#[derive(Debug, Clone)]
pub struct FemuxModel {
    /// Configuration it was trained with.
    pub cfg: FemuxConfig,
    /// Fitted feature scaler.
    pub scaler: StandardScaler,
    /// The classifier.
    pub classifier: Classifier,
    /// Default forecaster (lowest total RUM) for unclassifiable blocks.
    pub default_forecaster: ForecasterKind,
    /// Training diagnostics.
    pub stats: TrainStats,
}

/// Diagnostics from the training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Number of labelled blocks.
    pub n_blocks: usize,
    /// Number of training applications that produced blocks.
    pub n_apps: usize,
    /// Wall-clock spent labelling (forecast simulation), seconds.
    pub labelling_secs: f64,
    /// Wall-clock spent on feature extraction, seconds.
    pub feature_secs: f64,
    /// Wall-clock spent fitting the classifier, seconds.
    pub fit_secs: f64,
    /// Total RUM of each forecaster over all blocks, aligned with the
    /// config's forecaster list.
    pub forecaster_totals: Vec<f64>,
}

/// Which classifier to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierKind {
    /// K-means clustering (the FeMux design).
    KMeans,
}

/// Intermediate labelled training data, exposed so experiments can reuse
/// one (expensive) labelling pass across several classifier fits.
#[derive(Debug, Clone)]
pub struct LabelledBlocks {
    /// The blocks.
    pub blocks: Vec<Block>,
    /// `rum_costs[i][f]`: RUM of block `i` under forecaster `f`.
    pub rum_costs: Vec<Vec<f64>>,
    /// Raw cost records per block per forecaster.
    pub cost_records: Vec<Vec<CostRecord>>,
    /// Labelling wall-clock, seconds.
    pub labelling_secs: f64,
}

/// Labels every block of the training fleet.
///
/// Applications are labelled in parallel (each app's per-forecaster
/// `strided_forecast` + `capacity_costs` is an independent unit) and the
/// per-app results are concatenated in fleet order, so the output is
/// identical for every `FEMUX_THREADS` setting. Cost rows are *moved*
/// into `cost_records` rather than cloned, halving peak labelling
/// memory on large fleets.
pub fn label_fleet(
    apps: &[TrainApp],
    cfg: &FemuxConfig,
) -> LabelledBlocks {
    let t0 = femux_obs::walltime::monotonic_micros();
    femux_obs::counter_add("core.label_fleet.calls", 1);
    femux_obs::counter_add("core.label_fleet.apps", apps.len() as u64);
    type AppLabels = (Vec<Block>, Vec<Vec<f64>>, Vec<Vec<CostRecord>>);
    let per_app: Vec<AppLabels> = femux_par::par_map(apps, |ai, app| {
        let params = AppParams {
            mem_gb: app.mem_gb,
            pod_concurrency: app.pod_concurrency.max(1) as f64,
            exec_secs: app.exec_secs,
            step_secs: 60.0,
            cold_start_secs: cfg.cold_start_secs,
        };
        let labels = label_app_blocks(
            &app.concurrency,
            cfg.block_len,
            cfg.history,
            cfg.label_stride,
            &cfg.forecasters,
            &params,
        );
        let mut blocks = Vec::with_capacity(labels.len());
        let mut rum_costs = Vec::with_capacity(labels.len());
        let mut cost_records = Vec::with_capacity(labels.len());
        for (b, row) in labels.into_iter().enumerate() {
            let lo = cfg.history + b * cfg.block_len;
            blocks.push(Block {
                app_index: ai,
                seq: b,
                series: app.concurrency[lo..lo + cfg.block_len].to_vec(),
                exec_secs: app.exec_secs,
            });
            rum_costs.push(
                row.iter().map(|c| cfg.rum.evaluate(c)).collect(),
            );
            cost_records.push(row);
        }
        (blocks, rum_costs, cost_records)
    });
    let mut blocks = Vec::new();
    let mut rum_costs = Vec::new();
    let mut cost_records = Vec::new();
    for (app_blocks, app_rums, app_records) in per_app {
        blocks.extend(app_blocks);
        rum_costs.extend(app_rums);
        cost_records.extend(app_records);
    }
    femux_obs::counter_add(
        "core.label_fleet.blocks",
        blocks.len() as u64,
    );
    femux_obs::walltime::record_elapsed("wall.core.label_fleet_us", t0);
    LabelledBlocks {
        blocks,
        rum_costs,
        cost_records,
        labelling_secs: femux_obs::walltime::elapsed_secs(t0),
    }
}

/// Trains a FeMux model from pre-labelled blocks.
///
/// Returns `None` when there are no blocks to train on (callers should
/// fall back to a single-forecaster deployment).
pub fn train_from_labels(
    labelled: &LabelledBlocks,
    cfg: &FemuxConfig,
    kind: ClassifierKind,
) -> Option<FemuxModel> {
    if labelled.blocks.is_empty() {
        return None;
    }
    let tf = femux_obs::walltime::monotonic_micros();
    let rows = femux_features::extract_all(&labelled.blocks, &cfg.features);
    let feature_secs = femux_obs::walltime::elapsed_secs(tf);
    femux_obs::walltime::record_elapsed("wall.core.extract_all_us", tf);
    let scaler = StandardScaler::fit(&rows);
    let scaled = scaler.transform(&rows);

    let n_forecasters = cfg.forecasters.len();
    let mut forecaster_totals = vec![0.0; n_forecasters];
    for row in &labelled.rum_costs {
        for (t, &c) in forecaster_totals.iter_mut().zip(row) {
            *t += c;
        }
    }
    let default_idx = argmin(&forecaster_totals);

    let t1 = femux_obs::walltime::monotonic_micros();
    femux_obs::counter_add("core.train.fits", 1);
    femux_obs::counter_add(
        "core.train.blocks",
        labelled.blocks.len() as u64,
    );
    let classifier = match kind {
        ClassifierKind::KMeans => {
            let kmeans = KMeans::fit(&scaled, &cfg.kmeans);
            let assignments = kmeans.predict_all(&scaled);
            let (per_cluster, _) = assign_clusters(
                &assignments,
                &labelled.rum_costs,
                kmeans.k(),
            );
            Classifier::KMeans {
                kmeans,
                cluster_forecasters: per_cluster
                    .iter()
                    .map(|&i| cfg.forecasters[i])
                    .collect(),
            }
        }
    };
    let fit_secs = femux_obs::walltime::elapsed_secs(t1);
    femux_obs::walltime::record_elapsed("wall.core.classifier_fit_us", t1);

    Some(FemuxModel {
        cfg: cfg.clone(),
        scaler,
        classifier,
        default_forecaster: cfg.forecasters[default_idx],
        stats: TrainStats {
            n_blocks: labelled.blocks.len(),
            n_apps: labelled
                .blocks
                .iter()
                .map(|b| b.app_index)
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            labelling_secs: labelled.labelling_secs,
            feature_secs,
            fit_secs,
            forecaster_totals,
        },
    })
}

/// Full pipeline: label, extract, fit.
pub fn train(
    apps: &[TrainApp],
    cfg: &FemuxConfig,
    kind: ClassifierKind,
) -> Option<FemuxModel> {
    let labelled = label_fleet(apps, cfg);
    train_from_labels(&labelled, cfg, kind)
}

fn argmin(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("costs are finite"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl FemuxModel {
    /// Selects the forecaster for a completed block from its raw,
    /// unscaled feature row and idle verdict
    /// ([`femux_features::BlockFeatures`]). Idle blocks route to the
    /// default forecaster without classification.
    pub fn select_from_features(
        &self,
        features: &[f64],
        idle: bool,
    ) -> ForecasterKind {
        if idle {
            return self.default_forecaster;
        }
        let mut feats = features.to_vec();
        self.scaler.transform_row(&mut feats);
        let Classifier::KMeans {
            kmeans,
            cluster_forecasters,
        } = &self.classifier;
        let cluster = kmeans.predict(&feats);
        cluster_forecasters
            .get(cluster)
            .copied()
            .unwrap_or(self.default_forecaster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_features::extract;
    use femux_stats::rng::Rng;

    /// A fleet whose apps are either strongly periodic (FFT territory)
    /// or noisy-stationary (AR/SES territory).
    fn mixed_fleet(n: usize, len: usize, seed: u64) -> Vec<TrainApp> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let series: Vec<f64> = if i % 2 == 0 {
                    (0..len)
                        .map(|t| {
                            5.0 + 4.0
                                * (2.0 * std::f64::consts::PI * t as f64
                                    / 24.0)
                                    .sin()
                        })
                        .collect()
                } else {
                    (0..len)
                        .map(|_| (2.0 + rng.normal()).max(0.0))
                        .collect()
                };
                TrainApp {
                    concurrency: series,
                    exec_secs: 0.5,
                    mem_gb: 0.5,
                    pod_concurrency: 1,
                }
            })
            .collect()
    }

    #[test]
    fn training_produces_model() {
        let cfg = FemuxConfig::for_tests();
        let apps = mixed_fleet(6, 600, 1);
        let model =
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model");
        assert!(model.stats.n_blocks > 0);
        assert_eq!(model.stats.n_apps, 6);
        assert_eq!(
            model.stats.forecaster_totals.len(),
            cfg.forecasters.len()
        );
    }

    #[test]
    fn periodic_blocks_route_to_their_best_forecaster() {
        let cfg = FemuxConfig::for_tests();
        let apps = mixed_fleet(8, 600, 2);
        let labelled = label_fleet(&apps, &cfg);
        let model = train_from_labels(&labelled, &cfg, ClassifierKind::KMeans)
            .expect("model");
        // The forecaster with the lowest total RUM over the *periodic*
        // training blocks (apps with even index) is the right answer for
        // a fresh periodic block.
        let mut totals = vec![0.0; cfg.forecasters.len()];
        for (block, costs) in
            labelled.blocks.iter().zip(&labelled.rum_costs)
        {
            if block.app_index % 2 == 0 {
                for (t, &c) in totals.iter_mut().zip(costs) {
                    *t += c;
                }
            }
        }
        let best = cfg.forecasters[super::argmin(&totals)];
        let block = Block {
            app_index: 0,
            seq: 0,
            series: (0..cfg.block_len)
                .map(|t| {
                    5.0 + 4.0
                        * (2.0 * std::f64::consts::PI * t as f64 / 24.0)
                            .sin()
                })
                .collect(),
            exec_secs: 0.5,
        };
        let row = extract(&block, &cfg.features);
        let chosen = model.select_from_features(&row.features, row.idle);
        assert_eq!(
            chosen, best,
            "periodic block should route to the periodic cluster's best"
        );
    }

    #[test]
    fn idle_block_uses_default() {
        let cfg = FemuxConfig::for_tests();
        let apps = mixed_fleet(4, 600, 3);
        let model =
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model");
        let idle = Block {
            app_index: 0,
            seq: 0,
            series: vec![0.0; cfg.block_len],
            exec_secs: 0.5,
        };
        let row = extract(&idle, &cfg.features);
        assert!(row.idle);
        assert_eq!(
            model.select_from_features(&row.features, row.idle),
            model.default_forecaster
        );
    }

    #[test]
    fn empty_fleet_returns_none() {
        let cfg = FemuxConfig::for_tests();
        assert!(train(&[], &cfg, ClassifierKind::KMeans).is_none());
        // Apps too short for a single block also yield none.
        let short = vec![TrainApp {
            concurrency: vec![1.0; 50],
            exec_secs: 1.0,
            mem_gb: 1.0,
            pod_concurrency: 1,
        }];
        assert!(train(&short, &cfg, ClassifierKind::KMeans).is_none());
    }

    #[test]
    fn default_forecaster_minimizes_total_rum() {
        let cfg = FemuxConfig::for_tests();
        let apps = mixed_fleet(6, 600, 5);
        let model =
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model");
        let idx = cfg
            .forecasters
            .iter()
            .position(|k| *k == model.default_forecaster)
            .expect("default comes from the set");
        let min = model
            .stats
            .forecaster_totals
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (model.stats.forecaster_totals[idx] - min).abs() < 1e-9
        );
    }
}
