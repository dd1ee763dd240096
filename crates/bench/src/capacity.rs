//! Capacity-model evaluation of policies over the test split.
//!
//! The paper's §5.1 simulations (and its public artifact) evaluate
//! lifetime policies on the *average-concurrency capacity model*: per
//! minute, a policy provisions pods; shortfalls are reactive pod cold
//! starts, idle capacity is waste. This module runs FeMux and
//! single-forecaster deployments through exactly the cost model used to
//! label training blocks, keeping training and evaluation aligned (the
//! point of RUM).

use std::sync::Arc;

use femux::label::{capacity_costs, strided_forecast, AppParams};
use femux::manager::AppManager;
use femux::model::{FemuxModel, TrainApp};
use femux_forecast::ForecasterKind;
use femux_rum::CostRecord;

/// Evaluates one application under a fixed single forecaster.
pub fn eval_single_forecaster(
    app: &TrainApp,
    kind: ForecasterKind,
    history: usize,
    stride: usize,
    cold_start_secs: f64,
) -> CostRecord {
    let params = AppParams {
        mem_gb: app.mem_gb,
        pod_concurrency: app.pod_concurrency.max(1) as f64,
        exec_secs: app.exec_secs,
        step_secs: 60.0,
        cold_start_secs,
    };
    if app.concurrency.len() <= history {
        return CostRecord::default();
    }
    let forecast =
        strided_forecast(kind, &app.concurrency, history, stride);
    capacity_costs(&forecast, &app.concurrency[history..], &params)
}

/// Evaluates one application under the full FeMux manager (block
/// classification + forecaster switching), one step at a time.
pub fn eval_femux(
    app: &TrainApp,
    model: &Arc<FemuxModel>,
    cold_start_secs: f64,
) -> CostRecord {
    let params = AppParams {
        mem_gb: app.mem_gb,
        pod_concurrency: app.pod_concurrency.max(1) as f64,
        exec_secs: app.exec_secs,
        step_secs: 60.0,
        cold_start_secs,
    };
    let history = model.cfg.history;
    if app.concurrency.len() <= history {
        return CostRecord::default();
    }
    let mut manager = AppManager::new(model.clone(), app.exec_secs);
    let mut forecast = Vec::with_capacity(app.concurrency.len() - history);
    for (t, &v) in app.concurrency.iter().enumerate() {
        if t >= history {
            forecast.push(manager.forecast(1)[0]);
        }
        manager.observe(v);
    }
    capacity_costs(&forecast, &app.concurrency[history..], &params)
}

/// Evaluates a whole test split under FeMux, returning per-app records.
///
/// Applications are independent, so the sweep fans out across
/// `FEMUX_THREADS` workers; records come back in app order regardless
/// of thread count.
pub fn eval_femux_fleet(
    apps: &[TrainApp],
    model: &Arc<FemuxModel>,
    cold_start_secs: f64,
) -> Vec<CostRecord> {
    femux_par::par_map(apps, |_, a| eval_femux(a, model, cold_start_secs))
}

/// Evaluates a whole test split under a single forecaster (parallel
/// over apps, app-ordered output).
pub fn eval_forecaster_fleet(
    apps: &[TrainApp],
    kind: ForecasterKind,
    history: usize,
    stride: usize,
    cold_start_secs: f64,
) -> Vec<CostRecord> {
    femux_par::par_map(apps, |_, a| {
        eval_single_forecaster(a, kind, history, stride, cold_start_secs)
    })
}

/// A keep-alive policy on the capacity model: provisions the peak
/// concurrency of the trailing `window` steps (and therefore never pays
/// a cold start while the window has traffic).
pub fn eval_keepalive(
    app: &TrainApp,
    window: usize,
    history: usize,
    cold_start_secs: f64,
) -> CostRecord {
    let params = AppParams {
        mem_gb: app.mem_gb,
        pod_concurrency: app.pod_concurrency.max(1) as f64,
        exec_secs: app.exec_secs,
        step_secs: 60.0,
        cold_start_secs,
    };
    if app.concurrency.len() <= history {
        return CostRecord::default();
    }
    let forecast: Vec<f64> = (history..app.concurrency.len())
        .map(|t| {
            let lo = t.saturating_sub(window);
            app.concurrency[lo..t]
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
        })
        .collect();
    capacity_costs(&forecast, &app.concurrency[history..], &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux::config::FemuxConfig;
    use femux::model::{train, ClassifierKind};

    fn periodic_app(len: usize) -> TrainApp {
        TrainApp {
            concurrency: (0..len)
                .map(|t| {
                    3.0 + 2.0
                        * (2.0 * std::f64::consts::PI * t as f64 / 30.0)
                            .sin()
                })
                .collect(),
            exec_secs: 0.5,
            mem_gb: 0.25,
            pod_concurrency: 1,
        }
    }

    #[test]
    fn femux_eval_matches_label_model_for_default_forecaster() {
        // With a single-forecaster "set", FeMux must reproduce the
        // single-forecaster evaluation exactly (same cost model).
        let cfg = FemuxConfig {
            block_len: 120,
            history: 60,
            label_stride: 1,
            forecasters: vec![ForecasterKind::Ses],
            ..FemuxConfig::for_tests()
        };
        let apps = vec![periodic_app(600)];
        let model = Arc::new(
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
        );
        let femux_costs = eval_femux(&apps[0], &model, 0.808);
        let single = eval_single_forecaster(
            &apps[0],
            ForecasterKind::Ses,
            cfg.history,
            1,
            0.808,
        );
        assert!(
            (femux_costs.cold_start_seconds - single.cold_start_seconds)
                .abs()
                < 1e-9
        );
        assert!(
            (femux_costs.wasted_gb_seconds - single.wasted_gb_seconds)
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn fleet_records_are_identical_at_any_thread_count() {
        // Both fleet sweeps fan out through `par_map`, so their records
        // must not depend on the worker count. The first app is the
        // longest: run in parallel, it finishes last.
        let cfg = FemuxConfig::for_tests();
        let apps: Vec<TrainApp> = (0..6)
            .map(|i| {
                let mut app = periodic_app(if i == 0 { 1_800 } else { 480 });
                for (t, v) in app.concurrency.iter_mut().enumerate() {
                    *v *= 1.0 + 0.1 * ((t * (i + 3)) % 7) as f64;
                }
                app
            })
            .collect();
        let model = Arc::new(
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
        );
        let records = |threads: usize| {
            let _threads = femux_par::override_threads(threads);
            let single: Vec<Vec<CostRecord>> = cfg
                .forecasters
                .iter()
                .map(|&kind| {
                    eval_forecaster_fleet(
                        &apps,
                        kind,
                        cfg.history,
                        cfg.label_stride,
                        0.808,
                    )
                })
                .collect();
            let femux = eval_femux_fleet(&apps, &model, 0.808);
            format!("{:?}", (single, femux))
        };
        assert_eq!(records(1), records(8));
    }

    #[test]
    fn keepalive_peak_has_few_cold_starts() {
        let app = periodic_app(600);
        let ka = eval_keepalive(&app, 10, 60, 0.808);
        let naive = eval_single_forecaster(
            &app,
            ForecasterKind::Naive,
            60,
            1,
            0.808,
        );
        assert!(ka.cold_starts <= naive.cold_starts);
        assert!(ka.wasted_gb_seconds >= naive.wasted_gb_seconds * 0.5);
    }

    #[test]
    fn short_apps_yield_empty_records() {
        let app = TrainApp {
            concurrency: vec![1.0; 10],
            exec_secs: 1.0,
            mem_gb: 1.0,
            pod_concurrency: 1,
        };
        let c = eval_single_forecaster(
            &app,
            ForecasterKind::Naive,
            60,
            1,
            0.808,
        );
        assert_eq!(c, CostRecord::default());
    }
}
