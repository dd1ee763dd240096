//! FeMux ⟷ Knative Serving integration (§5.2, Fig. 13).
//!
//! In the prototype, FeMux runs as a microservice that intercepts the
//! per-second concurrency metrics flowing from the queue-proxies to the
//! Autoscaler. The FeMux API batches them into per-minute averages,
//! routes each application's series to its forecasting thread, and
//! returns a predictive scaling target that *overrides* Knative's
//! reactive decision; the override is held for one minute (the forecast
//! horizon).
//!
//! [`FemuxKnativePolicy`] reproduces that control flow on the simulator:
//! it runs at the KPA's 2-second tick, accumulates 30 ticks into a
//! minute sample, refreshes the forecast each minute, and otherwise
//! falls back to the reactive KPA when no forecast exists yet (an app
//! must first accumulate history).

use std::sync::Arc;

use femux::manager::AppManager;
use femux::model::FemuxModel;
use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

use crate::kpa::{KpaConfig, KpaPolicy};

/// FeMux integrated into the Knative autoscaler path.
pub struct FemuxKnativePolicy {
    manager: AppManager,
    kpa: KpaPolicy,
    ticks_per_minute: usize,
    ticks_seen: usize,
    /// Scaling target from the last forecast, held for one minute.
    held_target_conc: Option<f64>,
    /// The autoscaler's per-pod utilization target (Knative default
    /// 0.7): FeMux supplies a concurrency estimate and the Autoscaler
    /// converts it to pods exactly as it does for its own reactive
    /// estimate.
    target_utilization: f64,
}

impl FemuxKnativePolicy {
    /// Creates the integrated policy for one application.
    pub fn new(model: Arc<FemuxModel>, exec_secs: f64) -> Self {
        let kpa_cfg = KpaConfig::default();
        let ticks_per_minute =
            (60_000 / kpa_cfg.tick_ms).max(1) as usize;
        let target_utilization = kpa_cfg.target_utilization;
        FemuxKnativePolicy {
            manager: AppManager::new(model, exec_secs),
            kpa: KpaPolicy::new(kpa_cfg),
            ticks_per_minute,
            ticks_seen: 0,
            held_target_conc: None,
            target_utilization,
        }
    }

    /// Access to the underlying manager (switching statistics).
    pub fn manager(&self) -> &AppManager {
        &self.manager
    }
}

impl ScalingPolicy for FemuxKnativePolicy {
    fn name(&self) -> String {
        "femux-knative".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        // The metrics collector forwards concurrency every tick; the
        // FeMux API batches a minute's worth into one observation.
        let total_ticks = ctx.avg_concurrency.len();
        while self.ticks_seen + self.ticks_per_minute <= total_ticks {
            let lo = self.ticks_seen;
            let hi = lo + self.ticks_per_minute;
            let minute_avg = ctx.avg_concurrency[lo..hi]
                .iter()
                .sum::<f64>()
                / self.ticks_per_minute as f64;
            self.manager.observe(minute_avg);
            self.ticks_seen = hi;
            // Fresh forecast each completed minute, held until the next.
            femux_obs::counter_add("knative.femux.minute_batches", 1);
            let t0 = femux_obs::walltime::monotonic_micros();
            self.held_target_conc = Some(self.manager.forecast(1)[0]);
            femux_obs::walltime::record_elapsed(
                "wall.knative.forecast_us",
                t0,
            );
        }
        let reactive = self.kpa.target_pods(ctx);
        match self.held_target_conc {
            Some(conc) => {
                let predictive = ctx.pods_for_concurrency(
                    conc / self.target_utilization,
                );
                // The activator still covers instantaneous demand: never
                // provision below what is in flight right now.
                let floor =
                    ctx.pods_for_concurrency(ctx.inflight as f64);
                predictive.max(floor)
            }
            None => reactive,
        }
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        let total_ticks = ctx.avg_concurrency.len();
        // A minute batch fires this tick (observe + fresh forecast):
        // full per-tick semantics.
        if self.ticks_seen + self.ticks_per_minute <= total_ticks {
            return IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            };
        }
        let to_batch = (self.ticks_seen + self.ticks_per_minute
            - total_ticks) as u64;
        let cap = max_ticks.min(to_batch);
        if cap <= 1
            || !self.kpa.stable_window_all_zero(ctx.avg_concurrency)
            || !self.kpa.settled_for_zero(ctx.now_ms)
        {
            return IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            };
        }
        // No minute boundary inside the run and the KPA sits in its
        // settled scale-to-zero fixed point, so every per-tick decision
        // is the held predictive target (or the reactive 0). The run is
        // only taken when pods already sit at the engine-applied floor,
        // making each skipped tick's inputs identical and the pod
        // trajectory rate-limit-immune.
        let target = match self.held_target_conc {
            Some(conc) => ctx
                .pods_for_concurrency(conc / self.target_utilization),
            None => 0,
        };
        if current_pods != target.max(idle.min_pods) {
            return IdleRun {
                target: self.target_pods(&ctx),
                ticks: 1,
            };
        }
        self.kpa.skip_settled_ticks(cap, current_pods);
        IdleRun { target, ticks: cap }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use femux::config::FemuxConfig;
    use femux::model::{train, ClassifierKind, TrainApp};
    use femux_sim::{simulate_app, SimConfig};
    use femux_trace::types::{
        AppId, AppRecord, Invocation, WorkloadKind,
    };

    /// A small trained model (60-step blocks, 30-step history), shared
    /// with the state-store tests.
    pub(crate) fn trained_model() -> Arc<FemuxModel> {
        let cfg = FemuxConfig {
            block_len: 60,
            history: 30,
            label_stride: 10,
            ..FemuxConfig::for_tests()
        };
        let apps: Vec<TrainApp> = (0..4)
            .map(|i| TrainApp {
                concurrency: (0..400)
                    .map(|t| {
                        2.0 + ((t + i * 7) as f64 * 0.26).sin().max(-1.0)
                    })
                    .collect(),
                exec_secs: 0.5,
                mem_gb: 0.25,
                pod_concurrency: 10,
            })
            .collect();
        Arc::new(
            train(&apps, &cfg, ClassifierKind::KMeans).expect("model"),
        )
    }

    fn periodic_app(minutes: u64) -> AppRecord {
        let mut a = AppRecord::new(AppId(0), WorkloadKind::Application);
        a.config.concurrency = 10;
        a.mem_used_mb = 256;
        // 2-minute period: one busy minute (10 rps, 1 s exec), one idle.
        for m in 0..minutes {
            if m % 2 == 0 {
                for k in 0..600u64 {
                    a.invocations.push(Invocation {
                        start_ms: m * 60_000 + k * 100,
                        duration_ms: 1_000,
                        delay_ms: 0,
                    });
                }
            }
        }
        a
    }

    #[test]
    fn integrated_policy_runs_and_accounts() {
        let model = trained_model();
        let app = periodic_app(30);
        let cfg = SimConfig {
            interval_ms: 2_000,
            ..SimConfig::default()
        };
        let mut policy = FemuxKnativePolicy::new(model, 1.0);
        let res = simulate_app(&app, &mut policy, 30 * 60_000, &cfg);
        res.costs.check().expect("consistent");
        assert_eq!(
            res.costs.invocations,
            app.invocations.len() as u64
        );
    }

    #[test]
    fn predictive_override_beats_reactive_on_periodic_load() {
        let model = trained_model();
        let app = periodic_app(60);
        let span = 60 * 60_000u64;
        let cfg = SimConfig {
            interval_ms: 2_000,
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let mut femux_policy =
            FemuxKnativePolicy::new(model, 1.0);
        let femux_res =
            simulate_app(&app, &mut femux_policy, span, &cfg);
        let mut kpa = KpaPolicy::new(KpaConfig::default());
        let kpa_res = simulate_app(&app, &mut kpa, span, &cfg);
        assert!(
            femux_res.costs.cold_starts <= kpa_res.costs.cold_starts,
            "femux {} vs kpa {} cold starts",
            femux_res.costs.cold_starts,
            kpa_res.costs.cold_starts
        );
    }

    #[test]
    fn falls_back_to_kpa_before_first_minute() {
        let model = trained_model();
        let mut policy = FemuxKnativePolicy::new(model, 1.0);
        let config = femux_trace::AppConfig {
            concurrency: 10,
            ..Default::default()
        };
        // Only 5 ticks of history: no complete minute yet.
        let hist = vec![3.0; 5];
        let ctx = PolicyCtx {
            now_ms: 10_000,
            interval_ms: 2_000,
            avg_concurrency: &hist,
            peak_concurrency: &hist,
            arrivals: &hist,
            config: &config,
            current_pods: 1,
            inflight: 3,
        };
        let target = policy.target_pods(&ctx);
        assert!(target >= 1, "reactive fallback should provision");
    }
}
