//! Aquatope's LSTM-based scaling (Zhou et al., ASPLOS '23).
//!
//! Aquatope trains one LSTM per application on a 48-minute input window
//! and provisions capacity from its next-window prediction. The paper's
//! comparison (Fig. 11-Right, §5.1.1) runs the artifact with the first
//! 7 days of each test trace as training data and highlights the cost
//! profile: per-app training 4x slower and inference ~28x slower than
//! FeMux — and accuracy that adapts too slowly to bursty traffic.

use femux_forecast::lstm::{LstmConfig, LstmForecaster};
use femux_forecast::Forecaster;
use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

/// Aquatope's per-application LSTM policy.
#[derive(Debug, Clone)]
pub struct AquatopePolicy {
    lstm: LstmForecaster,
    history: usize,
}

impl AquatopePolicy {
    /// Trains a policy for one application from its per-interval arrival
    /// counts (e.g. the first 7 days). Returns the policy and the final
    /// training MSE (NaN when the series was too short to train, in
    /// which case the policy falls back to persistence).
    pub fn train(train_arrivals: &[f64], seed: u64) -> (Self, f64) {
        let mut lstm = LstmForecaster::new(LstmConfig {
            window: 48,
            hidden: 12,
            epochs: 6,
            learning_rate: 0.01,
            max_samples: 300,
            seed,
        });
        let mse = lstm.train(train_arrivals);
        femux_obs::counter_add("baselines.aquatope.lstm_trainings", 1);
        (
            AquatopePolicy {
                lstm,
                history: 48,
            },
            mse,
        )
    }
}

impl ScalingPolicy for AquatopePolicy {
    fn name(&self) -> String {
        "aquatope-lstm".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        let start = ctx.arrivals.len().saturating_sub(self.history);
        let window = &ctx.arrivals[start..];
        if window.is_empty() {
            return 0;
        }
        let predicted_arrivals = self.lstm.forecast(window, 1)[0];
        crate::pods_for_arrivals(ctx, window, predicted_arrivals)
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        let ctx = idle.ctx(i, current_pods);
        let settled = crate::settled(ctx.arrivals, self.history);
        let target = self.target_pods(&ctx);
        if !settled {
            return IdleRun { target, ticks: 1 };
        }
        // Saturated all-zero window: the (pure) LSTM sees an identical
        // input on every later tick of the stretch, so the decision
        // repeats with no state or telemetry to advance.
        IdleRun {
            target,
            ticks: max_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_sim::{simulate_app, SimConfig, ZeroPolicy};
    use femux_trace::repr::counts_per_minute;
    use femux_trace::types::{
        AppId, AppRecord, Invocation, WorkloadKind,
    };

    fn periodic_app(spans_min: u64) -> AppRecord {
        let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
        app.config.concurrency = 1;
        app.mem_used_mb = 512;
        let mut t = 60_000;
        while t < spans_min * 60_000 {
            // 3 requests every 8 minutes.
            for k in 0..3u64 {
                app.invocations.push(Invocation {
                    start_ms: t + k * 2_000,
                    duration_ms: 60_000,
                    delay_ms: 0,
                });
            }
            t += 8 * 60_000;
        }
        app
    }

    #[test]
    fn trained_policy_reduces_cold_starts_on_periodic_app() {
        let app = periodic_app(400);
        let span = 400 * 60_000u64;
        let train_series =
            counts_per_minute(&app.invocations, span / 2);
        let (mut policy, mse) = AquatopePolicy::train(&train_series, 7);
        assert!(!mse.is_nan(), "training must run");
        let cfg = SimConfig {
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let aqua = simulate_app(&app, &mut policy, span, &cfg);
        let zero = simulate_app(&app, &mut ZeroPolicy, span, &cfg);
        assert!(
            aqua.costs.cold_starts < zero.costs.cold_starts,
            "aquatope {} vs zero {}",
            aqua.costs.cold_starts,
            zero.costs.cold_starts
        );
    }

    #[test]
    fn short_training_series_degrades_gracefully() {
        let (mut policy, mse) = AquatopePolicy::train(&[1.0; 10], 7);
        assert!(mse.is_nan());
        // Policy still functions (persistence fallback inside LSTM).
        let app = periodic_app(30);
        let res = simulate_app(
            &app,
            &mut policy,
            30 * 60_000,
            &SimConfig::default(),
        );
        assert_eq!(res.costs.invocations, app.invocations.len() as u64);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the claim under test is a wall-clock cost ratio"
    )]
    fn inference_is_slower_than_lightweight_forecasters() {
        // The cost-profile claim: LSTM inference >> AR inference.
        let series: Vec<f64> = (0..300).map(|t| (t % 10) as f64).collect();
        let (mut policy, _) = AquatopePolicy::train(&series, 9);
        let mut ar = femux_forecast::ar::ArForecaster::paper();

        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            let _ = policy.lstm.forecast(&series[..120], 1);
        }
        let lstm_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        for _ in 0..20 {
            let _ = ar.forecast(&series[..120], 1);
        }
        let ar_time = t1.elapsed();
        assert!(
            lstm_time > ar_time,
            "LSTM {lstm_time:?} should cost more than AR {ar_time:?}"
        );
    }
}
