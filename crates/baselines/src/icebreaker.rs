//! IceBreaker's adaptive lifetime policy (Roy et al., ASPLOS '22).
//!
//! IceBreaker forecasts invocations-per-minute with a single FFT model
//! and keeps that much capacity warm. The paper compares against
//! IceBreaker's *lifetime policy only*, assuming homogeneous resources
//! (§5.1.1), using service times and keep-alive cost normalized to a
//! 10-minute keep-alive — and attributes IceBreaker's losses to the
//! single-forecaster design: FFT "often forecasts zero" for low-traffic
//! apps and mis-tracks highly variable ones.

use femux_forecast::fft::FftForecaster;
use femux_forecast::Forecaster;
use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

/// IceBreaker's FFT-driven scaling policy.
///
/// Forecasts next-interval arrivals from the trailing window of
/// per-interval counts, then converts to pods using the observed
/// execution-time ratio (`avg_concurrency / arrivals`) — IceBreaker's
/// invocation-count representation mapped onto our pod model.
pub struct IceBreakerPolicy {
    fft: FftForecaster,
    history: usize,
}

impl IceBreakerPolicy {
    /// Creates the policy with the paper's configuration (top-10
    /// harmonics, two-hour history).
    pub fn new() -> Self {
        IceBreakerPolicy {
            fft: FftForecaster::paper(),
            history: 120,
        }
    }
}

impl Default for IceBreakerPolicy {
    fn default() -> Self {
        IceBreakerPolicy::new()
    }
}

impl ScalingPolicy for IceBreakerPolicy {
    fn name(&self) -> String {
        "icebreaker-fft".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        let start = ctx.arrivals.len().saturating_sub(self.history);
        let window = &ctx.arrivals[start..];
        if window.is_empty() {
            return 0;
        }
        let predicted_arrivals = self.fft.forecast(window, 1)[0];
        femux_obs::counter_add("baselines.icebreaker.fft_forecasts", 1);
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
            // The forecast window is still growing or still contains
            // live samples: each tick feeds the FFT a different input.
            return IdleRun { target, ticks: 1 };
        }
        // Saturated all-zero window: every later tick of the stretch
        // hands the (pure) FFT a byte-identical window, so the decision
        // repeats and only the forecast counter advances.
        femux_obs::counter_add(
            "baselines.icebreaker.fft_forecasts",
            max_ticks - 1,
        );
        IdleRun {
            target,
            ticks: max_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_sim::{run_fleet, simulate_app, SimConfig, ZeroPolicy};
    use femux_trace::synth::ibm::{generate, IbmFleetConfig};
    use femux_trace::types::{
        AppId, AppRecord, Invocation, WorkloadKind,
    };

    fn periodic_app(period_min: u64, spans_min: u64) -> AppRecord {
        let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
        app.config.concurrency = 1;
        app.mem_used_mb = 512;
        // A burst of 5 requests every `period_min` minutes.
        let mut t = 120_000;
        while t < spans_min * 60_000 {
            for k in 0..5u64 {
                app.invocations.push(Invocation {
                    start_ms: t + k * 1_000,
                    duration_ms: 30_000,
                    delay_ms: 0,
                });
            }
            t += period_min * 60_000;
        }
        app
    }

    #[test]
    fn fft_policy_beats_zero_on_periodic_traffic() {
        let app = periodic_app(10, 600);
        let span = 600 * 60_000;
        let cfg = SimConfig {
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let mut ib = IceBreakerPolicy::new();
        let ice = simulate_app(&app, &mut ib, span, &cfg);
        let mut zero = ZeroPolicy;
        let none = simulate_app(&app, &mut zero, span, &cfg);
        assert!(
            ice.costs.cold_starts < none.costs.cold_starts,
            "icebreaker {} vs zero {}",
            ice.costs.cold_starts,
            none.costs.cold_starts
        );
    }

    #[test]
    fn forecasting_zero_keeps_nothing_warm() {
        // An app with a single ancient invocation: once the spike slides
        // out of the FFT's 2-hour window, the forecast is zero and no
        // pods are held. (While the spike is still inside the window the
        // FFT's periodic extension repeats it — the low-traffic
        // pathology §5.1.1 describes.)
        let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
        app.config.concurrency = 1;
        app.invocations.push(Invocation {
            start_ms: 1_000,
            duration_ms: 100,
            delay_ms: 0,
        });
        let cfg = SimConfig {
            respect_min_scale: false,
            ..SimConfig::default()
        };
        let span = 5 * 3_600_000; // spike leaves the window after 2 h
        let res = simulate_app(
            &app,
            &mut IceBreakerPolicy::new(),
            span,
            &cfg,
        );
        // No pods in the final hours...
        let tail = &res.pod_counts[res.pod_counts.len() - 60..];
        assert!(
            tail.iter().all(|&p| p == 0),
            "pods still held at the end: {tail:?}"
        );
        // ...and total allocation is well below holding one warm pod
        // for the whole span (~2600 GB-s at 150 MB).
        assert!(
            res.costs.allocated_gb_seconds < 1_500.0,
            "allocated {}",
            res.costs.allocated_gb_seconds
        );
    }

    #[test]
    fn runs_over_a_fleet() {
        let trace = generate(&IbmFleetConfig::small(31));
        let out = run_fleet(&trace, &SimConfig::default(), |_, _| {
            Box::new(IceBreakerPolicy::new())
        });
        assert_eq!(out.total.invocations, trace.total_invocations());
        for r in &out.per_app {
            r.check().expect("per-app record consistent");
        }
    }
}
