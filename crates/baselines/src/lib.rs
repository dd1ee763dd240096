//! Baseline lifetime-management systems the paper compares FeMux against.
//!
//! - [`faascache`]: greedy-dual caching keep-alive with a fixed cache
//!   size (Fuerst & Sharma, ASPLOS '21) — its own fleet simulator, since
//!   the shared cache couples applications.
//! - [`icebreaker`]: single-FFT forecast-driven scaling (Roy et al.,
//!   ASPLOS '22), homogeneous-pool variant.
//! - [`aquatope`]: per-application LSTM scaling (Zhou et al.,
//!   ASPLOS '23), built on the from-scratch LSTM in `femux-forecast`.
//! - [`histogram`]: the hybrid idle-time-histogram keep-alive policy
//!   (Shahrad et al., ATC '20).
//!
//! Fixed keep-alive policies (1/5/10 minutes) and Knative's default
//! reactive autoscaler live in `femux-sim::policy`, since the simulator
//! itself uses them as references.

pub mod aquatope;
pub mod faascache;
pub mod histogram;
pub mod icebreaker;

pub use aquatope::AquatopePolicy;
pub use faascache::{FaasCacheConfig, FaasCacheResult};
pub use histogram::HybridHistogramPolicy;
pub use icebreaker::IceBreakerPolicy;

use femux_sim::policy::PolicyCtx;

/// Converts a forecast of next-interval arrivals into pods, using the
/// concurrency per arrival observed over `window`, the trailing
/// arrivals the forecast was made from (the invocation-count
/// representation of IceBreaker and Aquatope mapped onto the pod model).
fn pods_for_arrivals(
    ctx: &PolicyCtx<'_>,
    window: &[f64],
    predicted_arrivals: f64,
) -> usize {
    if predicted_arrivals < 0.5 {
        // The forecast is (almost) nothing: keep nothing warm. This is
        // the failure mode the paper highlights for sparse apps.
        return 0;
    }
    // Estimate concurrency demand from the observed ratio of
    // concurrency to arrivals over the same window.
    let total_arrivals: f64 = window.iter().sum();
    let conc_window =
        &ctx.avg_concurrency[ctx.avg_concurrency.len() - window.len()..];
    let total_conc: f64 = conc_window.iter().sum();
    let slot = 1.0 / f64::from(ctx.config.pod_concurrency());
    let conc_per_arrival = if total_arrivals > 0.0 {
        total_conc / total_arrivals
    } else {
        slot
    };
    // Never below one busy slot when traffic is predicted.
    let predicted_conc = (predicted_arrivals * conc_per_arrival).max(slot);
    ctx.pods_for_concurrency(predicted_conc)
}

/// Whether the trailing `history` samples of `arrivals` are all there
/// and all zero: every later tick of an idle stretch then hands the
/// forecaster this same window.
fn settled(arrivals: &[f64], history: usize) -> bool {
    arrivals.len() >= history
        && arrivals[arrivals.len() - history..].iter().all(|&v| v == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_sim::{
        simulate_app, KnativeDefaultPolicy, ScalingPolicy, SimConfig,
    };
    use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};

    #[test]
    fn zero_concurrency_scales_like_one() {
        // One 500 ms request in ten minutes, on an app built in code with
        // concurrency 0 (the trace loaders reject it): each scaler must
        // read it as 1, not divide by it.
        let app_with = |concurrency| {
            let mut app =
                AppRecord::new(AppId(0), WorkloadKind::Application);
            app.config.concurrency = concurrency;
            app.invocations.push(Invocation {
                start_ms: 1_000,
                duration_ms: 500,
                delay_ms: 0,
            });
            app
        };
        let (aquatope, _) = AquatopePolicy::train(&[], 1);
        let policies: [&dyn Fn() -> Box<dyn ScalingPolicy>; 3] = [
            &|| Box::new(KnativeDefaultPolicy),
            &|| Box::new(IceBreakerPolicy::new()),
            &|| Box::new(aquatope.clone()),
        ];
        let cfg = SimConfig::default();
        for policy in policies {
            let run = |concurrency| {
                simulate_app(
                    &app_with(concurrency),
                    policy().as_mut(),
                    10 * 60_000,
                    &cfg,
                )
            };
            let (zero, one) = (run(0), run(1));
            assert_eq!(zero, one, "{}", policy().name());
            assert!(one.pod_counts.iter().all(|&p| p <= 1));
        }
    }
}
