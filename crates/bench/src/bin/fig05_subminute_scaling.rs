//! Fig. 5 — Sub-minute predictive scaling (§3.2).
//!
//! Follows the paper's methodology: an event-based *capacity* simulation
//! over per-app average concurrency (the representation Knative uses),
//! comparing
//!
//! - FFT forecasting with a 10-second timestep,
//! - FFT with a 60-second timestep,
//! - Knative's 1-minute moving average (evaluated at 10-second steps,
//!   approximating its 2-second reactive loop), and
//! - a 5-minute keep-alive (AWS-style).
//!
//! The paper: FFT-10s achieves the lowest cold-start fraction across
//! workloads, cutting total cold-start duration ~60 % vs the moving
//! average, ~38 % vs the 5-minute keep-alive, and ~11 % vs FFT-60s, with
//! <1 % extra allocation thanks to user-configured min-scale pods.
//!
//! Reproduction note: the *predictive-beats-reactive* result holds here
//! (FFT-60s clearly beats the 1-minute moving average), but the
//! 10-second-beats-60-second crossover does not reproduce at our
//! scaled-down volumes — 10-second concurrency is only a smooth,
//! forecastable signal at true production density (94.5 % sub-second
//! IATs over 1.9 B invocations), and a noisy 10-second signal pays a
//! pod cold start at every capacity-boundary crossing. See
//! EXPERIMENTS.md.

use femux::label::{capacity_costs, AppParams};
use femux_bench::table::{delta_pct, f1, pct, print_series, print_table};
use femux_bench::Scale;
use femux_forecast::ForecasterKind;
use femux_rum::CostRecord;
use femux_stats::desc::Ecdf;
use femux_trace::repr::average_concurrency;
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

/// Strided rolling forecast (refit every `stride` steps, predict
/// `stride` ahead) — same as the offline labeller's regime.
fn forecast_series(
    kind: ForecasterKind,
    series: &[f64],
    history: usize,
    stride: usize,
) -> Vec<f64> {
    let mut f = kind.build();
    let mut out = Vec::with_capacity(series.len().saturating_sub(history));
    let mut t = history;
    while t < series.len() {
        let h = stride.min(series.len() - t);
        let start = t.saturating_sub(history);
        out.extend(f.forecast(&series[start..t], h));
        t += h;
    }
    out
}

/// Sliding statistic over the trailing `window` steps.
fn sliding<F: Fn(&[f64]) -> f64>(
    series: &[f64],
    history: usize,
    window: usize,
    f: F,
) -> Vec<f64> {
    (history..series.len())
        .map(|t| f(&series[t.saturating_sub(window)..t]))
        .collect()
}

fn main() {
    let _obs = femux_bench::obs::session();
    let scale = Scale::from_env();
    let trace = generate(&IbmFleetConfig {
        n_apps: scale.ibm_apps().min(300),
        span_days: 1,
        seed: 0xF1605,
        max_invocations_per_app: 100_000,
        rate_scale: 1.0,
    });

    // Accumulators: per policy, fleet totals + per-app cold fractions.
    let names = ["fft-10s", "fft-60s", "moving-avg-1min", "keepalive-5min"];
    let mut totals = vec![CostRecord::default(); names.len()];
    let mut fractions: Vec<Vec<f64>> = vec![Vec::new(); names.len()];

    for app in &trace.apps {
        if app.invocations.len() < 50 {
            continue;
        }
        let conc10 =
            average_concurrency(&app.invocations, 10_000, trace.span_ms);
        let conc60 =
            average_concurrency(&app.invocations, 60_000, trace.span_ms);
        // Two hours of history at each resolution.
        let (h10, h60) = (720usize, 120usize);
        if conc10.len() <= h10 + 360 {
            continue;
        }
        let min_floor = app.config.min_scale as f64
            * f64::from(app.config.pod_concurrency());
        let floor = |mut v: Vec<f64>| {
            for x in &mut v {
                *x = x.max(min_floor);
            }
            v
        };
        // FFT-10s forecasts on the stable-window-smoothed series
        // sampled at 10 s (Knative's metric pipeline smooths over its
        // window; the 10-second loop gains *phase*, not raw noise).
        let smooth10: Vec<f64> = (0..conc10.len())
            .map(|t| {
                let lo = t.saturating_sub(5);
                conc10[lo..=t].iter().sum::<f64>()
                    / (t - lo + 1) as f64
            })
            .collect();
        // Policies (all forecasting the next minute of traffic).
        let preds10: Vec<(usize, Vec<f64>)> = vec![
            (0, floor(forecast_series(ForecasterKind::Fft, &smooth10, h10, 1))),
            (
                2,
                floor(sliding(&conc10, h10, 6, |w| {
                    w.iter().sum::<f64>() / w.len().max(1) as f64
                })),
            ),
            (
                3,
                floor(sliding(&conc10, h10, 30, |w| {
                    w.iter().fold(0.0f64, |a, &b| a.max(b))
                })),
            ),
        ];
        let pred60 =
            floor(forecast_series(ForecasterKind::Fft, &conc60, h60, 1));

        let p10 = AppParams {
            mem_gb: app.mem_used_mb as f64 / 1_024.0,
            pod_concurrency: f64::from(app.config.pod_concurrency()),
            exec_secs: 0.2,
            step_secs: 10.0,
            cold_start_secs: 0.808,
        };
        let p60 = AppParams {
            step_secs: 60.0,
            ..p10
        };
        for (slot, pred) in preds10 {
            let costs = capacity_costs(&pred, &conc10[h10..], &p10);
            fractions[slot].push(costs.cold_start_fraction());
            totals[slot].merge(&costs);
        }
        let costs60 = capacity_costs(&pred60, &conc60[h60..], &p60);
        fractions[1].push(costs60.cold_start_fraction());
        totals[1].merge(&costs60);
    }

    // Left: CDF of per-workload cold-start fraction.
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
    for (name, fr) in names.iter().zip(&fractions) {
        print_series(
            &format!("CDF of per-workload cold-start fraction — {name}"),
            &Ecdf::new(fr).curve(&xs),
        );
    }

    // Right: totals.
    let fft10 = totals[0].cold_start_seconds;
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&totals)
        .map(|(name, t)| {
            vec![
                name.to_string(),
                f1(t.cold_start_seconds),
                pct(t.cold_start_fraction()),
                f1(t.allocated_gb_seconds),
                delta_pct(fft10, t.cold_start_seconds),
            ]
        })
        .collect();
    print_table(
        "Fig. 5-Right (paper: fft-10s cuts total cold-start duration \
         ~60% vs 1-min moving average, ~38% vs 5-min KA, ~11% vs fft-60s; \
         <1% extra allocation thanks to min-scale pods)",
        &[
            "policy",
            "cold-start s",
            "cold-start %",
            "alloc GB-s",
            "fft-10s vs this",
        ],
        &rows,
    );
}
