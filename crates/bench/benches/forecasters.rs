//! Criterion micro-benchmarks: per-forecast inference latency.
//!
//! The paper's scalability claims rest on lightweight forecasters
//! (<7 ms mean inference, §5.2); these benches pin the per-model cost on
//! the paper's 120-minute history window: a dense one that never
//! touches zero, and sparse ones that open with idle minutes, as most
//! serving windows of a sparse app do. Those groups time a full fit of
//! one window; `forecast_kept_sliding` times what serving pays, one
//! kept forecaster refitting a window that slides by a minute per call.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use femux_forecast::smoothing::HoltForecaster;
use femux_forecast::{Forecaster, ForecasterKind};
use femux_trace::repr::concurrency_per_minute;
use femux_trace::synth::ibm::{self, IbmFleetConfig};
use std::hint::black_box;

fn history(len: usize) -> Vec<f64> {
    (0..len)
        .map(|t| 2.0 + ((t as f64) * 0.21).sin().abs() * 3.0)
        .collect()
}

/// `zeros` idle minutes, then the dense window's tail: 120 minutes.
fn after_zeros(zeros: usize) -> Vec<f64> {
    let mut window = vec![0.0; zeros];
    window.extend_from_slice(&history(120)[zeros..]);
    window
}

/// App 0 of a seeded IBM-like fleet at the serving fleet's rate, per
/// minute over `days` days.
fn ibm_minutes(days: u64) -> Vec<f64> {
    let trace = ibm::generate(&IbmFleetConfig {
        n_apps: 1,
        span_days: days,
        seed: 7,
        max_invocations_per_app: 40_000,
        rate_scale: 0.2,
    });
    concurrency_per_minute(&trace.apps[0].invocations, trace.span_ms)
}

/// Minutes 300–419 of [`ibm_minutes`]: 32 leading zeros, then 24 busy
/// minutes among idle ones.
fn ibm_window() -> Vec<f64> {
    ibm_minutes(1)[300..420].to_vec()
}

/// One-step forecasts of one window, called over and over: a kept
/// forecaster, except that Holt gets a fresh one per call, because its
/// memo would resume the repeated window in full. Every call fits the
/// whole window.
fn full_fit(kind: ForecasterKind) -> impl FnMut(&[f64]) -> Vec<f64> {
    let mut kept = kind.build();
    move |window| {
        if kind == ForecasterKind::Holt {
            HoltForecaster::default().forecast(window, 1)
        } else {
            kept.forecast(window, 1)
        }
    }
}

fn bench_forecasters(c: &mut Criterion) {
    let window = history(120);
    let mut group = c.benchmark_group("forecast_120min_window");
    for kind in ForecasterKind::ALL {
        let mut forecast = full_fit(kind);
        group.bench_function(kind.name(), |b| {
            b.iter(|| black_box(forecast(black_box(&window))))
        });
    }
    group.finish();
}

fn bench_sparse_windows(c: &mut Criterion) {
    let windows = [
        ("all-zero", vec![0.0; 120]),
        ("zeros-60", after_zeros(60)),
        ("zeros-2", after_zeros(2)),
        ("ibm", ibm_window()),
    ];
    let mut group = c.benchmark_group("forecast_120min_sparse");
    for (name, window) in &windows {
        for kind in ForecasterKind::ALL {
            let mut forecast = full_fit(kind);
            group.bench_function(format!("{name}/{}", kind.name()), |b| {
                b.iter(|| black_box(forecast(black_box(window))))
            });
        }
    }
    group.finish();
}

/// Sliding windows, as serving refits: an iteration is one pass of a
/// kept forecaster over 1,512 windows of 120 minutes, one minute apart,
/// and the throughput counts its calls, so 1 / throughput is the time
/// per call.
fn bench_kept_sliding(c: &mut Criterion) {
    let series = [("ibm", ibm_minutes(2)), ("dense", history(1_632))];
    let mut group = c.benchmark_group("forecast_kept_sliding");
    group.throughput(Throughput::Elements(1_512));
    for (name, series) in &series {
        for kind in [ForecasterKind::Holt, ForecasterKind::Fft] {
            let mut forecaster = kind.build();
            group.bench_function(format!("{name}/{}", kind.name()), |b| {
                b.iter(|| {
                    for window in series.windows(120).take(1_512) {
                        black_box(forecaster.forecast(black_box(window), 1));
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_horizons(c: &mut Criterion) {
    let window = history(120);
    let mut group = c.benchmark_group("fft_horizon");
    for horizon in [1usize, 10, 60] {
        let mut f = ForecasterKind::Fft.build();
        group.bench_function(format!("h{horizon}"), |b| {
            b.iter(|| black_box(f.forecast(black_box(&window), horizon)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forecasters,
    bench_sparse_windows,
    bench_kept_sliding,
    bench_horizons
);
criterion_main!(benches);
