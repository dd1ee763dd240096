//! Criterion micro-benchmarks: per-forecast inference latency.
//!
//! The paper's scalability claims rest on lightweight forecasters
//! (<7 ms mean inference, §5.2); these benches pin the per-model cost on
//! the paper's 120-minute history window: a dense one that never
//! touches zero, and sparse ones that open with idle minutes, as most
//! serving windows of a sparse app do.

use criterion::{criterion_group, criterion_main, Criterion};
use femux_forecast::ForecasterKind;
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

/// Minutes 300–419 of app 0 of a seeded IBM-like fleet at the serving
/// fleet's rate: 32 leading zeros, then 24 busy minutes among idle ones.
fn ibm_window() -> Vec<f64> {
    let trace = ibm::generate(&IbmFleetConfig {
        n_apps: 1,
        span_days: 1,
        seed: 7,
        max_invocations_per_app: 40_000,
        rate_scale: 0.2,
    });
    let minutes =
        concurrency_per_minute(&trace.apps[0].invocations, trace.span_ms);
    minutes[300..420].to_vec()
}

fn bench_forecasters(c: &mut Criterion) {
    let window = history(120);
    let mut group = c.benchmark_group("forecast_120min_window");
    for kind in ForecasterKind::ALL {
        let mut forecaster = kind.build();
        group.bench_function(kind.name(), |b| {
            b.iter(|| black_box(forecaster.forecast(black_box(&window), 1)))
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
            let mut forecaster = kind.build();
            group.bench_function(format!("{name}/{}", kind.name()), |b| {
                b.iter(|| black_box(forecaster.forecast(black_box(window), 1)))
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
    bench_horizons
);
criterion_main!(benches);
