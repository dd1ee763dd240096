//! Criterion micro-benchmarks: simulator replay throughput.
//!
//! §5.1-scale studies replay hundreds of thousands of invocations per
//! policy; replay throughput (invocations/second) is what bounds
//! experiment turnaround.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use femux_fault::FaultConfig;
use femux_sim::{
    simulate_app, ClusterConfig, KeepAlivePolicy, KnativeDefaultPolicy,
    NodeConfig, SimConfig,
};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};
use std::hint::black_box;

/// A sparse app: one 3-request burst every 6 hours across `days` days.
/// Wall time here is dominated by idle handling, the event-queue
/// engine's headline case.
fn idle_heavy_app(days: u64) -> AppRecord {
    let mut app = AppRecord::new(AppId(0), WorkloadKind::Application);
    app.config.concurrency = 1;
    app.mem_used_mb = 256;
    let mut t = 1_000u64;
    while t < days * 86_400_000 {
        for k in 0..3u64 {
            app.invocations.push(Invocation {
                start_ms: t + k * 500,
                duration_ms: 800,
                delay_ms: 0,
            });
        }
        t += 6 * 3_600_000;
    }
    app
}

/// A bursty app: 400-request same-second bursts every 10 minutes for a
/// day — stresses the arrival path (join/spawn) rather than ticks.
fn burst_heavy_app() -> AppRecord {
    let mut app = AppRecord::new(AppId(1), WorkloadKind::Application);
    app.config.concurrency = 10;
    app.mem_used_mb = 256;
    let mut t = 5_000u64;
    while t < 86_400_000 {
        for k in 0..400u64 {
            app.invocations.push(Invocation {
                start_ms: t + k % 1_000,
                duration_ms: 2_000,
                delay_ms: 0,
            });
        }
        t += 600_000;
    }
    app
}

fn bench_simulator(c: &mut Criterion) {
    let trace = generate(&IbmFleetConfig::small(77));
    let app = trace
        .apps
        .iter()
        .max_by_key(|a| a.invocations.len())
        .expect("non-empty")
        .clone();
    let n = app.invocations.len() as u64;
    let mut group = c.benchmark_group("simulate_app");
    group.throughput(Throughput::Elements(n));
    group.bench_function("knative_default", |b| {
        b.iter(|| {
            let mut policy = KnativeDefaultPolicy;
            black_box(simulate_app(
                black_box(&app),
                &mut policy,
                trace.span_ms,
                &SimConfig::default(),
            ))
        })
    });
    group.bench_function("keepalive_10min", |b| {
        b.iter(|| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            black_box(simulate_app(
                black_box(&app),
                &mut policy,
                trace.span_ms,
                &SimConfig::default(),
            ))
        })
    });

    let idle = idle_heavy_app(62);
    let idle_span = 62 * 86_400_000;
    group.throughput(Throughput::Elements(idle.invocations.len() as u64));
    group.bench_function("idle_heavy_62d_keepalive", |b| {
        b.iter(|| {
            let mut policy = KeepAlivePolicy::ten_minutes();
            black_box(simulate_app(
                black_box(&idle),
                &mut policy,
                idle_span,
                &SimConfig::default(),
            ))
        })
    });

    let bursty = burst_heavy_app();
    let bursty_span = 86_400_000;
    group.throughput(Throughput::Elements(
        bursty.invocations.len() as u64,
    ));
    group.bench_function("burst_heavy_1d_knative", |b| {
        b.iter(|| {
            let mut policy = KnativeDefaultPolicy;
            black_box(simulate_app(
                black_box(&bursty),
                &mut policy,
                bursty_span,
                &SimConfig::default(),
            ))
        })
    });
    group.finish();
}

/// Ticks of a 62-day span at the 60 s interval.
const TICKS_62D: u64 = 62 * 1_440;

/// perfbench's crash-phase plan: node crashes at 1 % and pod crashes at
/// 0.1 % per tick, a crashed node down for two ticks.
fn crash_plan(seed: u64) -> FaultConfig {
    FaultConfig {
        node_crash_rate: 0.01,
        node_recovery_ticks: 2,
        pod_crash_rate: 0.001,
        ..FaultConfig::off(seed)
    }
}

/// Sparse 62-day apps under the crash-phase cluster (16 nodes of
/// 600 MB) and plan, one per class of floor: a floor no node can hold,
/// no floor, and a one-pod floor. Each iteration replays one app under
/// the 10-minute keep-alive; the plan's seed is fixed, so the thread's
/// node-crash memo is warm as it is across the jobs of a pass. The last
/// entry draws a whole 16-node 62-day plan on a cold memo, a new plan
/// seed per iteration: the cost each worker pays once per pass.
fn bench_crash_plan(c: &mut Criterion) {
    // perfbench's sparse fleet, unrotated.
    let trace = generate(&IbmFleetConfig {
        n_apps: 64,
        span_days: 62,
        seed: 0x74EB_AC81_22DC_91CA,
        max_invocations_per_app: 500,
        rate_scale: 0.005,
    });
    let node = NodeConfig { cpu_milli: u64::MAX, mem_mb: 600 };
    let cfg = SimConfig {
        cluster: Some(ClusterConfig::uniform(16, node)),
        faults: Some(crash_plan(7)),
        ..SimConfig::default()
    };
    let fits_nowhere = |a: &&AppRecord| a.config.min_scale > 0 && a.mem_used_mb > 600;
    let min_scale = |n: u32| move |a: &&AppRecord| a.config.min_scale == n;
    let apps = [
        ("fits_nowhere", trace.apps.iter().find(fits_nowhere)),
        ("min_scale_0", trace.apps.iter().find(min_scale(0))),
        ("min_scale_1", trace.apps.iter().find(min_scale(1))),
    ];
    let mut group = c.benchmark_group("simulate_app_crash_plan");
    for (name, app) in apps {
        let app = app.expect("the sparse fleet has an app of every class");
        group.throughput(Throughput::Elements(app.invocations.len() as u64));
        group.bench_function(format!("{name}_62d_keepalive"), |b| {
            b.iter(|| {
                let mut policy = KeepAlivePolicy::ten_minutes();
                black_box(simulate_app(
                    black_box(app),
                    &mut policy,
                    trace.span_ms,
                    &cfg,
                ))
            })
        });
    }
    let mut seed = 0u64;
    group.throughput(Throughput::Elements(16));
    group.bench_function("cold_memo_16_node_62d_plan", |b| {
        b.iter(|| {
            seed += 1;
            let mut nodes = crash_plan(seed).node_faults(16);
            for node in 0..16 {
                while nodes.next_crash(node) < TICKS_62D {
                    nodes.crash_node(node);
                }
            }
            black_box(nodes.stats.node_crashes)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_crash_plan);
criterion_main!(benches);
