//! The statistics helpers and the failed-forecast accounting.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_fault::FaultConfig;
use femux_forecast::ForecasterKind;
use femux_perfbench::serve::{forecasts_attempted, forecasts_failed, serve_with};
use femux_perfbench::setup::rotate;
use femux_perfbench::stats::{
    fallback_events, is_boundary_tick, median, nearest_rank, percentile, reportable_tail,
};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::types::{AppId, AppRecord, Invocation, WorkloadKind};

#[test]
fn nearest_rank_percentiles() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(50));
    assert_eq!(percentile(&sorted, 99.0), Some(99));
    assert_eq!(percentile(&sorted, 99.9), Some(100));
    assert_eq!(percentile(&sorted, 100.0), Some(100));
    // ceil(0.9 * 7) = 7th smallest; ceil(0.5 * 7) = 4th.
    let seven = [10, 20, 30, 40, 50, 60, 70];
    assert_eq!(percentile(&seven, 90.0), Some(70));
    assert_eq!(percentile(&seven, 50.0), Some(40));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(nearest_rank(1, 99.0), 1);
    assert_eq!(nearest_rank(1000, 0.0), 1, "rank is at least 1");
}

#[test]
fn reported_tail_needs_ten_samples_beyond_it() {
    // p99 of 1000 is rank 990: exactly ten beyond.
    assert_eq!(reportable_tail(1000), Some(99.0));
    // p99 of 999 is rank 990: nine beyond, so p95 (rank 950) is next.
    assert_eq!(reportable_tail(999), Some(95.0));
    // p99.9 needs n - ceil(0.999 n) >= 10, first true at n = 10 000.
    assert_eq!(reportable_tail(10_000), Some(99.9));
    assert_eq!(reportable_tail(9_999), Some(99.0));
    // p90 of 100 is rank 90: ten beyond.
    assert_eq!(reportable_tail(100), Some(90.0));
    assert_eq!(reportable_tail(99), None);
    assert_eq!(reportable_tail(0), None);
    // One round of steady serving ticks supports p99.
    assert_eq!(reportable_tail(3 * 504 - 3), Some(99.0));
}

#[test]
fn medians() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[0.5, -1.0, 2.0, 8.0]), Some(1.25));
}

#[test]
fn boundary_ticks_complete_a_block() {
    let boundaries: Vec<usize> = (0..3 * 504).filter(|&t| is_boundary_tick(t, 504)).collect();
    assert_eq!(boundaries, vec![503, 1007, 1511]);
    assert!(!is_boundary_tick(0, 504));
    assert!(!is_boundary_tick(504, 504));
    assert!(is_boundary_tick(0, 1), "one-step blocks end every step");
}

#[test]
fn fallback_events_count_healthy_to_fallback_transitions() {
    use ForecasterKind::{Holt, MovingAverage as Ma, Ses};
    // Start, fault, fallback block, repromote, switch, fault again.
    let log = [Holt, Ma, Ma, Holt, Ses, Ma];
    assert_eq!(fallback_events(&log), 2);
    assert_eq!(fallback_events(&[Holt, Ses, Holt]), 0);
    assert_eq!(fallback_events(&[]), 0);
}

fn model() -> Arc<FemuxModel> {
    let apps: Vec<TrainApp> = (0..6)
        .map(|i| TrainApp {
            concurrency: (0..600)
                .map(|t| 2.0 + (t as f64 * (0.2 + i as f64 * 0.1)).sin())
                .collect(),
            exec_secs: 0.5,
            mem_gb: 0.5,
            pod_concurrency: 1,
        })
        .collect();
    Arc::new(train(&apps, &FemuxConfig::for_tests(), ClassifierKind::KMeans).expect("model"))
}

#[test]
fn failed_share_counts_every_forced_forecaster_fault() {
    let mut trace = generate(&IbmFleetConfig::small(3));
    trace.apps.truncate(12);
    let span_ms = 4 * 120 * 60_000;
    for app in &mut trace.apps {
        app.invocations.retain(|inv| inv.start_ms < span_ms);
    }
    trace.span_ms = span_ms;
    let model = model();

    let clean = serve_with(&trace, &model, None).report;
    assert_eq!(forecasts_attempted(&clean), 12 * 4 * 120);
    assert_eq!(forecasts_failed(&clean), 0);

    let faults = FaultConfig {
        forecast_fault_rate: 0.02,
        ..FaultConfig::off(41)
    };
    let faulty = serve_with(&trace, &model, Some(faults)).report;
    let injected: u64 = faulty.apps.iter().map(|a| a.forecast_faults).sum();
    assert!(injected > 0, "the fixture must fire faults");
    // An injected fault is drawn only while the app is healthy, and
    // every one demotes it: failed forecasts equal injected faults.
    assert_eq!(forecasts_failed(&faulty), injected);
    assert_eq!(forecasts_attempted(&faulty), forecasts_attempted(&clean));
}

#[test]
fn rotation_keeps_counts_and_order() {
    let mut app = AppRecord::new(AppId(1), WorkloadKind::Function);
    for start_ms in [0, 10, 500, 900, 999] {
        app.invocations.push(Invocation {
            start_ms,
            duration_ms: 7,
            delay_ms: 0,
        });
    }
    let mut rotated = app.clone();
    rotate(&mut rotated, 1_000, 100);
    let starts: Vec<u64> = rotated.invocations.iter().map(|i| i.start_ms).collect();
    assert_eq!(starts, vec![0, 99, 100, 110, 600]);
    assert!(rotated.invocations.iter().all(|i| i.duration_ms == 7));
    let mut same = app.clone();
    rotate(&mut same, 1_000, 1_000);
    assert_eq!(same, app, "a whole-span rotation is the identity");
}
