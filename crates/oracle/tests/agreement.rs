//! Hand-built agreement cases: each scenario pins one of the engine
//! behaviors the oracle must mirror exactly, including the four bugs
//! fixed alongside this crate (phantom min-scale event, replay past the
//! span, burst admission vs warming pods, dropped tail interval).

use femux_oracle::{compare_results, reference_simulate, PolicyKind};
use femux_sim::{simulate_app, SimConfig};
use femux_trace::types::{
    AppConfig, AppId, AppRecord, Invocation, WorkloadKind,
};

fn app(
    concurrency: u32,
    min_scale: u32,
    invocations: Vec<(u64, u32)>,
) -> AppRecord {
    AppRecord {
        id: AppId(7),
        kind: WorkloadKind::Application,
        config: AppConfig {
            concurrency,
            min_scale,
            ..AppConfig::default()
        },
        mem_used_mb: 150,
        cold_start_ms: 808,
        invocations: invocations
            .into_iter()
            .map(|(start_ms, duration_ms)| Invocation {
                start_ms,
                duration_ms,
                delay_ms: 0,
            })
            .collect(),
    }
}

fn assert_agreement(app: &AppRecord, span_ms: u64, interval_ms: u64) {
    let cfg = SimConfig {
        interval_ms,
        record_delays: true,
        ..SimConfig::default()
    };
    for policy in PolicyKind::ALL {
        let engine =
            simulate_app(app, policy.build().as_mut(), span_ms, &cfg);
        let oracle = reference_simulate(
            app,
            policy.build().as_mut(),
            span_ms,
            &cfg,
        );
        assert_eq!(
            compare_results(&engine, &oracle, interval_ms),
            None,
            "policy {} interval {interval_ms}ms span {span_ms}ms",
            policy.label()
        );
    }
}

#[test]
fn idle_min_scale_app_agrees() {
    // Pins the phantom-scale-event fix on both sides: initial_pods
    // seeds the scale-event diff.
    let app = app(100, 2, vec![]);
    assert_agreement(&app, 180_000, 60_000);
}

#[test]
fn invocations_past_the_span_agree() {
    // Pins the replay clamp: only the first invocation is served; the
    // one at the span edge and the one far beyond it are dropped.
    let app =
        app(100, 0, vec![(10_000, 500), (120_000, 500), (400_000, 500)]);
    assert_agreement(&app, 120_000, 60_000);
}

#[test]
fn same_ms_burst_agrees() {
    // Pins burst admission: one warming pod absorbs queued arrivals up
    // to its concurrency instead of spawning a pod per request.
    let app = app(
        100,
        0,
        vec![(5_000, 2_500), (5_000, 2_500), (5_000, 2_500)],
    );
    assert_agreement(&app, 60_000, 60_000);
}

#[test]
fn odd_span_tail_interval_agrees() {
    // Pins the pro-rated tail close on a span that is not a whole
    // number of intervals.
    let app = app(100, 0, vec![(70_000, 20_000)]);
    assert_agreement(&app, 90_000, 60_000);
}

#[test]
fn concurrency_one_overlap_agrees() {
    let app = app(
        1,
        0,
        vec![(2_000, 25_000), (11_500, 25_000), (21_000, 25_000)],
    );
    assert_agreement(&app, 130_000, 10_000);
}

#[test]
fn zero_duration_requests_agree() {
    // Zero-duration warm requests complete inside their arrival
    // millisecond; the lazy completion pop must match on both sides.
    let app = app(
        2,
        0,
        vec![(3_000, 0), (3_000, 1_300), (3_701, 0), (3_701, 1_300)],
    );
    assert_agreement(&app, 60_000, 60_000);
}

#[test]
fn span_overhang_work_agrees() {
    // Requests admitted just before the cut drain past the span end.
    let app = app(100, 1, vec![(59_500, 30_000), (59_800, 30_000)]);
    assert_agreement(&app, 60_000, 60_000);
}

#[test]
fn sub_minute_interval_agrees() {
    let app = app(
        100,
        0,
        vec![(9_999, 5_000), (10_000, 5_000), (10_001, 5_000)],
    );
    assert_agreement(&app, 50_000, 10_000);
}
