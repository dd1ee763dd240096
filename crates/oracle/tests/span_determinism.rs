//! Tier-1 contract tests for the causal span layer:
//!
//! 1. **Thread invariance** — a seeded IBM fleet instrumented at
//!    sample rate 1 produces byte-identical metrics, Chrome trace, and
//!    span table at 1 worker and at 8 workers.
//! 2. **Rate-0 ≡ compiled out** — a span config with rate 0 is
//!    indistinguishable from no span config at all, field for field.
//! 3. **Exact accounting** — for every sampled span, `queue_wait_ms +
//!    cold_wait_ms` converted to seconds equals the engine's recorded
//!    delay for the same invocation to exact `f64` equality (same
//!    rounding operation, bitwise-equal result), and the independent
//!    per-millisecond oracle re-derives the identical span table.

use std::sync::Mutex;

use femux_obs::span::SpanConfig;
use femux_oracle::{compare_results, reference_simulate};
use femux_sim::{
    run_fleet_detailed, simulate_app, KeepAlivePolicy,
    KnativeDefaultPolicy, SimConfig,
};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

/// Serializes the tests that toggle the process-global obs switches,
/// and every test that simulates: while a capture has recording on, a
/// simulation on another test thread would add its counters to it.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn spans_cfg(rate: f64) -> SimConfig {
    SimConfig {
        record_delays: true,
        spans: Some(SpanConfig { rate, seed: 0x5EED }),
        ..SimConfig::default()
    }
}

#[test]
fn instrumented_fleet_is_byte_identical_across_thread_counts() {
    let _lock = OBS_LOCK.lock().expect("obs test lock");
    let trace = generate(&IbmFleetConfig::small(21));
    // Pin the track prefix: the run epoch is a per-process counter, so
    // two successive runs would otherwise land on different lanes.
    let cfg = SimConfig {
        obs_track_prefix: Some("det".to_string()),
        ..spans_cfg(1.0)
    };

    let capture = |threads: usize| {
        femux_obs::set_enabled(true);
        femux_obs::set_events(true);
        drop(femux_obs::collect());
        let results = {
            let _guard = femux_par::override_threads(threads);
            run_fleet_detailed(&trace, &cfg, |_, _| {
                Box::new(KeepAlivePolicy::ten_minutes())
            })
        };
        let report = femux_obs::collect();
        femux_obs::set_enabled(false);
        femux_obs::set_events(false);
        (
            results,
            report.metrics_json(),
            report.chrome_trace_json(),
            report.span_table_json(),
        )
    };

    let (res1, metrics1, trace1, table1) = capture(1);
    let (res8, metrics8, trace8, table8) = capture(8);

    assert_eq!(res1, res8, "SimResults (including spans) must match");
    assert_eq!(metrics1, metrics8, "metrics JSON must be byte-identical");
    assert_eq!(trace1, trace8, "Chrome trace must be byte-identical");
    assert_eq!(table1, table8, "span table must be byte-identical");
    assert!(
        table1.lines().count() > 0,
        "rate-1 sampling over a non-empty fleet must record spans"
    );
    // The emitted trace (complete spans, instants, and flow events)
    // passes the validator round-trip.
    let summary = femux_obs::validate::validate_chrome_trace(&trace1)
        .expect("instrumented trace validates");
    assert!(summary.flows > 0, "fleet run must emit flow events");
}

#[test]
fn rate_zero_is_indistinguishable_from_no_span_config() {
    let _lock = OBS_LOCK.lock().expect("obs test lock");
    let trace = generate(&IbmFleetConfig::small(22));
    let off = SimConfig {
        record_delays: true,
        ..SimConfig::default()
    };
    let zero = spans_cfg(0.0);
    for app in trace.apps.iter().filter(|a| !a.invocations.is_empty()) {
        let a = simulate_app(
            app,
            &mut KeepAlivePolicy::ten_minutes(),
            trace.span_ms,
            &off,
        );
        let b = simulate_app(
            app,
            &mut KeepAlivePolicy::ten_minutes(),
            trace.span_ms,
            &zero,
        );
        assert_eq!(a, b, "rate 0 must compile the layer out ({})", app.id);
        assert!(b.spans.is_empty(), "rate 0 must record no spans");
    }
}

#[test]
fn span_segments_sum_to_the_engine_delay_exactly_and_match_the_oracle() {
    let _lock = OBS_LOCK.lock().expect("obs test lock");
    let trace = generate(&IbmFleetConfig::small(23));
    // The per-millisecond oracle steps every ms of the span, so clamp
    // the replay window (the clamp itself is part of the contract) and
    // the app count to keep this tier-1-fast; the full-span sweep runs
    // in the release-mode oracle job.
    let span_ms = 200_000.min(trace.span_ms);
    let cfg = spans_cfg(1.0);
    let mut checked_spans = 0usize;
    for app in trace
        .apps
        .iter()
        .filter(|a| !a.invocations.is_empty())
        .take(6)
    {
        let engine =
            simulate_app(app, &mut KnativeDefaultPolicy, span_ms, &cfg);
        // Rate 1 samples every replayed invocation.
        assert_eq!(
            engine.spans.len() as u64,
            engine.costs.invocations,
            "rate-1 sampling must span every invocation ({})",
            app.id
        );
        for span in &engine.spans {
            // Exact accounting: the same `ms as f64 / 1_000.0`
            // rounding the engine applies to its delay, applied to the
            // segment sum, must be bitwise-equal.
            let sum_secs = span.delay_secs();
            let engine_delay = engine.delays_secs[span.index as usize];
            assert_eq!(
                sum_secs.to_bits(),
                engine_delay.to_bits(),
                "segment sum {} != engine delay {} for inv {} of {}",
                sum_secs,
                engine_delay,
                span.index,
                app.id
            );
            // Exactly one wait segment may be nonzero.
            assert!(
                span.queue_wait_ms == 0 || span.cold_wait_ms == 0,
                "both wait segments nonzero for inv {} of {}",
                span.index,
                app.id
            );
            checked_spans += 1;
        }
        // The independent per-millisecond oracle derives the identical
        // span table (pod identities, origins, and segments included).
        let oracle = reference_simulate(
            app,
            &mut KnativeDefaultPolicy,
            span_ms,
            &cfg,
        );
        assert_eq!(
            compare_results(&engine, &oracle, cfg.interval_ms),
            None,
            "oracle disagrees on {}",
            app.id
        );
    }
    assert!(
        checked_spans > 0,
        "the seeded fleet must exercise the accounting identity"
    );
}
