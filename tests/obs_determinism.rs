//! Determinism contract of the observability layer.
//!
//! Two guarantees, both load-bearing for the paper reproduction:
//!
//! 1. **Inert by default**: enabling telemetry must not change a single
//!    byte of any experiment's semantic output — the instrumented sweep
//!    produces exactly the cost records of the uninstrumented one.
//! 2. **Thread-invariant reports**: with telemetry on, the merged
//!    metrics and trace exports are byte-identical at any
//!    `FEMUX_THREADS` value, because counters merge commutatively and
//!    events are ordered by `(track, seq)` with one track per
//!    sequential unit of work.

use std::sync::Mutex;

use femux_rum::CostRecord;
use femux_sim::{run_fleet, KeepAlivePolicy, SimConfig};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

/// Serializes tests that toggle the process-global obs switches or the
/// ambient thread count.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A fig11-style sweep: one fleet, two keep-alive policies, fleet
/// totals and per-app records collected for comparison.
fn sweep() -> Vec<(String, Vec<CostRecord>, CostRecord)> {
    let trace = generate(&IbmFleetConfig::small(42));
    let cfg = SimConfig {
        respect_min_scale: false,
        ..SimConfig::default()
    };
    ["ka-1min", "ka-10min"]
        .iter()
        .map(|&name| {
            let out = run_fleet(&trace, &cfg, |_, _| {
                Box::new(match name {
                    "ka-1min" => KeepAlivePolicy::one_minute(),
                    _ => KeepAlivePolicy::ten_minutes(),
                })
            });
            (name.to_string(), out.per_app, out.total)
        })
        .collect()
}

#[test]
fn sweep_output_is_byte_identical_with_obs_on_and_off() {
    let _lock = TEST_LOCK.lock().expect("test lock");
    femux_obs::set_enabled(false);
    let baseline = sweep();
    let instrumented = {
        let _g = femux_obs::scoped(true);
        let r = sweep();
        let report = femux_obs::collect();
        assert!(
            report.counters.get("sim.invocations").copied().unwrap_or(0)
                > 0,
            "instrumented run must actually record telemetry"
        );
        assert!(
            !report.events.is_empty(),
            "event recording was enabled, events must exist"
        );
        r
    };
    // Semantic outputs match field-for-field (CostRecord is all
    // integers and exact float sums over identical operations).
    assert_eq!(
        format!("{baseline:?}"),
        format!("{instrumented:?}"),
        "telemetry must never perturb experiment output"
    );
}

#[test]
fn merged_reports_are_byte_identical_across_thread_counts() {
    let _lock = TEST_LOCK.lock().expect("test lock");
    let run = |threads: usize| {
        let _threads = femux_par::override_threads(threads);
        let _g = femux_obs::scoped(true);
        sweep();
        let report = femux_obs::collect();
        (report.metrics_json(), report.chrome_trace_json())
    };
    let (metrics_1, trace_1) = run(1);
    let (metrics_8, trace_8) = run(8);
    assert_eq!(metrics_1, metrics_8, "metrics must be thread-invariant");
    assert_eq!(trace_1, trace_8, "trace export must be thread-invariant");
    // And the export must be well-formed Chrome trace JSON.
    let summary = femux_obs::validate::validate_chrome_trace(&trace_1)
        .expect("sweep trace validates");
    assert!(summary.events > 0 && summary.tracks > 0);
}
