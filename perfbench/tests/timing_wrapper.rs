//! The policy timing wrapper forwards the idle fast path unchanged.
//!
//! `TimedPolicy` overrides `ScalingPolicy::tick_idle`, so the
//! `contract-impl` audit rule requires it to appear in an
//! `assert_tick_idle_equivalence` call; these are those calls.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::manager::FemuxPolicy;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_perfbench::engine::TimedPolicy;
use femux_sim::{
    assert_tick_idle_equivalence, simulate_app_with_stats, KeepAlivePolicy, KnativeDefaultPolicy,
    ScalingPolicy, SimConfig,
};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

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
fn timed_policy_idle_fast_path_matches_per_tick_decisions() {
    assert_tick_idle_equivalence("TimedPolicy", &mut || {
        Box::new(TimedPolicy::new(Box::new(KeepAlivePolicy::ten_minutes())))
    });
    assert_tick_idle_equivalence("TimedPolicy", &mut || {
        Box::new(TimedPolicy::new(Box::new(KnativeDefaultPolicy)))
    });
    let model = model();
    assert_tick_idle_equivalence("TimedPolicy", &mut || {
        Box::new(TimedPolicy::new(Box::new(FemuxPolicy::new(
            Arc::clone(&model),
            0.5,
        ))))
    });
}

#[test]
fn wrapped_runs_equal_unwrapped_runs() {
    let trace = generate(&IbmFleetConfig::small(5));
    let model = model();
    let makers: [&dyn Fn() -> Box<dyn ScalingPolicy>; 3] = [
        &|| Box::new(KeepAlivePolicy::ten_minutes()),
        &|| Box::new(KnativeDefaultPolicy),
        &|| Box::new(FemuxPolicy::new(Arc::clone(&model), 0.5)),
    ];
    let cfg = SimConfig::default();
    for mk in makers {
        for app in trace.apps.iter().take(20) {
            let mut inner = mk();
            let plain = simulate_app_with_stats(app, inner.as_mut(), trace.span_ms, &cfg);
            let mut timed = TimedPolicy::new(mk());
            let wrapped = simulate_app_with_stats(app, &mut timed, trace.span_ms, &cfg);
            assert_eq!(plain, wrapped, "app {}", app.id);
            assert_eq!(timed.name(), inner.name());
            assert_eq!(timed.fault_stats(), inner.fault_stats());
        }
    }
}
