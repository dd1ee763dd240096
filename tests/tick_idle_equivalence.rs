//! `tick_idle` equivalence registry.
//!
//! Every policy that overrides [`femux_sim::ScalingPolicy::tick_idle`]
//! must prove the idle fast path byte-identical to per-tick decisions
//! by appearing in an `assert_tick_idle_equivalence` call.
//! [`every_tick_idle_override_is_registered`] enforces membership over
//! the whole tree: a new `tick_idle` override that no call registers
//! fails it. The harness itself (scenario battery, runs with and
//! without the fast path, both intervals) lives in `femux_sim::equiv`.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::manager::FemuxPolicy;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_baselines::{
    AquatopePolicy, HybridHistogramPolicy, IceBreakerPolicy,
};
use femux_forecast::simple::MovingAverageForecaster;
use femux_knative::integration::FemuxKnativePolicy;
use femux_knative::kpa::{KpaConfig, KpaPolicy};
use femux_sim::{
    assert_tick_idle_equivalence, FixedPolicy, ForecastPolicy,
    KeepAlivePolicy, KnativeDefaultPolicy, ZeroPolicy,
};
use femux_trace::repr::concurrency_per_minute;
use femux_trace::synth::ibm::{generate, IbmFleetConfig};

/// Trains a small FeMux model for the FeMux-family policies (the
/// harness checks idle-path equivalence, not forecast quality).
fn model() -> Arc<FemuxModel> {
    let trace = generate(&IbmFleetConfig::small(0x71DE));
    let cfg = FemuxConfig::for_tests();
    let apps: Vec<TrainApp> = trace
        .apps
        .iter()
        .step_by(25)
        .map(|a| TrainApp {
            concurrency: concurrency_per_minute(
                &a.invocations,
                trace.span_ms,
            ),
            exec_secs: 0.5,
            mem_gb: 0.5,
            pod_concurrency: 1,
        })
        .collect();
    Arc::new(train(&apps, &cfg, ClassifierKind::KMeans).expect("model"))
}

#[test]
fn sim_policies_fast_forward_equivalently() {
    assert_tick_idle_equivalence("KeepAlivePolicy", &mut || {
        Box::new(KeepAlivePolicy::five_minutes())
    });
    assert_tick_idle_equivalence("KnativeDefaultPolicy", &mut || {
        Box::new(KnativeDefaultPolicy)
    });
    assert_tick_idle_equivalence("ForecastPolicy", &mut || {
        Box::new(ForecastPolicy::new(Box::new(
            MovingAverageForecaster::knative(),
        )))
    });
    assert_tick_idle_equivalence("FixedPolicy", &mut || {
        Box::new(FixedPolicy(2))
    });
    assert_tick_idle_equivalence("ZeroPolicy", &mut || {
        Box::new(ZeroPolicy)
    });
}

#[test]
fn knative_policies_fast_forward_equivalently() {
    assert_tick_idle_equivalence("KpaPolicy", &mut || {
        Box::new(KpaPolicy::new(KpaConfig::default()))
    });
    let model = model();
    assert_tick_idle_equivalence("FemuxKnativePolicy", &mut || {
        Box::new(FemuxKnativePolicy::new(Arc::clone(&model), 0.5))
    });
}

#[test]
fn femux_manager_fast_forwards_equivalently() {
    let model = model();
    assert_tick_idle_equivalence("FemuxPolicy", &mut || {
        Box::new(FemuxPolicy::new(Arc::clone(&model), 0.5))
    });
}

#[test]
fn baseline_policies_fast_forward_equivalently() {
    // Aquatope trains an LSTM on an arrival series; a deterministic
    // diurnal-ish ramp is representative. Training is seeded, so one
    // trained policy cloned per run is the state every run would
    // otherwise retrain to.
    let arrivals: Vec<f64> = (0..240)
        .map(|i| ((i % 60) as f64 / 10.0).floor())
        .collect();
    let aquatope = AquatopePolicy::train(&arrivals, 0xAC0A).0;
    assert_tick_idle_equivalence("AquatopePolicy", &mut || {
        Box::new(aquatope.clone())
    });
    assert_tick_idle_equivalence("HybridHistogramPolicy", &mut || {
        Box::new(HybridHistogramPolicy::new())
    });
    assert_tick_idle_equivalence("IceBreakerPolicy", &mut || {
        Box::new(IceBreakerPolicy::new())
    });
}

/// The `T` of every `impl ScalingPolicy for T` block in rustfmt'd
/// `text` that overrides `tick_idle`. A block runs to the first line
/// that closes it at the `impl`'s indentation.
fn idle_overrides(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let body = line.trim_start();
        let Some((_, ty)) = body
            .strip_prefix("impl")
            .and_then(|rest| rest.split_once("ScalingPolicy for "))
        else {
            continue;
        };
        let close = format!("{}}}", &line[..line.len() - body.len()]);
        let overrides = lines[i + 1..]
            .iter()
            .take_while(|l| **l != close)
            .any(|l| l.trim_start().starts_with("fn tick_idle"));
        if overrides {
            let ty = ty
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or_default();
            out.push(ty.to_string());
        }
    }
    out
}

/// The first argument of every `assert_tick_idle_equivalence("T", ..)`
/// call in `text`.
fn registrations(text: &str) -> Vec<String> {
    text.split("assert_tick_idle_equivalence(")
        .skip(1)
        .filter_map(|call| call.trim_start().strip_prefix('"'))
        .filter_map(|arg| arg.split('"').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_tick_idle_override_is_registered() {
    let mut overrides = Vec::new();
    let mut registered = BTreeSet::new();
    for path in common::rust_files(common::workspace_root()) {
        let text = common::read(&path);
        for ty in idle_overrides(&text) {
            overrides.push((path.display().to_string(), ty));
        }
        registered.extend(registrations(&text));
    }
    // Eleven policies under `crates/` and the benchmark's timing
    // wrapper override it, so a scan that finds fewer is broken.
    assert!(overrides.len() >= 12, "scan found only {overrides:?}");
    let missing: Vec<&(String, String)> = overrides
        .iter()
        .filter(|(_, ty)| !registered.contains(ty))
        .collect();
    assert!(
        missing.is_empty(),
        "these policies override `tick_idle` but no \
         `assert_tick_idle_equivalence(\"T\", ..)` call proves the idle \
         fast path matches per-tick decisions: {missing:?}"
    );
}
