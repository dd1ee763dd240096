//! Determinism contract of the online serving harness.
//!
//! Three guarantees:
//!
//! 1. **Shard invariance**: same trace + model + seed ⇒ byte-identical
//!    decisions, outcomes, and metrics at 1 vs 8 shards (with and
//!    without an injected fault plan), under the reduced test config
//!    and the paper's deployed config.
//! 2. **Extractor reset**: one long-lived feature extractor, as every
//!    `AppManager` runs, emits at every block boundary the exact f64
//!    row, idle bit and sequence number that a fresh extractor gives on
//!    that block alone (what training extracts), across both synthetic
//!    fleets (IBM-like and Azure-like) under the reduced test config
//!    and the paper's deployed config.
//! 3. **Strict ingest**: clamped out-of-order traces serve
//!    deterministically too, and the clamp count is surfaced.
//!
//! Every test takes [`lock`]: one of them scopes the process-global
//! telemetry sink, which any concurrently running instrumented code
//! would write into.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use femux::config::FemuxConfig;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_features::{extract, Block, IncrementalExtractor};
use femux_serve::harness::{run, ServeConfig};
use femux_trace::ingest::MonotonePolicy;
use femux_trace::ops::clip_window;
use femux_trace::repr::concurrency_per_minute;
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::{Invocation, Trace};

/// Serializes the tests: one toggles the process-global obs switches.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TEST_LOCK`]; a test that failed while holding it does not
/// fail the others.
fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fleet_trace() -> Trace {
    let mut trace = generate(&IbmFleetConfig::small(42));
    // A dozen apps keeps the sweep fast while still crossing several
    // block boundaries per app.
    trace.apps.truncate(12);
    trace
}

fn model() -> Arc<FemuxModel> {
    static MODEL: OnceLock<Arc<FemuxModel>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let cfg = FemuxConfig::for_tests();
            let trace = fleet_trace();
            let apps: Vec<TrainApp> = trace
                .apps
                .iter()
                .map(|app| TrainApp {
                    concurrency: concurrency_per_minute(
                        &app.invocations,
                        trace.span_ms,
                    ),
                    exec_secs: 0.5,
                    mem_gb: 0.5,
                    pod_concurrency: app.config.pod_concurrency(),
                })
                .collect();
            Arc::new(
                train(&apps, &cfg, ClassifierKind::KMeans)
                    .expect("trainable fleet"),
            )
        })
        .clone()
}

#[test]
fn one_and_eight_shards_serve_byte_identically() {
    let _lock = lock();
    let trace = fleet_trace();
    let model = model();
    let serve = |shards: usize| {
        let _g = femux_obs::scoped(false);
        let report = run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        )
        .expect("sorted trace");
        let mut obs = femux_obs::collect();
        // femux-par's own dispatch counters legitimately see a
        // different item count (one work item per shard); everything
        // else must merge identically.
        obs.counters.retain(|k, _| !k.starts_with("par."));
        (report, obs.metrics_json())
    };
    let (one, metrics_one) = serve(1);
    let (eight, metrics_eight) = serve(8);
    assert_eq!(one.digest(), eight.digest());
    assert_eq!(one.apps, eight.apps, "full outcomes, not just digests");
    assert_eq!(
        metrics_one, metrics_eight,
        "metrics must merge identically at any shard count"
    );
    assert!(one.apps.iter().any(|a| a.blocks > 0));
}

#[test]
fn fault_injected_serving_is_shard_invariant() {
    let _lock = lock();
    let trace = fleet_trace();
    let model = model();
    let plan = femux_fault::FaultConfig::uniform(13, 0.05);
    let serve = |shards: usize| {
        run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                faults: Some(plan.clone()),
                ..ServeConfig::default()
            },
        )
        .expect("sorted trace")
    };
    let one = serve(1);
    let eight = serve(8);
    assert_eq!(
        one.digest(),
        eight.digest(),
        "fault streams are keyed by app id, not shard"
    );
    assert_eq!(one.apps, eight.apps);
    assert!(
        one.totals.total() > 0,
        "the plan must actually inject faults"
    );
}

#[test]
fn paper_config_serves_shard_invariantly() {
    // The configuration behind the paper's numbers: 504-step blocks, a
    // 120-step history and all six forecasters, over three blocks per
    // app, at 1 and 8 shards, without and with a 5 % plan (whose keyed
    // report losses must land on the same steps at any shard count).
    let _lock = lock();
    let cfg = FemuxConfig::default();
    let span_ms = 3 * cfg.block_len as u64 * 60_000;
    let mut trace = generate(&IbmFleetConfig::small(17));
    trace.apps.truncate(8);
    let trace = clip_window(&trace, 0, span_ms);
    let apps: Vec<TrainApp> = trace
        .apps
        .iter()
        .map(|app| TrainApp {
            concurrency: concurrency_per_minute(&app.invocations, span_ms),
            exec_secs: 0.5,
            mem_gb: 0.5,
            pod_concurrency: app.config.pod_concurrency(),
        })
        .collect();
    let model = Arc::new(
        train(&apps, &cfg, ClassifierKind::KMeans).expect("trainable fleet"),
    );
    for plan in [None, Some(femux_fault::FaultConfig::uniform(29, 0.05))] {
        let serve = |shards: usize| {
            let _g = femux_obs::scoped(false);
            let report = run(
                &trace,
                model.clone(),
                &ServeConfig {
                    shards,
                    faults: plan.clone(),
                    ..ServeConfig::default()
                },
            )
            .expect("sorted trace");
            let mut obs = femux_obs::collect();
            obs.counters.retain(|k, _| !k.starts_with("par."));
            (report, obs.metrics_json())
        };
        let (one, metrics_one) = serve(1);
        let (eight, metrics_eight) = serve(8);
        assert_eq!(one.digest(), eight.digest(), "plan {plan:?}");
        assert_eq!(one.apps, eight.apps, "plan {plan:?}");
        assert_eq!(metrics_one, metrics_eight, "plan {plan:?}");
        assert!(one.apps.iter().all(|a| a.blocks >= 2), "two blocks each");
        if plan.is_some() {
            assert!(one.totals.report_losses > 0, "the plan must fire");
        }
        let served: BTreeSet<_> =
            one.apps.iter().flat_map(|a| a.decisions.iter()).collect();
        assert!(
            served.len() >= 2,
            "only {served:?} served, so the tier is vacuous"
        );
    }
}

/// Pushes a series through one extractor and asserts, at every block
/// boundary, exact f64 equality with a fresh extractor on that block.
fn assert_reset_matches_fresh(
    cfg: &FemuxConfig,
    series: &[f64],
    exec_secs: f64,
    label: &str,
) {
    let mut inc = IncrementalExtractor::new(
        cfg.block_len,
        exec_secs,
        &cfg.features,
    );
    let mut boundaries = 0;
    for (t, &v) in series.iter().enumerate() {
        if let Some(out) = inc.push(v) {
            let block = Block {
                app_index: 0,
                seq: boundaries,
                series: series[t + 1 - cfg.block_len..t + 1].to_vec(),
                exec_secs,
            };
            let fresh = extract(&block, &cfg.features);
            assert_eq!(out.seq, fresh.seq, "{label}: sequence number");
            assert_eq!(out.features.len(), fresh.features.len());
            for (k, (f, o)) in
                fresh.features.iter().zip(&out.features).enumerate()
            {
                assert_eq!(
                    f.to_bits(),
                    o.to_bits(),
                    "{label}: feature {:?} diverged at block {}: \
                     fresh {f} vs long-lived {o}",
                    cfg.features[k],
                    out.seq
                );
            }
            assert_eq!(out.idle, fresh.idle, "{label}: idle bit");
            boundaries += 1;
        }
    }
    assert_eq!(boundaries, series.len() / cfg.block_len, "{label}");
}

/// Per-minute series and mean execution time (s) of IBM-like apps.
fn ibm_series(seed: u64, apps: usize) -> Vec<(Vec<f64>, f64)> {
    let trace = generate(&IbmFleetConfig::small(seed));
    trace
        .apps
        .iter()
        .take(apps)
        .map(|app| {
            (concurrency_per_minute(&app.invocations, trace.span_ms), 0.5)
        })
        .collect()
}

/// Per-minute series and mean execution time (s) of Azure-like apps.
fn azure_series(seed: u64, apps: usize) -> Vec<(Vec<f64>, f64)> {
    let fleet = azure::generate(&AzureFleetConfig::small(seed));
    fleet
        .apps
        .iter()
        .take(apps)
        .map(|app| {
            let exec_ms =
                app.daily_avg_exec_ms.first().copied().unwrap_or(500.0);
            let series = app.minute_counts.iter().map(|&c| c as f64);
            (series.collect(), exec_ms / 1_000.0)
        })
        .collect()
}

/// Sweeps [`assert_reset_matches_fresh`] over `apps`, each cut to at
/// most `blocks` blocks and required to span at least two.
fn sweep_reset(
    cfg: &FemuxConfig,
    apps: &[(Vec<f64>, f64)],
    blocks: usize,
    fleet: &str,
) {
    assert!(!apps.is_empty(), "the sweep must cover real apps");
    for (i, (series, exec_secs)) in apps.iter().enumerate() {
        let len = series.len().min(blocks.saturating_mul(cfg.block_len));
        let label = format!("{fleet} app {i}, block {}", cfg.block_len);
        assert!(len >= 2 * cfg.block_len, "{label}: under two blocks");
        assert_reset_matches_fresh(cfg, &series[..len], *exec_secs, &label);
    }
}

#[test]
fn one_extractor_matches_fresh_ones_over_ibm_fleet() {
    let _lock = lock();
    let cfg = FemuxConfig::for_tests();
    sweep_reset(&cfg, &ibm_series(17, 20), usize::MAX, "ibm");
}

#[test]
fn one_extractor_matches_fresh_ones_over_azure_fleet() {
    let _lock = lock();
    let cfg = FemuxConfig::for_tests();
    sweep_reset(&cfg, &azure_series(23, 20), usize::MAX, "azure");
}

#[test]
fn one_extractor_matches_fresh_ones_under_paper_config() {
    // 504-step blocks, the configuration behind the paper's numbers;
    // three blocks per app keeps the per-block extraction cheap.
    let _lock = lock();
    let cfg = FemuxConfig::default();
    sweep_reset(&cfg, &ibm_series(17, 4), 3, "ibm");
    sweep_reset(&cfg, &azure_series(23, 4), 3, "azure");
}

#[test]
fn clamped_out_of_order_trace_serves_deterministically() {
    let _lock = lock();
    let mut trace = fleet_trace();
    // Corrupt one app's stream with a late timestamp.
    let invs = &mut trace.apps[0].invocations;
    assert!(invs.len() >= 2, "fleet app must have traffic");
    let mid = invs.len() / 2;
    invs[mid] = Invocation {
        start_ms: invs[mid - 1].start_ms.saturating_sub(1),
        ..invs[mid]
    };
    assert!(!trace.apps[0].is_sorted(), "corruption must take");
    let model = model();
    // Reject refuses the corrupted stream outright.
    assert!(run(
        &trace,
        model.clone(),
        &ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        }
    )
    .is_err());
    // Clamp serves it, surfaces the count, and stays shard-invariant.
    let serve = |shards: usize| {
        run(
            &trace,
            model.clone(),
            &ServeConfig {
                shards,
                ingest: MonotonePolicy::Clamp,
                ..ServeConfig::default()
            },
        )
        .expect("clamp policy accepts the trace")
    };
    let one = serve(1);
    let eight = serve(8);
    assert!(one.clamped_timestamps > 0);
    assert_eq!(one.clamped_timestamps, eight.clamped_timestamps);
    assert_eq!(one.digest(), eight.digest());
}
