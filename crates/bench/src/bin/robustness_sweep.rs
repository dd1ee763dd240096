//! Robustness sweep — scaling policies under deterministic fault
//! injection.
//!
//! Replays both synthetic fleets (held-out Azure-like apps and an IBM
//! Cloud Functions fleet) through the simulator with a seeded
//! [`femux_fault::FaultConfig`] at uniform rates {0, 1, 5, 10} %,
//! comparing FeMux (with forecaster faults injected at the manager
//! boundary) against KPA, a 10-minute keep-alive, the Knative default,
//! and IceBreaker. Three properties are checked on every run:
//!
//! 1. **No numerical leakage**: every per-app and fleet-aggregate RUM
//!    value stays finite at every fault rate — injected `NaN` reports
//!    and forecaster garbage must be absorbed by the degradation paths,
//!    never surfacing in experiment output.
//! 2. **Plan accounting**: the grand total of `FleetOutcome::fault_totals`
//!    across all runs matches the `fault.*` telemetry counters exactly —
//!    every injection is observed, none double-counted.
//! 3. **Thread invariance** (via CI): `--metrics-out` writes the merged
//!    metrics JSON, which must be byte-identical at any `FEMUX_THREADS`.
//!
//! Fairness caveat: KPA runs at its native 2 s tick while the other
//! policies decide per minute, so at equal per-tick rates KPA's plan
//! draws ~30x more often per pod. The comparison is therefore about
//! graceful degradation of each system at its own cadence, not a
//! per-fault-count-matched benchmark.
//!
//! After the policy sweep, a **cluster fault-domain sweep** replays the
//! IBM fleet on finite clusters of {4, 16, 64} nodes at node-crash
//! rates {0, 1, 5} % per tick: memory pressure forces evictions on the
//! small clusters while whole-node crashes displace and restart pods on
//! the large ones. The same three properties hold, with the plan
//! accounting extended to the cluster ledger: node-crash draws that
//! fired must equal both the `fault.node_crashes` telemetry counter and
//! the sum of per-app cluster ledgers, and every eviction, overcommit,
//! denial, and restart in telemetry must match the ledgers exactly.
//!
//! Flags: `--fault-rate <f>` replaces the default rate sweep with a
//! single rate; `--metrics-out <path>` writes the final metrics JSON;
//! `--quick` shrinks the cluster grid to its corners ({4, 64} nodes ×
//! {0, 5} %) for CI.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::manager::FemuxPolicy;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_baselines::icebreaker::IceBreakerPolicy;
use femux_bench::table::{f1, print_table};
use femux_bench::{azure_setup, Scale};
use femux_fault::{FaultConfig, FaultStats};
use femux_knative::{KpaConfig, KpaPolicy};
use femux_rum::RumSpec;
use femux_sim::{
    run_fleet, run_fleet_detailed, ClusterConfig, ClusterOutcome,
    FleetOutcome, KeepAlivePolicy, KnativeDefaultPolicy, NodeConfig,
    SimConfig,
};
use femux_trace::repr::concurrency_per_minute;
use femux_trace::synth::ibm::{generate, IbmFleetConfig};
use femux_trace::Trace;

/// Root seed of every fault plan, so the rate is the only variable
/// across sweep points.
const FAULT_SEED: u64 = 0xFA_017;

/// Seed of the IBM fleet (distinct from other experiments' fleets).
const IBM_SEED: u64 = 0x1B3A;

const POLICIES: [&str; 5] =
    ["femux", "kpa", "keepalive-10min", "knative-default", "icebreaker"];

fn main() {
    let mut rates = vec![0.0, 0.01, 0.05, 0.10];
    let mut metrics_out: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-rate" => {
                let v = args
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .expect("--fault-rate takes a probability");
                // A NaN or out-of-range rate is no plan at all: refuse
                // it here, naming the rule it breaks.
                if let Err(why) = FaultConfig::uniform(FAULT_SEED, v).validate()
                {
                    eprintln!("--fault-rate {v}: {why}");
                    std::process::exit(2);
                }
                rates = vec![v];
            }
            "--metrics-out" => {
                metrics_out =
                    Some(args.next().expect("--metrics-out takes a path"));
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    // Counters are collected once at the end (property 2 and
    // `--metrics-out`); `ObsSession` would drain them on drop, so this
    // bin manages the switch itself.
    femux_obs::set_enabled(true);
    drop(femux_obs::collect());

    let rum = RumSpec::default_paper();
    let mut grand = FaultStats::default();
    let mut rows = Vec::new();

    eprintln!("building fleets + training FeMux...");
    let setup = azure_setup(Scale::from_env());
    let azure_model = setup.train_femux(&setup.femux_config());
    let full = setup.fleet.to_trace();
    let mut azure_trace = Trace::new(full.span_ms);
    for &i in &setup.split.test {
        azure_trace.apps.push(full.apps[i].clone());
    }
    let ibm_trace = generate(&IbmFleetConfig::small(IBM_SEED));
    let ibm_model = train_ibm(&ibm_trace);

    let fleets: [(&str, &Trace, &Arc<FemuxModel>); 2] = [
        ("azure", &azure_trace, &azure_model),
        ("ibm", &ibm_trace, &ibm_model),
    ];
    for (fleet_name, trace, model) in fleets {
        for &rate in &rates {
            let plan = FaultConfig::uniform(FAULT_SEED, rate);
            plan.validate().expect("uniform plan is sane");
            for policy in POLICIES {
                let out = run_policy(policy, trace, model, &plan);
                check_finite(&rum, &out, fleet_name, policy, rate);
                grand.merge(&out.fault_totals);
                rows.push(vec![
                    fleet_name.to_string(),
                    format!("{:.0}%", rate * 100.0),
                    policy.to_string(),
                    f1(rum.evaluate_fleet(&out.per_app)),
                    out.total.cold_starts.to_string(),
                    out.fault_totals.total().to_string(),
                ]);
            }
            eprintln!("{fleet_name} @ {:.0}% done", rate * 100.0);
        }
    }
    print_table(
        "Robustness sweep — RUM under injected faults (KPA draws at its \
         native 2 s tick; see module docs)",
        &["fleet", "rate", "system", "RUM", "cold starts", "faults"],
        &rows,
    );

    // Cluster fault-domain sweep: finite nodes, memory-pressure
    // eviction, and whole-node crash/recovery on the IBM fleet.
    let (node_counts, node_rates): (&[usize], &[f64]) = if quick {
        (&[4, 64], &[0.0, 0.05])
    } else {
        (&[4, 16, 64], &[0.0, 0.01, 0.05])
    };
    let mut ledger = ClusterOutcome::default();
    let mut cluster_rows = Vec::new();
    for &nodes in node_counts {
        for &rate in node_rates {
            // Only the node layer varies: pod-level rates stay zero so
            // every injection in this phase is attributable to it.
            let plan = FaultConfig {
                node_crash_rate: rate,
                node_recovery_ticks: 2,
                ..FaultConfig::off(FAULT_SEED)
            };
            plan.validate().expect("node plan is sane");
            for policy in ["keepalive-10min", "knative-default"] {
                let cfg = SimConfig {
                    respect_min_scale: false,
                    faults: Some(plan.clone()),
                    // ~4 median pods per node: the 4-node points run
                    // under real memory pressure, the 64-node points
                    // are crash-dominated.
                    cluster: Some(ClusterConfig::uniform(
                        nodes,
                        NodeConfig {
                            cpu_milli: u64::MAX,
                            mem_mb: 600,
                        },
                    )),
                    ..SimConfig::default()
                };
                let results =
                    run_fleet_detailed(&ibm_trace, &cfg, |_, _| {
                        match policy {
                            "keepalive-10min" => Box::new(
                                KeepAlivePolicy::ten_minutes(),
                            ),
                            _ => Box::new(KnativeDefaultPolicy),
                        }
                    });
                let per_app: Vec<_> =
                    results.iter().map(|r| r.costs).collect();
                check_finite_records(
                    &rum,
                    &per_app,
                    "ibm-cluster",
                    policy,
                    rate,
                );
                let mut scenario = ClusterOutcome::default();
                for r in &results {
                    grand.merge(&r.faults);
                    let c = r
                        .cluster
                        .as_ref()
                        .expect("cluster configured, ledger present");
                    assert!(
                        c.conserved(),
                        "{policy} @ {nodes}n/{rate}: ledger leak: {c:?}"
                    );
                    // Plan vs ledger: the draws the fault layer says
                    // fired are the crashes the cluster recorded.
                    assert_eq!(
                        r.faults.node_crashes, c.node_crashes,
                        "{policy} @ {nodes}n/{rate}: plan and ledger \
                         disagree on node crashes"
                    );
                    scenario.absorb(c);
                }
                ledger.absorb(&scenario);
                cluster_rows.push(vec![
                    nodes.to_string(),
                    format!("{:.0}%", rate * 100.0),
                    policy.to_string(),
                    f1(rum.evaluate_fleet(&per_app)),
                    scenario.evictions.to_string(),
                    scenario.saturated_overcommits.to_string(),
                    scenario.node_crashes.to_string(),
                    scenario.node_restarts.to_string(),
                ]);
            }
            eprintln!("ibm-cluster {nodes}n @ {:.0}% done", rate * 100.0);
        }
    }
    print_table(
        "Cluster fault domains — IBM fleet on finite nodes (600 MB \
         each) under per-tick node-crash rates",
        &[
            "nodes",
            "crash rate",
            "system",
            "RUM",
            "evictions",
            "saturated",
            "node crashes",
            "restarts",
        ],
        &cluster_rows,
    );
    assert!(
        ledger.evictions > 0,
        "the 4-node scenarios must exercise memory-pressure eviction"
    );
    assert!(
        ledger.node_crashes > 0 && ledger.node_restarts > 0,
        "the nonzero-rate scenarios must crash and restart"
    );

    // Property 2: telemetry must account for every injection in the
    // merged fault totals, class by class — including the cluster
    // ledger's eviction and restart counts.
    let report = femux_obs::collect();
    let classes = [
        ("fault.pod_crashes", grand.pod_crashes),
        ("fault.cold_stragglers", grand.cold_stragglers),
        ("fault.actuation_delays", grand.actuation_delays),
        ("fault.actuation_drops", grand.actuation_drops),
        ("fault.report_losses", grand.report_losses),
        ("fault.forecast_faults", grand.forecast_faults),
        ("fault.node_crashes", grand.node_crashes),
        ("fault.node_restarts", ledger.node_restarts),
        ("evict.evictions", ledger.evictions),
        ("evict.saturated_overcommits", ledger.saturated_overcommits),
        ("evict.placement_denials", ledger.placement_denials),
    ];
    let mut ok = true;
    for (name, want) in classes {
        let got = report.counters.get(name).copied().unwrap_or(0);
        if got != want {
            eprintln!("counter mismatch: {name} = {got}, plan says {want}");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!(
        "fault accounting: {} injections, telemetry matches the plan",
        grand.total()
    );
    if let Some(path) = metrics_out {
        std::fs::write(&path, report.metrics_json())
            .expect("metrics file is writable");
        eprintln!("wrote {path}");
    }
}

/// Runs one policy over the fleet with the fault plan installed.
#[expect(
    clippy::panic,
    reason = "every name comes from the POLICIES constant"
)]
fn run_policy(
    policy: &str,
    trace: &Trace,
    model: &Arc<FemuxModel>,
    plan: &FaultConfig,
) -> FleetOutcome {
    let cfg = SimConfig {
        // KPA decides at its native 2 s tick; everything else per
        // minute.
        interval_ms: if policy == "kpa" { 2_000 } else { 60_000 },
        respect_min_scale: false,
        faults: Some(plan.clone()),
        ..SimConfig::default()
    };
    run_fleet(trace, &cfg, |_, app| match policy {
        "femux" => Box::new(FemuxPolicy::with_faults(
            Arc::clone(model),
            app.invocations
                .first()
                .map(|i| i.duration_ms as f64 / 1_000.0)
                .unwrap_or(1.0),
            plan.forecast_faults(app.id),
        )),
        "kpa" => Box::new(KpaPolicy::new(KpaConfig::default())),
        "keepalive-10min" => Box::new(KeepAlivePolicy::ten_minutes()),
        "knative-default" => Box::new(KnativeDefaultPolicy),
        "icebreaker" => Box::new(IceBreakerPolicy::new()),
        other => panic!("unknown policy {other:?}"),
    })
}

/// Property 1: no injected fault may leak a non-finite value into any
/// cost record or RUM score.
fn check_finite(
    rum: &RumSpec,
    out: &FleetOutcome,
    fleet: &str,
    policy: &str,
    rate: f64,
) {
    check_finite_records(rum, &out.per_app, fleet, policy, rate);
    assert!(
        out.total.allocated_gb_seconds.is_finite()
            && out.total.wasted_gb_seconds.is_finite()
            && out.total.service_seconds.is_finite(),
        "{fleet}/{policy} @ {rate}: non-finite fleet totals"
    );
}

/// The per-record half of [`check_finite`], shared with the cluster
/// sweep (which aggregates its own records from detailed results).
fn check_finite_records(
    rum: &RumSpec,
    per_app: &[femux_rum::CostRecord],
    fleet: &str,
    policy: &str,
    rate: f64,
) {
    for (i, rec) in per_app.iter().enumerate() {
        let score = rum.evaluate(rec);
        assert!(
            score.is_finite(),
            "{fleet}/{policy} @ {rate}: app {i} RUM is {score}"
        );
        assert!(
            rec.allocated_gb_seconds.is_finite()
                && rec.wasted_gb_seconds.is_finite()
                && rec.service_seconds.is_finite(),
            "{fleet}/{policy} @ {rate}: non-finite costs for app {i}"
        );
    }
    let fleet_rum = rum.evaluate_fleet(per_app);
    assert!(
        fleet_rum.is_finite(),
        "{fleet}/{policy} @ {rate}: fleet RUM is {fleet_rum}"
    );
}

/// Trains a FeMux model on the IBM fleet (every third app, so training
/// stays cheap while covering the fleet's workload mix).
fn train_ibm(trace: &Trace) -> Arc<FemuxModel> {
    let apps: Vec<TrainApp> = trace
        .apps
        .iter()
        .step_by(3)
        .map(|a| TrainApp {
            concurrency: concurrency_per_minute(
                &a.invocations,
                trace.span_ms,
            ),
            exec_secs: a
                .invocations
                .first()
                .map(|i| i.duration_ms as f64 / 1_000.0)
                .unwrap_or(1.0),
            mem_gb: a.mem_used_mb as f64 / 1_024.0,
            pod_concurrency: 1,
        })
        .collect();
    let cfg = FemuxConfig {
        block_len: 360,
        history: 120,
        label_stride: 15,
        ..FemuxConfig::default()
    };
    Arc::new(
        train(&apps, &cfg, ClassifierKind::KMeans)
            .expect("IBM fleet yields training blocks"),
    )
}
