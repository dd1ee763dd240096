//! Fig. 11 — FeMux vs prior work, each on its own metrics.
//!
//! Left: FaasCache (greedy-dual cache, swept cache sizes) vs FeMux
//! variants on cold starts vs wasted memory — every FeMux variant should
//! be Pareto-better (paper: FeMux-CS cuts cold starts >64 % vs the
//! 300 GB cache; FeMux cuts RUM 30 % vs the 270 GB cache).
//!
//! Middle: IceBreaker's metrics — service time and keep-alive cost
//! normalized to a 10-minute keep-alive (paper: FeMux-Mem 40 % vs
//! IceBreaker 48 % of the KA cost; service times +170 % vs +266 %;
//! RUM −42 %).
//!
//! Right: Aquatope's metrics — aggregate cold-start percentage and
//! memory allocation normalized to the 10-minute keep-alive (paper:
//! Aquatope allocates 114 % more memory than the 10-min KA with 0.47 %
//! cold starts; all FeMux variants do better on both; RUM −78 %).
//!
//! All systems replay the same held-out Azure-like applications through
//! request-level simulation with a fixed 808 ms cold start.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::manager::FemuxPolicy;
use femux_baselines::aquatope::AquatopePolicy;
use femux_baselines::faascache::{self, FaasCacheConfig};
use femux_baselines::icebreaker::IceBreakerPolicy;
use femux_bench::table::{delta_pct, f1, pct, print_table};
use femux_bench::{azure_setup, Scale};
use femux_rum::{CostRecord, RumSpec};
use femux_sim::{run_fleet, KeepAlivePolicy, SimConfig};
use femux_trace::repr::counts_per_minute;
use femux_trace::Trace;

fn main() {
    let _obs = femux_bench::obs::session();
    let scale = Scale::from_env();
    let setup = azure_setup(scale);
    // Materialize the held-out test apps as a millisecond trace
    // (concurrency 1 / single-function apps, as in the paper's
    // FaasCache comparison).
    let full = setup.fleet.to_trace();
    let mut test_trace = Trace::new(full.span_ms);
    for &i in &setup.split.test {
        test_trace.apps.push(full.apps[i].clone());
    }
    let sim_cfg = SimConfig {
        respect_min_scale: false,
        ..SimConfig::default()
    };
    let rum = RumSpec::default_paper();

    // --- FeMux variants (trained once each on the train split). ---
    let variants: Vec<(&str, FemuxConfig)> = vec![
        ("femux", with_scale(&setup, FemuxConfig::default())),
        ("femux-cs", with_scale(&setup, FemuxConfig::cs_variant())),
        ("femux-mem", with_scale(&setup, FemuxConfig::mem_variant())),
    ];
    let mut femux_results: Vec<(String, Vec<CostRecord>)> = Vec::new();
    for (name, cfg) in &variants {
        eprintln!("training {name}...");
        let model = setup.train_femux(cfg);
        let out = run_fleet(&test_trace, &sim_cfg, |_, app| {
            Box::new(FemuxPolicy::new(
                Arc::clone(&model),
                app.invocations
                    .first()
                    .map(|i| i.duration_ms as f64 / 1_000.0)
                    .unwrap_or(1.0),
            ))
        });
        femux_results.push((name.to_string(), out.per_app));
    }

    // --- Panel 1: FaasCache cache-size sweep. ---
    let fleet_mem_gb: f64 = test_trace
        .apps
        .iter()
        .map(|a| a.mem_used_mb as f64 / 1_024.0)
        .sum();
    let mut rows = Vec::new();
    for frac in [0.6, 0.75, 0.9] {
        let capacity_gb = fleet_mem_gb * frac;
        let res = faascache::simulate(
            &test_trace,
            &FaasCacheConfig {
                capacity_gb,
                cold_start_ms: 808,
            },
        );
        rows.push(vec![
            format!("faascache-{capacity_gb:.1}GB"),
            res.total.cold_starts.to_string(),
            f1(res.total.wasted_gb_seconds),
            f1(rum.evaluate_fleet(&res.per_app)),
        ]);
    }
    for (name, per_app) in &femux_results {
        let total = femux_rum::aggregate(per_app.iter());
        rows.push(vec![
            name.clone(),
            total.cold_starts.to_string(),
            f1(total.wasted_gb_seconds),
            f1(rum.evaluate_fleet(per_app.iter())),
        ]);
    }
    print_table(
        "Fig. 11-Left — FeMux vs FaasCache (paper: FeMux Pareto-better; \
         RUM -30% vs mid cache)",
        &["system", "cold starts", "wasted GB-s", "RUM"],
        &rows,
    );

    // --- Panel 2: IceBreaker, normalized to the 10-minute keep-alive. --
    let ka10 = run_fleet(&test_trace, &sim_cfg, |_, _| {
        Box::new(KeepAlivePolicy::ten_minutes())
    });
    let ice = run_fleet(&test_trace, &sim_cfg, |_, _| {
        Box::new(IceBreakerPolicy::new())
    });
    let femux_mem = femux_results
        .iter()
        .find(|(n, _)| n == "femux-mem")
        .expect("variant ran");
    let femux_mem_total = femux_rum::aggregate(femux_mem.1.iter());
    let norm_rows = vec![
        panel2_row("keepalive-10min", &ka10.total, &ka10.total),
        panel2_row("icebreaker", &ice.total, &ka10.total),
        panel2_row("femux-mem", &femux_mem_total, &ka10.total),
    ];
    print_table(
        "Fig. 11-Middle — IceBreaker metrics (paper: keep-alive cost \
         48% (IceBreaker) vs 40% (FeMux-Mem) of 10-min KA; service time \
         +266% vs +170%)",
        &[
            "system",
            "service s",
            "vs KA10 service",
            "alloc GB-s (KA cost)",
            "vs KA10 alloc",
        ],
        &norm_rows,
    );
    println!(
        "RUM: icebreaker {:.1}, femux-mem {:.1} ({} vs icebreaker)",
        rum.evaluate_fleet(&ice.per_app),
        rum.evaluate_fleet(femux_mem.1.iter()),
        delta_pct(
            rum.evaluate_fleet(femux_mem.1.iter()),
            rum.evaluate_fleet(&ice.per_app)
        )
    );

    // --- Panel 3: Aquatope (per-app LSTM, trained on the first 7/12 of
    // the trace). ---
    eprintln!("training {} per-app LSTMs...", test_trace.apps.len());
    let train_ms = test_trace.span_ms * 7 / 12;
    let aqua = run_fleet(&test_trace, &sim_cfg, |i, app| {
        let counts = counts_per_minute(&app.invocations, train_ms);
        let (policy, _) = AquatopePolicy::train(&counts, 0xAC0A + i as u64);
        Box::new(policy)
    });
    let mut rows3 = vec![
        panel3_row("keepalive-10min", &ka10.total, &ka10.total),
        panel3_row("aquatope", &aqua.total, &ka10.total),
    ];
    for (name, per_app) in &femux_results {
        let total = femux_rum::aggregate(per_app.iter());
        rows3.push(panel3_row(name, &total, &ka10.total));
    }
    print_table(
        "Fig. 11-Right — Aquatope metrics (paper: Aquatope allocates \
         114% more than 10-min KA at 0.47% cold starts; every FeMux \
         variant allocates less with fewer cold starts; RUM -78%)",
        &["system", "cold-start %", "alloc vs KA10", "RUM"],
        &rows3,
    );
    println!(
        "RUM: aquatope {:.1}, femux {:.1} ({} vs aquatope)",
        rum.evaluate_fleet(&aqua.per_app),
        rum.evaluate_fleet(femux_results[0].1.iter()),
        delta_pct(
            rum.evaluate_fleet(femux_results[0].1.iter()),
            rum.evaluate_fleet(&aqua.per_app)
        )
    );
}

fn with_scale(
    setup: &femux_bench::EvalSetup,
    cfg: FemuxConfig,
) -> FemuxConfig {
    // Inherit the scale-appropriate block/history settings while keeping
    // the variant's RUM and feature set.
    let base = setup.femux_config();
    FemuxConfig {
        block_len: base.block_len,
        history: base.history,
        label_stride: base.label_stride,
        ..cfg
    }
}

fn panel2_row(
    name: &str,
    total: &CostRecord,
    baseline: &CostRecord,
) -> Vec<String> {
    vec![
        name.into(),
        f1(total.service_seconds),
        delta_pct(total.service_seconds, baseline.service_seconds),
        f1(total.allocated_gb_seconds),
        delta_pct(
            total.allocated_gb_seconds,
            baseline.allocated_gb_seconds,
        ),
    ]
}

fn panel3_row(
    name: &str,
    total: &CostRecord,
    baseline: &CostRecord,
) -> Vec<String> {
    let rum = RumSpec::default_paper();
    vec![
        name.into(),
        pct(total.cold_start_fraction()),
        delta_pct(
            total.allocated_gb_seconds,
            baseline.allocated_gb_seconds,
        ),
        f1(rum.evaluate(total)),
    ]
}
