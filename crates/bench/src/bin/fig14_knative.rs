//! Fig. 14 — The Knative prototype evaluation (§5.2).
//!
//! Left: the 100-app evaluation subtrace's volume distribution follows
//! the full fleet's. Mid-left: per-app cold-start percentage, FeMux vs
//! Knative's default KPA (paper: >50 % reduction for over 25 % of apps).
//! Mid-right: aggregate RUM (paper: −36 %). Right: FeMux-pod capacity
//! (paper: 1,200 apps per 1-vCPU pod at 7 ms mean / 25 ms p99 per
//! forecast), served by the real per-app controller on `femux-serve`:
//! one shard per pod, wall-clock tick latency per shard.

use std::sync::Arc;

use femux_bench::table::{delta_pct, f1, pct, print_series, print_table};
use femux_bench::{azure_setup, capacity_fleet, Scale};
use femux_knative::{FemuxKnativePolicy, KpaConfig, KpaPolicy};
use femux_rum::RumSpec;
use femux_serve::harness::{run, ServeConfig};
use femux_sim::{run_fleet, SimConfig};
use femux_stats::desc::Summary;
use femux_trace::split::representative_sample;
use femux_trace::Trace;

fn main() {
    let _obs = femux_bench::obs::session();
    let setup = azure_setup(Scale::from_env());
    let full = setup.fleet.to_trace();

    // --- Left: representative 100-app subtrace. ---
    let volumes: Vec<u64> = setup
        .fleet
        .apps
        .iter()
        .map(|a| a.total_invocations())
        .collect();
    let k = 100.min(volumes.len());
    let chosen = representative_sample(&volumes, k, 0xF1614);
    let mut sub = Trace::new(full.span_ms);
    for &i in &chosen {
        sub.apps.push(full.apps[i].clone());
    }
    let mut full_sorted: Vec<f64> =
        volumes.iter().map(|&v| v as f64).collect();
    full_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut sub_sorted: Vec<f64> = chosen
        .iter()
        .map(|&i| volumes[i] as f64)
        .collect();
    sub_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let deciles: Vec<(f64, f64)> = (1..10)
        .map(|d| {
            let q = d as f64 / 10.0;
            (
                femux_stats::desc::quantile_sorted(&full_sorted, q),
                femux_stats::desc::quantile_sorted(&sub_sorted, q),
            )
        })
        .collect();
    print_series(
        "Fig. 14-Left — volume deciles (x = full fleet, y = subtrace)",
        &deciles,
    );

    // --- Mid panels: FeMux vs KPA on the subtrace at 2 s ticks. ---
    eprintln!("training FeMux...");
    let model = setup.train_femux(&setup.femux_config());
    let sim_cfg = SimConfig {
        interval_ms: 2_000,
        respect_min_scale: false,
        ..SimConfig::default()
    };
    eprintln!("replaying subtrace under KPA...");
    let kpa_out = run_fleet(&sub, &sim_cfg, |_, _| {
        Box::new(KpaPolicy::new(KpaConfig::default()))
    });
    eprintln!("replaying subtrace under FeMux...");
    let femux_out = run_fleet(&sub, &sim_cfg, |_, app| {
        Box::new(FemuxKnativePolicy::new(
            Arc::clone(&model),
            app.invocations
                .first()
                .map(|i| i.duration_ms as f64 / 1_000.0)
                .unwrap_or(1.0),
        ))
    });
    // Per-app cold-start fraction comparison.
    let mut halved = 0usize;
    let mut improved = 0usize;
    let mut active = 0usize;
    let mut cdf_points = Vec::new();
    for (f, k) in femux_out.per_app.iter().zip(&kpa_out.per_app) {
        if k.invocations == 0 {
            continue;
        }
        active += 1;
        let (ff, kf) =
            (f.cold_start_fraction(), k.cold_start_fraction());
        if ff <= kf {
            improved += 1;
        }
        if kf > 0.0 && ff <= 0.5 * kf {
            halved += 1;
        }
        cdf_points.push(if kf > 0.0 { ff / kf } else { 1.0 });
    }
    let ecdf = femux_stats::desc::Ecdf::new(&cdf_points);
    let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 10.0).collect();
    print_series(
        "Fig. 14-MidLeft — CDF of (FeMux CS% / Knative CS%) per app",
        &ecdf.curve(&xs),
    );

    let rum = RumSpec::default_paper();
    let femux_rum = rum.evaluate_fleet(&femux_out.per_app);
    let kpa_rum = rum.evaluate_fleet(&kpa_out.per_app);
    print_table(
        "Fig. 14-Mid — summary (paper: CS% halved for >25% of apps; \
         aggregate RUM -36%)",
        &["metric", "value"],
        &[
            vec![
                "apps with CS% halved".into(),
                pct(halved as f64 / active.max(1) as f64),
            ],
            vec![
                "apps with CS% maintained or improved".into(),
                pct(improved as f64 / active.max(1) as f64),
            ],
            vec!["femux RUM".into(), f1(femux_rum)],
            vec!["knative default RUM".into(), f1(kpa_rum)],
            vec![
                "RUM change".into(),
                delta_pct(femux_rum, kpa_rum),
            ],
            vec![
                "femux cold starts".into(),
                femux_out.total.cold_starts.to_string(),
            ],
            vec![
                "knative cold starts".into(),
                kpa_out.total.cold_starts.to_string(),
            ],
        ],
    );

    // --- Right: FeMux-pod capacity on the serving harness. ---
    // Each pod is one shard running `AppManager` for its apps under the
    // model trained above. The run crosses exactly one block boundary,
    // where every app extracts features and re-classifies at once;
    // every other tick ingests one sample and forecasts per app.
    let block_len = model.cfg.block_len;
    let steps = block_len + 60;
    let mut rows = Vec::new();
    for (pods, apps) in
        [(1, 600), (1, 1_200), (1, 2_400), (2, 2_400), (4, 4_800)]
    {
        eprintln!("serving {apps} apps on {pods} shard(s)...");
        let report = run(
            &capacity_fleet(apps, steps),
            Arc::clone(&model),
            &ServeConfig {
                shards: pods,
                measure_latency: true,
                ..ServeConfig::default()
            },
        )
        .expect("synthetic traces are time-sorted");
        let mut steady_ms = Vec::new();
        let mut boundary_us = 0u64;
        for shard in &report.tick_wall_us {
            for (t, &us) in shard.iter().enumerate() {
                if (t + 1) % block_len == 0 {
                    boundary_us = boundary_us.max(us);
                } else {
                    steady_ms.push(us as f64 / 1_000.0);
                }
            }
        }
        let steady =
            Summary::of(&steady_ms).expect("every shard serves steady ticks");
        let apps_per_shard = apps as f64 / pods as f64;
        rows.push(vec![
            pods.to_string(),
            apps.to_string(),
            f1(steady.p50),
            f1(steady.p99),
            f1(boundary_us as f64 / 1_000.0),
            f1(steady.p50 * 1_000.0 / apps_per_shard),
        ]);
    }
    print_table(
        "Fig. 14-Right — FeMux pod capacity, one serving shard per pod \
         (paper: 1,200 apps/pod at 7 ms mean / 25 ms p99 per forecast; \
         graceful horizontal scale-out)",
        &[
            "pods",
            "apps",
            "steady p50 ms",
            "steady p99 ms",
            "boundary ms",
            "us/app-tick",
        ],
        &rows,
    );
}
