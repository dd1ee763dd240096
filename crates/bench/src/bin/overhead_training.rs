//! §4.3.6 / §5.1.1 — Training and inference overhead.
//!
//! Measures FeMux's offline pipeline (forecast labelling, feature
//! extraction, classifier fit) and per-forecast inference latency, and
//! compares with Aquatope's per-application LSTM training and inference.
//! The paper: FeMux feature extraction <5 ms/block, classification
//! <10 min for 13 k apps, inference <7 ms mean; Aquatope trains 4x
//! slower and infers 109-308 ms (~28x slower).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this binary reports wall-clock training and inference times"
)]

use std::time::Instant;

use femux::model::{label_fleet, train_from_labels, ClassifierKind};
use femux_baselines::aquatope::AquatopePolicy;
use femux_bench::table::{f1, f3, print_table};
use femux_bench::{azure_setup, Scale};
use femux_forecast::{Forecaster, ForecasterKind};

fn main() {
    let _obs = femux_bench::obs::session();
    let scale = Scale::from_env();
    let setup = azure_setup(scale);
    let cfg = setup.femux_config();
    let train_apps = setup.train_apps();

    // --- FeMux offline pipeline. ---
    eprintln!("labelling {} training apps...", train_apps.len());
    let labelled = label_fleet(&train_apps, &cfg);
    let model =
        train_from_labels(&labelled, &cfg, ClassifierKind::KMeans)
            .expect("model trains");
    print_table(
        "FeMux offline training (paper: feature extraction <5 ms/block; \
         clustering <10 min for 13k apps)",
        &["stage", "seconds", "per block ms"],
        &[
            vec![
                "forecast labelling".into(),
                f1(model.stats.labelling_secs),
                f3(1_000.0 * model.stats.labelling_secs
                    / model.stats.n_blocks.max(1) as f64),
            ],
            vec![
                "feature extraction".into(),
                f3(model.stats.feature_secs),
                f3(1_000.0 * model.stats.feature_secs
                    / model.stats.n_blocks.max(1) as f64),
            ],
            vec![
                "classifier fit".into(),
                f3(model.stats.fit_secs),
                f3(1_000.0 * model.stats.fit_secs
                    / model.stats.n_blocks.max(1) as f64),
            ],
        ],
    );
    println!(
        "blocks: {}, apps: {}",
        model.stats.n_blocks, model.stats.n_apps
    );

    // --- Inference latency per forecaster (2-hour window). ---
    let history: Vec<f64> = (0..120)
        .map(|t| 2.0 + (t as f64 * 0.21).sin().abs() * 3.0)
        .collect();
    let mut rows = Vec::new();
    for kind in ForecasterKind::FEMUX_SET {
        let mut f = kind.build();
        // Warm up, then time.
        let _ = f.forecast(&history, 1);
        let n = 50;
        let t0 = Instant::now();
        for _ in 0..n {
            std::hint::black_box(f.forecast(&history, 1));
        }
        let ms = t0.elapsed().as_secs_f64() * 1_000.0 / n as f64;
        rows.push(vec![kind.to_string(), f3(ms)]);
    }
    print_table(
        "FeMux per-forecast inference latency (paper: <7 ms mean)",
        &["forecaster", "mean ms"],
        &rows,
    );

    // --- Aquatope cost profile. ---
    // Deliberately sequential: this loop *measures* per-app training
    // wall clock, and concurrent LSTM fits would contend for cores and
    // inflate the very numbers being reported. The FeMux side above
    // already exercises the parallel pipeline via `label_fleet`.
    let n_lstm = match scale {
        Scale::Small => 5,
        _ => 20,
    };
    let mut train_total = 0.0;
    let mut infer_total_ms = 0.0;
    let mut inferences = 0usize;
    for (i, app) in train_apps.iter().take(n_lstm).enumerate() {
        let t0 = Instant::now();
        let (policy, _) =
            AquatopePolicy::train(&app.concurrency, 0xAC0A + i as u64);
        train_total += t0.elapsed().as_secs_f64();
        // Inference timing through the underlying LSTM-backed policy is
        // exercised via its forecaster; reuse the public API by timing
        // one decision-equivalent forecast window.
        drop(policy);
        let mut lstm = femux_forecast::lstm::LstmForecaster::new(
            femux_forecast::lstm::LstmConfig::default(),
        );
        lstm.train(&app.concurrency);
        let window = &app.concurrency[..120.min(app.concurrency.len())];
        let t1 = Instant::now();
        for _ in 0..10 {
            std::hint::black_box(lstm.forecast(window, 1));
        }
        infer_total_ms += t1.elapsed().as_secs_f64() * 100.0;
        inferences += 10;
    }
    let femux_train =
        model.stats.labelling_secs + model.stats.feature_secs + model.stats.fit_secs;
    print_table(
        "Aquatope vs FeMux cost profile (paper: training 4x slower, \
         inference ~28x slower)",
        &["metric", "value"],
        &[
            vec![
                format!("aquatope train s ({n_lstm} apps)"),
                f1(train_total),
            ],
            vec![
                "aquatope train s/app".into(),
                f3(train_total / n_lstm as f64),
            ],
            vec![
                "femux train s (whole fleet)".into(),
                f1(femux_train),
            ],
            vec![
                "femux train s/app".into(),
                f3(femux_train / model.stats.n_apps.max(1) as f64),
            ],
            vec![
                "aquatope inference ms".into(),
                f3(infer_total_ms / inferences.max(1) as f64),
            ],
        ],
    );
}
