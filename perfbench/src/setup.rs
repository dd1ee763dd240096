//! Seeded input generation.
//!
//! Every fleet's population — which apps, their archetypes, volumes and
//! memory — comes from a fixed reference seed. The workload seed then
//! rotates each app's trace in time by its own seeded whole-minute
//! offset ([`rotate`]). Rotation keeps every app's volume and shape, so
//! two seeds cost comparable work, but it moves every arrival, idle gap
//! and block boundary relative to the others, so each seed is new
//! traffic for the controller and the engine. Drawing whole populations
//! per seed instead would let a handful of heavy apps, or one changed
//! forecaster choice, swing a metric by tens of percent.
//!
//! The model is trained on the reference train split, unrotated: it is
//! part of the deployment under test, like its code.

use femux::model::TrainApp;
use femux_trace::split::train_test_split;
use femux_trace::synth::azure::{self, AzureFleetConfig};
use femux_trace::synth::ibm::{self, IbmFleetConfig};
use femux_trace::types::{AppRecord, Trace};

/// Serving steps: three 504-step paper blocks, so every round crosses
/// three block boundaries (steps 503, 1007 and 1511).
pub const SERVE_STEPS: usize = 3 * 504;
/// Apps on the one serving shard.
pub const SERVE_APPS: usize = 32;
/// Apps in the Azure-like §5.1 fleet (70-30 train/test split, the
/// train half halved again into train and validation).
pub const AZURE_APPS: usize = 48;
/// Days in the Azure-like §5.1 fleet: five 504-step blocks per app
/// after the 120-step history.
pub const AZURE_DAYS: usize = 2;
/// Root of the reference seeds that fix every fleet's population.
pub const REFERENCE_SEED: u64 = 0xA2E_5EED;

const MINUTE_MS: u64 = 60_000;

/// Every input of one run.
pub struct Inputs {
    /// The Azure-like train split in FeMux's training representation.
    pub train_apps: Vec<TrainApp>,
    /// The Azure-like test split as a millisecond trace.
    pub test_trace: Trace,
    /// The IBM-like serving fleet, truncated to [`SERVE_STEPS`] minutes.
    pub serve_trace: Trace,
    /// Dense IBM-like 3-day fleet.
    pub ibm_dense: Trace,
    /// Bursty Azure-like 4-day fleet.
    pub azure_bursty: Trace,
    /// Sparse, idle-heavy IBM-like 62-day fleet.
    pub ibm_sparse: Trace,
}

/// SplitMix64 finalizer: decorrelates the streams derived from one
/// seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rotates an app's arrivals in time: every start moves to
/// `(start + offset_ms) mod span_ms`, and the arrival order stays
/// sorted. Counts, durations and the app's configuration are kept.
///
/// # Panics
///
/// Panics if `span_ms` is zero.
pub fn rotate(app: &mut AppRecord, span_ms: u64, offset_ms: u64) {
    assert!(span_ms > 0, "a trace span is positive");
    let offset_ms = offset_ms % span_ms;
    // Arrivals before `span - offset` shift right; the rest wrap to the
    // front, so the result is the two sorted runs swapped.
    let wrap = app
        .invocations
        .partition_point(|inv| inv.start_ms % span_ms < span_ms - offset_ms);
    for inv in &mut app.invocations {
        inv.start_ms = (inv.start_ms % span_ms + offset_ms) % span_ms;
    }
    app.invocations.rotate_left(wrap);
}

/// Rotates every app of `trace` by its own whole-minute offset, drawn
/// from `seed` and the app's position.
fn rotate_fleet(trace: &mut Trace, seed: u64) {
    let minutes = (trace.span_ms / MINUTE_MS).max(1);
    for (i, app) in trace.apps.iter_mut().enumerate() {
        let offset = derive_seed(seed, i as u64) % minutes * MINUTE_MS;
        rotate(app, trace.span_ms, offset);
    }
}

/// Generates every trace of a run from the workload seed.
pub fn generate(seed: u64) -> Inputs {
    let fleet = azure::generate(&AzureFleetConfig {
        n_apps: AZURE_APPS,
        days: AZURE_DAYS,
        seed: derive_seed(REFERENCE_SEED, 1),
        rate_scale: 0.5,
    });
    let split = train_test_split(fleet.apps.len(), derive_seed(REFERENCE_SEED, 2));
    let train_apps = split
        .train
        .iter()
        .map(|&i| {
            let a = &fleet.apps[i];
            TrainApp {
                concurrency: a.concurrency_series(),
                exec_secs: a.daily_avg_exec_ms[0] / 1_000.0,
                mem_gb: a.mem_mb as f64 / 1_024.0,
                pod_concurrency: 1,
            }
        })
        .collect();
    let full = fleet.to_trace();
    let mut test_trace = Trace::new(full.span_ms);
    for &i in &split.test {
        test_trace.apps.push(full.apps[i].clone());
    }
    rotate_fleet(&mut test_trace, derive_seed(seed, 1));

    let mut serve_trace = ibm::generate(&IbmFleetConfig {
        n_apps: SERVE_APPS,
        span_days: 2,
        seed: derive_seed(REFERENCE_SEED, 3),
        max_invocations_per_app: 40_000,
        rate_scale: 0.2,
    });
    rotate_fleet(&mut serve_trace, derive_seed(seed, 3));
    let serve_span_ms = SERVE_STEPS as u64 * MINUTE_MS;
    for app in &mut serve_trace.apps {
        app.invocations.retain(|inv| inv.start_ms < serve_span_ms);
    }
    serve_trace.span_ms = serve_span_ms;

    let mut ibm_dense = ibm::generate(&IbmFleetConfig {
        n_apps: 240,
        span_days: 3,
        seed: derive_seed(REFERENCE_SEED, 4),
        max_invocations_per_app: 5_000,
        rate_scale: 0.05,
    });
    rotate_fleet(&mut ibm_dense, derive_seed(seed, 4));
    let mut azure_bursty = azure::generate(&AzureFleetConfig {
        n_apps: 120,
        days: 4,
        seed: derive_seed(REFERENCE_SEED, 5),
        rate_scale: 0.5,
    })
    .to_trace();
    rotate_fleet(&mut azure_bursty, derive_seed(seed, 5));
    let mut ibm_sparse = ibm::generate(&IbmFleetConfig {
        n_apps: 64,
        span_days: 62,
        seed: derive_seed(REFERENCE_SEED, 6),
        max_invocations_per_app: 500,
        rate_scale: 0.005,
    });
    rotate_fleet(&mut ibm_sparse, derive_seed(seed, 6));
    Inputs {
        train_apps,
        test_trace,
        serve_trace,
        ibm_dense,
        azure_bursty,
        ibm_sparse,
    }
}
