//! FeMux: a forecaster-multiplexing serverless lifetime manager.
//!
//! FeMux (the paper's primary contribution, §4.3) periodically extracts
//! latent features from each application's traffic, classifies the
//! completed block with a model trained offline on fleet-level traces,
//! and switches the application to the forecaster best suited to its
//! current behaviour — optimizing a Representative Unified Metric (RUM)
//! end to end rather than a generic error metric.
//!
//! - [`config`]: the knobs (block length 504 min, 2 h history, the
//!   forecaster set, RUM weights).
//! - [`label`]: offline forecast simulation and the capacity-cost model
//!   that turns forecast errors into cold starts and wasted GB-seconds.
//! - [`model`]: the training pipeline (label → features → scale →
//!   k-means → per-cluster forecaster).
//! - [`manager`]: the online per-app manager and the simulator policy.
//!
//! # Examples
//!
//! ```
//! use femux::config::FemuxConfig;
//! use femux::model::{train, ClassifierKind, TrainApp};
//!
//! let apps: Vec<TrainApp> = (0..4)
//!     .map(|_| TrainApp {
//!         concurrency: (0..600)
//!             .map(|t| 2.0 + (t as f64 * 0.26).sin().max(-1.0))
//!             .collect(),
//!         exec_secs: 0.5,
//!         mem_gb: 0.5,
//!         pod_concurrency: 1,
//!     })
//!     .collect();
//! let cfg = FemuxConfig::for_tests();
//! let model = train(&apps, &cfg, ClassifierKind::KMeans).unwrap();
//! assert!(model.stats.n_blocks > 0);
//! ```

pub mod config;
pub mod degrade;
pub mod label;
pub mod manager;
pub mod model;
pub mod tiers;

pub use config::FemuxConfig;
pub use degrade::{DegradeLadder, LadderDecision};
pub use manager::{AppManager, FemuxPolicy};
pub use model::{
    label_fleet, train, train_from_labels, Classifier, ClassifierKind,
    FemuxModel, LabelledBlocks, TrainApp, TrainStats,
};
pub use tiers::{TierModel, TieredDeployment};
