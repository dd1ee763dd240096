//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every figure and table of the paper has a binary under `src/bin/`
//! (see `EXPERIMENTS.md` for the index). This library holds what they
//! share: scale presets, the Azure-like evaluation setup of §5.1
//! (fleet, split, FeMux training), the serving-capacity fleet, and
//! plain-text table/series printers that emit the same rows the paper
//! plots.

use std::sync::Arc;

use femux::config::FemuxConfig;
use femux::model::{train, ClassifierKind, FemuxModel, TrainApp};
use femux_trace::split::{train_test_split, Split};
use femux_trace::synth::azure::{generate, AzureFleet, AzureFleetConfig};
use femux_trace::synth::ibm::IbmFleetConfig;
use femux_trace::Trace;

pub mod capacity;
pub mod obs;
pub mod table;

/// Experiment scale, selected with the `FEMUX_SCALE` environment
/// variable (`small`, `medium`, `large`; default `small`).
///
/// `small` finishes in seconds per binary; `medium` is the scale used
/// for the numbers recorded in `EXPERIMENTS.md`; `large` approaches the
/// paper's app counts and takes tens of minutes per binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-binary smoke scale.
    Small,
    /// The EXPERIMENTS.md scale.
    Medium,
    /// Closest to the paper's scale.
    Large,
}

impl Scale {
    /// Reads the scale from `FEMUX_SCALE` (see [`Scale::parse`]). Any
    /// other value aborts the run, so a typo never prints small-scale
    /// tables under a medium-scale heading.
    #[expect(
        clippy::disallowed_methods,
        reason = "FEMUX_SCALE is the documented knob that sizes the figure binaries"
    )]
    pub fn from_env() -> Scale {
        let value = match std::env::var("FEMUX_SCALE") {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(v)) => {
                Some(v.to_string_lossy().into_owned())
            }
        };
        Scale::parse(value.as_deref()).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Parses a `FEMUX_SCALE` value: `small`, `medium` or `large`, and
    /// `small` when unset.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("small") => Ok(Scale::Small),
            Some("medium") => Ok(Scale::Medium),
            Some("large") => Ok(Scale::Large),
            Some(other) => Err(format!(
                "FEMUX_SCALE={other:?} is not one of small, medium, large"
            )),
        }
    }

    /// Number of Azure-like applications for §5.1-style experiments.
    pub fn azure_apps(self) -> usize {
        match self {
            Scale::Small => 60,
            Scale::Medium => 150,
            Scale::Large => 2_000,
        }
    }

    /// Trace span in days.
    pub fn azure_days(self) -> usize {
        match self {
            Scale::Small => 4,
            Scale::Medium => 8,
            Scale::Large => 12,
        }
    }

    /// Number of IBM-like workloads for §3 characterization figures.
    pub fn ibm_apps(self) -> usize {
        match self {
            Scale::Small => 200,
            Scale::Medium => 1_283,
            Scale::Large => 1_283,
        }
    }
}

/// The §5.1 evaluation setup: an Azure-like fleet with a 70-30 split.
pub struct EvalSetup {
    /// The synthetic fleet.
    pub fleet: AzureFleet,
    /// Train/validation/test split over `fleet.apps` indices.
    pub split: Split,
    /// The scale it was built at.
    pub scale: Scale,
}

/// Builds the evaluation fleet for a scale (deterministic).
pub fn azure_setup(scale: Scale) -> EvalSetup {
    let fleet = generate(&AzureFleetConfig {
        n_apps: scale.azure_apps(),
        days: scale.azure_days(),
        seed: 0xA2E_5EED,
        rate_scale: 0.5,
    });
    let split = train_test_split(fleet.apps.len(), 0x5917);
    EvalSetup { fleet, split, scale }
}

impl EvalSetup {
    /// Training apps in FeMux's input representation.
    pub fn train_apps(&self) -> Vec<TrainApp> {
        self.apps_for(&self.split.train)
    }

    /// Test apps in FeMux's input representation.
    pub fn test_apps(&self) -> Vec<TrainApp> {
        self.apps_for(&self.split.test)
    }

    /// Converts fleet apps by index.
    pub fn apps_for(&self, idx: &[usize]) -> Vec<TrainApp> {
        idx.iter()
            .map(|&i| {
                let a = &self.fleet.apps[i];
                TrainApp {
                    concurrency: a.concurrency_series(),
                    exec_secs: a.daily_avg_exec_ms[0] / 1_000.0,
                    mem_gb: a.mem_mb as f64 / 1_024.0,
                    pod_concurrency: 1,
                }
            })
            .collect()
    }

    /// A FemuxConfig appropriate for this setup's scale: the paper's
    /// parameters at medium/large, shrunk blocks at small scale so the
    /// short trace still yields several blocks.
    pub fn femux_config(&self) -> FemuxConfig {
        match self.scale {
            Scale::Small => FemuxConfig {
                block_len: 360,
                history: 120,
                label_stride: 15,
                ..FemuxConfig::default()
            },
            _ => FemuxConfig {
                label_stride: 10,
                ..FemuxConfig::default()
            },
        }
    }

    /// Trains FeMux on the training split under a given config.
    pub fn train_femux(&self, cfg: &FemuxConfig) -> Arc<FemuxModel> {
        Arc::new(
            train(&self.train_apps(), cfg, ClassifierKind::KMeans)
                .expect("training fleet yields blocks"),
        )
    }
}

/// The serving-capacity fleet of Fig. 14-Right: `n_apps` IBM-like apps
/// at a low rate, truncated to `steps` virtual minutes. The fleet is
/// sparse: most of its minutes, and most forecast windows, are idle
/// (EXPERIMENTS.md, Fig. 14-Right, gives the shares). Every size uses
/// the same seed, so growing the fleet only appends apps: the first `n`
/// apps of any larger fleet are the `n`-app fleet, and the figure's
/// rows serve nested fleets.
pub fn capacity_fleet(n_apps: usize, steps: usize) -> Trace {
    let span_ms = steps as u64 * 60_000;
    let mut trace = femux_trace::synth::ibm::generate(&IbmFleetConfig {
        n_apps,
        span_days: 1,
        seed: 0x5E47E,
        max_invocations_per_app: 400,
        rate_scale: 0.05,
    });
    for app in &mut trace.apps {
        app.invocations.retain(|inv| inv.start_ms < span_ms);
    }
    trace.span_ms = span_ms;
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_fleet_grows_by_appending_apps() {
        let steps = 240;
        let small = capacity_fleet(64, steps);
        let large = capacity_fleet(128, steps);
        assert_eq!(small.apps.len(), 64);
        assert_eq!(large.apps.len(), 128);
        assert_eq!(small.span_ms, large.span_ms);
        assert_eq!(small.apps[..], large.apps[..64]);
        let span_ms = steps as u64 * 60_000;
        assert!(large
            .apps
            .iter()
            .flat_map(|a| &a.invocations)
            .all(|inv| inv.start_ms < span_ms));
    }

    #[test]
    fn scale_parse_defaults_small_and_rejects_typos() {
        assert_eq!(Scale::parse(None), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some("small")), Ok(Scale::Small));
        assert_eq!(Scale::parse(Some("medium")), Ok(Scale::Medium));
        assert_eq!(Scale::parse(Some("large")), Ok(Scale::Large));
        for typo in ["Medium", "meduim", "", " small"] {
            let msg = Scale::parse(Some(typo)).expect_err(typo);
            assert!(
                msg.contains("small, medium, large"),
                "names the accepted values: {msg}"
            );
        }
    }

    #[test]
    fn setup_is_deterministic_and_split_consistent() {
        let a = azure_setup(Scale::Small);
        let b = azure_setup(Scale::Small);
        assert_eq!(a.split, b.split);
        assert_eq!(a.fleet.apps.len(), Scale::Small.azure_apps());
        let total = a.split.train.len()
            + a.split.validation.len()
            + a.split.test.len();
        assert_eq!(total, a.fleet.apps.len());
    }

    #[test]
    fn train_apps_have_sane_shapes() {
        let setup = azure_setup(Scale::Small);
        let apps = setup.train_apps();
        assert_eq!(apps.len(), setup.split.train.len());
        let minutes = setup.fleet.days * 1_440;
        assert!(apps.iter().all(|a| a.concurrency.len() == minutes));
        assert!(apps.iter().all(|a| a.exec_secs > 0.0 && a.mem_gb > 0.0));
    }
}
