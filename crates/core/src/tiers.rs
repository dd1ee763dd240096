//! Multi-tier deployments: several RUMs on one platform (§5.1.2).
//!
//! Providers can run premium applications under a cold-start-weighted
//! RUM and regular applications under the default, simultaneously. A
//! [`TieredDeployment`] owns one trained model per tier and routes each
//! application to its tier's model; the whole pipeline — labelling,
//! classification, forecasting — stays per-tier, which is exactly what
//! makes RUM-based design "decoupled" from the platform.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::model::FemuxModel;

/// A named tier with its trained model.
#[derive(Clone)]
pub struct TierModel {
    /// Tier name ("premium", "regular", ...).
    pub name: &'static str,
    /// The model trained with this tier's RUM.
    pub model: Arc<FemuxModel>,
}

/// A deployment running several tiers side by side.
pub struct TieredDeployment {
    tiers: Vec<TierModel>,
    /// App index -> tier index; apps not present use `default_tier`.
    /// Ordered so any future enumeration of assignments is
    /// deterministic (it reaches per-tier reports).
    assignment: BTreeMap<usize, usize>,
    default_tier: usize,
}

impl TieredDeployment {
    /// Creates a deployment. `default_tier` indexes into `tiers`.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty or `default_tier` out of range.
    pub fn new(tiers: Vec<TierModel>, default_tier: usize) -> Self {
        assert!(!tiers.is_empty(), "need at least one tier");
        assert!(default_tier < tiers.len(), "default tier out of range");
        TieredDeployment {
            tiers,
            assignment: BTreeMap::new(),
            default_tier,
        }
    }

    /// Assigns an application to a tier by name.
    ///
    /// # Panics
    ///
    /// Panics if no tier has that name.
    #[expect(
        clippy::panic,
        reason = "documented public-API contract (# Panics): an unknown tier name is a caller bug, not a data error"
    )]
    pub fn assign(&mut self, app_index: usize, tier_name: &str) {
        let tier = self
            .tiers
            .iter()
            .position(|t| t.name == tier_name)
            .unwrap_or_else(|| panic!("unknown tier {tier_name:?}"));
        self.assignment.insert(app_index, tier);
    }

    /// Returns the tier an application runs under.
    pub fn tier_of(&self, app_index: usize) -> &TierModel {
        let idx = self
            .assignment
            .get(&app_index)
            .copied()
            .unwrap_or(self.default_tier);
        &self.tiers[idx]
    }

    /// Returns the model an application runs under.
    pub fn model_of(&self, app_index: usize) -> Arc<FemuxModel> {
        Arc::clone(&self.tier_of(app_index).model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FemuxConfig;
    use crate::model::{train, ClassifierKind, TrainApp};
    use femux_rum::RumSpec;

    fn tiny_model(rum: RumSpec) -> Arc<FemuxModel> {
        let cfg = FemuxConfig {
            rum,
            ..FemuxConfig::for_tests()
        };
        let apps: Vec<TrainApp> = (0..4)
            .map(|i| TrainApp {
                concurrency: (0..400)
                    .map(|t| {
                        (2.0 + ((t + i * 3) as f64 * 0.3).sin()).max(0.0)
                    })
                    .collect(),
                exec_secs: 0.5,
                mem_gb: 0.25,
                pod_concurrency: 1,
            })
            .collect();
        Arc::new(train(&apps, &cfg, ClassifierKind::KMeans).expect("model"))
    }

    fn deployment() -> TieredDeployment {
        TieredDeployment::new(
            vec![
                TierModel {
                    name: "regular",
                    model: tiny_model(RumSpec::default_paper()),
                },
                TierModel {
                    name: "premium",
                    model: tiny_model(RumSpec::femux_cs()),
                },
            ],
            0,
        )
    }

    #[test]
    fn routes_by_assignment_with_default_fallback() {
        let mut dep = deployment();
        dep.assign(7, "premium");
        assert_eq!(dep.tier_of(7).name, "premium");
        assert_eq!(dep.tier_of(3).name, "regular");
    }

    #[test]
    fn models_carry_their_tier_rum() {
        let mut dep = deployment();
        dep.assign(1, "premium");
        assert_eq!(dep.model_of(1).cfg.rum, RumSpec::femux_cs());
        assert_eq!(dep.model_of(2).cfg.rum, RumSpec::default_paper());
    }

    #[test]
    #[should_panic(expected = "unknown tier")]
    fn unknown_tier_panics() {
        deployment().assign(0, "platinum");
    }
}
