//! Representative Unified Metric (RUM).
//!
//! RUM is the paper's central abstraction (§4.1): a tunable objective that
//! encodes the efficiency/performance trade-off and is used *both* to
//! optimize system components (forecaster selection, classifier training)
//! and to evaluate the platform — aligning what the system optimizes with
//! what the provider measures. Two formulations from the paper:
//!
//! - **Eq. (1)**: `w1 * cold_start_seconds + w2 * wasted_GB_seconds`
//! - **Eq. (2)**: `w1 * sqrt(cold_start_seconds / exec_seconds) + w2 *
//!   wasted_GB_seconds` (emphasizes cold starts for short executions)
//!
//! The default weights are derived in [`weights`] from public cloud data:
//! `w1 = 1`, `w2 = 1/99.7`.

// A narrowing cast silently corrupts accumulated costs. Cargo rejects
// per-crate lint entries beside `[lints] workspace = true`, so the
// cast lints are denied here rather than in the manifest.
#![deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

pub mod costs;
pub mod error;
pub mod weights;

pub use costs::{aggregate, CostRecord};

/// A RUM formulation with its weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RumSpec {
    /// Eq. (1): linear combination of cold-start seconds and waste.
    Weighted {
        /// Weight per cold-start second.
        w_cold: f64,
        /// Weight per wasted GB-second.
        w_mem: f64,
    },
    /// Eq. (2): cold-start impact relative to execution time.
    ExecAware {
        /// Weight on `sqrt(cold_start_seconds / exec_seconds)`.
        w_cold: f64,
        /// Weight per wasted GB-second.
        w_mem: f64,
    },
}

impl RumSpec {
    /// The paper's default RUM: Eq. (1) with `w1 = 1`, `w2 = 1/99.7`.
    pub fn default_paper() -> Self {
        RumSpec::Weighted {
            w_cold: weights::paper::W1,
            w_mem: weights::paper::W2,
        }
    }

    /// FeMux-CS: cold-start weight quadrupled (§5.1.1).
    pub fn femux_cs() -> Self {
        RumSpec::Weighted {
            w_cold: 4.0 * weights::paper::W1,
            w_mem: weights::paper::W2,
        }
    }

    /// FeMux-Mem: memory weight quadrupled (§5.1.1).
    pub fn femux_mem() -> Self {
        RumSpec::Weighted {
            w_cold: weights::paper::W1,
            w_mem: 4.0 * weights::paper::W2,
        }
    }

    /// FeMux-Exec: the execution-time-aware RUM, Eq. (2) (§5.1.3).
    pub fn femux_exec() -> Self {
        RumSpec::ExecAware {
            w_cold: weights::paper::W1,
            w_mem: weights::paper::W2,
        }
    }

    /// A short display name for experiment output.
    pub fn label(&self) -> String {
        match *self {
            RumSpec::Weighted { w_cold, w_mem } => {
                format!("rum(w1={w_cold:.3},w2={w_mem:.5})")
            }
            RumSpec::ExecAware { w_cold, w_mem } => {
                format!("rum-exec(w1={w_cold:.3},w2={w_mem:.5})")
            }
        }
    }

    /// Evaluates the RUM over one application's costs. Lower is better.
    pub fn evaluate(&self, costs: &CostRecord) -> f64 {
        femux_obs::counter_add("rum.evaluations", 1);
        match *self {
            RumSpec::Weighted { w_cold, w_mem } => {
                w_cold * costs.cold_start_seconds
                    + w_mem * costs.wasted_gb_seconds
            }
            RumSpec::ExecAware { w_cold, w_mem } => {
                let ratio = if costs.exec_seconds > 0.0 {
                    costs.cold_start_seconds / costs.exec_seconds
                } else if costs.cold_start_seconds > 0.0 {
                    // All cold start, no execution: maximal impact.
                    costs.cold_start_seconds / 1e-3
                } else {
                    0.0
                };
                w_cold * ratio.sqrt() + w_mem * costs.wasted_gb_seconds
            }
        }
    }

    /// Evaluates the RUM over a set of per-application records by
    /// summing per-app values (the paper aggregates RUM across apps).
    pub fn evaluate_fleet<'a, I>(&self, records: I) -> f64
    where
        I: IntoIterator<Item = &'a CostRecord>,
    {
        records.into_iter().map(|r| self.evaluate(r)).sum()
    }
}

/// A service tier in a multi-RUM deployment (§5.1.2): providers run
/// premium and regular applications under different RUMs simultaneously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Tier name ("premium", "regular").
    pub name: &'static str,
    /// The RUM optimized for this tier.
    pub rum: RumSpec,
}

/// The paper's two-tier example: 10 % premium on FeMux-CS, 90 % regular
/// on the default RUM.
pub fn paper_tiers() -> (Tier, Tier, f64) {
    (
        Tier {
            name: "premium",
            rum: RumSpec::femux_cs(),
        },
        Tier {
            name: "regular",
            rum: RumSpec::default_paper(),
        },
        0.10,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cs_secs: f64, waste: f64, exec: f64) -> CostRecord {
        CostRecord {
            invocations: 10,
            cold_starts: 1,
            cold_start_seconds: cs_secs,
            wasted_gb_seconds: waste,
            allocated_gb_seconds: waste + exec,
            exec_seconds: exec,
            service_seconds: exec + cs_secs,
        }
    }

    #[test]
    fn default_rum_trade_off_point() {
        // 99.7 wasted GB-s is worth exactly one cold-start second.
        let rum = RumSpec::default_paper();
        let cs = record(1.0, 0.0, 10.0);
        let mem = record(0.0, 99.7, 10.0);
        assert!((rum.evaluate(&cs) - rum.evaluate(&mem)).abs() < 1e-9);
    }

    #[test]
    fn cs_variant_penalizes_cold_starts_4x() {
        let base = RumSpec::default_paper();
        let cs = RumSpec::femux_cs();
        let r = record(2.0, 0.0, 1.0);
        assert!((cs.evaluate(&r) - 4.0 * base.evaluate(&r)).abs() < 1e-12);
    }

    #[test]
    fn mem_variant_penalizes_waste_4x() {
        let base = RumSpec::default_paper();
        let mem = RumSpec::femux_mem();
        let r = record(0.0, 50.0, 1.0);
        assert!(
            (mem.evaluate(&r) - 4.0 * base.evaluate(&r)).abs() < 1e-12
        );
    }

    #[test]
    fn exec_aware_rum_scales_with_execution_time() {
        // Same cold-start seconds: a short-exec app is hit harder.
        let rum = RumSpec::femux_exec();
        let short = record(1.0, 0.0, 0.5);
        let long = record(1.0, 0.0, 500.0);
        assert!(rum.evaluate(&short) > rum.evaluate(&long));
    }

    #[test]
    fn exec_aware_handles_zero_exec() {
        let rum = RumSpec::femux_exec();
        let degenerate = record(1.0, 0.0, 0.0);
        assert!(rum.evaluate(&degenerate).is_finite());
        assert!(rum.evaluate(&degenerate) > 0.0);
        let idle = record(0.0, 0.0, 0.0);
        assert_eq!(rum.evaluate(&idle), 0.0);
    }

    #[test]
    fn rum_is_monotone_in_weights() {
        let r = record(3.0, 30.0, 1.0);
        let low = RumSpec::Weighted {
            w_cold: 1.0,
            w_mem: 0.01,
        };
        let high = RumSpec::Weighted {
            w_cold: 2.0,
            w_mem: 0.01,
        };
        assert!(high.evaluate(&r) > low.evaluate(&r));
    }

    #[test]
    fn fleet_evaluation_sums() {
        let rum = RumSpec::default_paper();
        let rs = vec![record(1.0, 10.0, 5.0), record(2.0, 0.0, 5.0)];
        let total = rum.evaluate_fleet(&rs);
        let by_hand = rum.evaluate(&rs[0]) + rum.evaluate(&rs[1]);
        assert!((total - by_hand).abs() < 1e-12);
    }

    #[test]
    fn paper_tiers_shape() {
        let (premium, regular, frac) = paper_tiers();
        assert_eq!(premium.name, "premium");
        assert_eq!(regular.rum, RumSpec::default_paper());
        assert!((frac - 0.10).abs() < 1e-12);
        assert_eq!(premium.rum, RumSpec::femux_cs());
    }
}
