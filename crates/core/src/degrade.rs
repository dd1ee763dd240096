//! Forecaster degradation ladder (§4.3.5 resilience machinery).
//!
//! The demotion/backoff/re-promotion state machine of
//! [`crate::manager::AppManager`], kept as its own type so the penalty
//! schedule can be tested in isolation: strikes, the `2^strikes - 1`
//! penalty schedule, and the `degrade.*` telemetry.
//!
//! The ladder tracks only the control state. The owner keeps whatever
//! concrete fallback forecaster it wants and calls:
//!
//! - [`DegradeLadder::record_fault`] when a forecast panics or returns
//!   non-finite output — the app is demoted and charged the penalty;
//! - [`DegradeLadder::block_boundary`] once per completed block — the
//!   returned [`LadderDecision`] says whether to serve another fallback
//!   block, re-promote to the classifier's pick, or continue healthy.

/// Cap on the degradation backoff exponent (penalty is `2^strikes - 1`
/// blocks, so the longest demotion is 63 blocks).
pub const MAX_STRIKE_EXPONENT: u32 = 6;

/// What the owner must do at a block boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderDecision {
    /// Healthy: adopt the classifier's pick for the next block. `clean`
    /// is true when the finished block saw no fault (strikes were
    /// forgiven).
    Healthy {
        /// Whether the finished block was fault-free.
        clean: bool,
    },
    /// Still serving the backoff penalty: another full block on the
    /// fallback forecaster.
    Fallback,
    /// Penalty served: re-promote to the classifier's pick.
    Repromote,
}

/// Degradation control state for one application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradeLadder {
    /// Consecutive degradations without an intervening clean block.
    strikes: u32,
    /// Full penalty blocks left before re-promotion is allowed.
    penalty_blocks_left: usize,
    /// Whether the current block saw a degradation (gates strike reset).
    faulted_this_block: bool,
    /// Whether the app is currently demoted to the fallback.
    degraded: bool,
}

impl DegradeLadder {
    /// A fresh, healthy ladder.
    pub fn new() -> Self {
        DegradeLadder::default()
    }

    /// Whether the app is currently demoted to the fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Current consecutive-strike count.
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    /// Records a forecast fault: demotes the app and charges an
    /// exponentially growing block penalty for repeat offenses. Returns
    /// the penalty (in blocks) charged for this offense.
    pub fn record_fault(&mut self) -> usize {
        let penalty =
            (1usize << self.strikes.min(MAX_STRIKE_EXPONENT)) - 1;
        self.strikes = self.strikes.saturating_add(1);
        self.penalty_blocks_left = penalty;
        self.faulted_this_block = true;
        self.degraded = true;
        femux_obs::counter_add("degrade.fallbacks", 1);
        femux_obs::observe("degrade.penalty_blocks", penalty as u64);
        penalty
    }

    /// Advances the ladder across a block boundary and says what the
    /// owner must do for the next block.
    pub fn block_boundary(&mut self) -> LadderDecision {
        let decision = if self.degraded {
            if self.penalty_blocks_left > 0 {
                self.penalty_blocks_left -= 1;
                femux_obs::counter_add("degrade.fallback_blocks", 1);
                LadderDecision::Fallback
            } else {
                self.degraded = false;
                femux_obs::counter_add("degrade.repromotions", 1);
                LadderDecision::Repromote
            }
        } else {
            let clean = !self.faulted_this_block;
            if clean {
                // A clean block on the real forecaster forgives past
                // strikes.
                self.strikes = 0;
            }
            LadderDecision::Healthy { clean }
        };
        self.faulted_this_block = false;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_schedule_is_exponential_and_capped() {
        let mut ladder = DegradeLadder::new();
        // Consecutive offenses (no clean block between): 0, 1, 3, 7, …
        // capped at 2^6 - 1 = 63.
        let mut penalties = Vec::new();
        for _ in 0..9 {
            penalties.push(ladder.record_fault());
            // Serve the demotion out completely.
            while ladder.block_boundary() == LadderDecision::Fallback {}
        }
        assert_eq!(penalties, vec![0, 1, 3, 7, 15, 31, 63, 63, 63]);
    }

    #[test]
    fn clean_block_forgives_strikes() {
        let mut ladder = DegradeLadder::new();
        assert_eq!(ladder.record_fault(), 0);
        assert_eq!(ladder.block_boundary(), LadderDecision::Repromote);
        // The repromotion block finishes clean: strikes reset.
        assert_eq!(
            ladder.block_boundary(),
            LadderDecision::Healthy { clean: true }
        );
        assert_eq!(ladder.strikes(), 0);
        assert_eq!(ladder.record_fault(), 0, "first offense again");
    }

    #[test]
    fn faulted_block_reports_unclean_and_keeps_strikes() {
        let mut ladder = DegradeLadder::new();
        assert_eq!(ladder.record_fault(), 0);
        assert_eq!(ladder.block_boundary(), LadderDecision::Repromote);
        assert_eq!(ladder.record_fault(), 1, "second offense escalates");
        assert!(ladder.is_degraded());
        assert_eq!(ladder.block_boundary(), LadderDecision::Fallback);
        assert_eq!(ladder.block_boundary(), LadderDecision::Repromote);
        assert!(!ladder.is_degraded());
    }
}
