//! Online per-application lifetime management (§4.3.5).
//!
//! Each application gets an [`AppManager`]: it ingests one average-
//! concurrency sample per step, forecasts the next step with its current
//! forecaster, and — whenever a new block completes — re-classifies the
//! block and switches forecasters. [`FemuxPolicy`] adapts the manager to
//! the simulator's [`ScalingPolicy`] interface; the Knative integration
//! and the `femux-serve` harness drive it directly.
//!
//! Memory is bounded however long the app runs: the manager keeps only
//! the `cfg.history` samples the forecaster reads and an
//! [`IncrementalExtractor`] over the current block, the extractor that
//! also computed the feature rows the model was trained on.
//!
//! # Graceful degradation
//!
//! A production forecaster can misbehave: return `NaN`/`∞` or panic
//! outright (the `femux-fault` crate injects exactly these). The manager
//! never lets that reach the autoscaler. Every forecast runs under a
//! panic guard; a panicking or non-finite forecast demotes the app to
//! the always-sane moving-average fallback for the remainder of the
//! block, plus an exponentially growing number of penalty blocks
//! (`2^strikes - 1`, capped) for repeat offenders. A clean block on the
//! real forecaster resets the strike count. Demotions, fallback blocks,
//! and re-promotions are recorded in [`AppManager::history_of_kinds`]
//! and the `degrade.*` telemetry counters.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use femux_fault::{FaultStats, ForecastFate, ForecastFaults};
use femux_features::{BlockFeatures, IncrementalExtractor};
use femux_forecast::{Forecaster, ForecasterKind};
use femux_sim::policy::{IdleRun, IdleTicks, PolicyCtx, ScalingPolicy};

use crate::degrade::{DegradeLadder, LadderDecision};
use crate::model::FemuxModel;

/// Knative's default per-pod target utilization: the autoscaler
/// provisions a concurrency estimate against 70 % of each pod's
/// concurrency limit, leaving headroom for within-interval peaks.
pub const KNATIVE_TARGET_UTILIZATION: f64 = 0.7;

/// Online state for one application.
pub struct AppManager {
    model: Arc<FemuxModel>,
    /// The trailing forecast window: the last `cfg.history` samples.
    window: VecDeque<f64>,
    /// Features of the current block, maintained per sample.
    extractor: IncrementalExtractor,
    /// Samples observed so far.
    steps: usize,
    exec_secs: f64,
    current_kind: ForecasterKind,
    forecaster: Box<dyn Forecaster>,
    /// Every forecaster the app has used, in order (switch history —
    /// Fig. 17 reports switching statistics). Degradations to the
    /// moving-average fallback and the fallback blocks that follow
    /// appear here too.
    pub history_of_kinds: Vec<ForecasterKind>,
    /// Injected forecaster-fault stream, if this manager runs under a
    /// fault plan.
    faults: Option<ForecastFaults>,
    /// The moving-average fallback while degraded; `None` when healthy.
    fallback: Option<Box<dyn Forecaster>>,
    /// Demotion/backoff/re-promotion control state.
    ladder: DegradeLadder,
}

impl AppManager {
    /// Creates a manager starting on the model's default forecaster.
    pub fn new(model: Arc<FemuxModel>, exec_secs: f64) -> Self {
        let kind = model.default_forecaster;
        let cfg = &model.cfg;
        AppManager {
            window: VecDeque::with_capacity(cfg.history),
            extractor: IncrementalExtractor::new(
                cfg.block_len,
                exec_secs,
                &cfg.features,
            ),
            steps: 0,
            exec_secs,
            forecaster: kind.build(),
            current_kind: kind,
            history_of_kinds: vec![kind],
            faults: None,
            fallback: None,
            ladder: DegradeLadder::new(),
            model,
        }
    }

    /// Creates a manager whose forecasts are corrupted by the given
    /// injected-fault stream (see `femux-fault`). Also installs the
    /// process-wide hook that keeps injected panics off stderr.
    pub fn with_faults(
        model: Arc<FemuxModel>,
        exec_secs: f64,
        faults: ForecastFaults,
    ) -> Self {
        femux_fault::silence_injected_panics();
        let mut mgr = AppManager::new(model, exec_secs);
        mgr.faults = Some(faults);
        mgr
    }

    /// Returns the forecaster currently in use (the moving-average
    /// fallback while degraded).
    pub fn current(&self) -> ForecasterKind {
        if self.fallback.is_some() {
            ForecasterKind::MovingAverage
        } else {
            self.current_kind
        }
    }

    /// Whether the manager is currently demoted to the fallback.
    pub fn is_degraded(&self) -> bool {
        self.fallback.is_some()
    }

    /// Injected forecaster faults fired so far (all zero without a
    /// fault stream).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Number of forecaster switches so far.
    pub fn switches(&self) -> usize {
        self.history_of_kinds
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count()
    }

    /// Number of distinct forecasters used.
    pub fn distinct_forecasters(&self) -> usize {
        let mut kinds = self.history_of_kinds.clone();
        kinds.sort_unstable();
        kinds.dedup();
        kinds.len()
    }

    /// Ingests one step of observed average concurrency. When this
    /// completes a block, the block is classified and the forecaster for
    /// the next block selected (the paper does this asynchronously; the
    /// classification itself takes well under 10 ms), and the block's
    /// feature row is returned.
    ///
    /// Non-finite samples (e.g. `NaN` from a lost concurrency report)
    /// are sanitized to zero so one bad report can never poison the
    /// history the forecasters and classifier read.
    pub fn observe(&mut self, value: f64) -> Option<BlockFeatures> {
        let value = if value.is_finite() {
            value
        } else {
            femux_obs::counter_add("degrade.nonfinite_observations", 1);
            0.0
        };
        let value = value.max(0.0);
        if self.window.len() == self.model.cfg.history {
            self.window.pop_front();
        }
        if self.model.cfg.history > 0 {
            self.window.push_back(value);
        }
        self.steps += 1;
        let block = self.extractor.push(value)?;
        self.on_block(&block);
        Some(block)
    }

    /// Block boundary: classify the finished block and let the
    /// degradation ladder arbitrate the next forecaster.
    fn on_block(&mut self, block: &BlockFeatures) {
        let kind =
            self.model.select_from_features(&block.features, block.idle);
        femux_obs::counter_add("core.manager.blocks_classified", 1);
        femux_obs::counter_add(
            &format!("core.manager.selected.{}", kind.name()),
            1,
        );
        match self.ladder.block_boundary() {
            LadderDecision::Fallback => {
                // Still serving out the backoff penalty: another full
                // block on the fallback.
                self.history_of_kinds.push(ForecasterKind::MovingAverage);
            }
            LadderDecision::Repromote => {
                // Penalty served: re-promote to whatever the classifier
                // picked for the fresh block.
                self.fallback = None;
                if kind != self.current_kind {
                    femux_obs::counter_add("core.manager.switches", 1);
                }
                self.current_kind = kind;
                self.forecaster = kind.build();
                self.history_of_kinds.push(kind);
            }
            LadderDecision::Healthy { .. } => {
                if kind != self.current_kind {
                    femux_obs::counter_add("core.manager.switches", 1);
                    self.current_kind = kind;
                    self.forecaster = kind.build();
                }
                self.history_of_kinds.push(kind);
            }
        }
    }

    /// Forecasts the next `horizon` steps from the trailing history
    /// window.
    ///
    /// The real forecaster runs under a panic guard; a panic or any
    /// non-finite output demotes the app to the moving-average fallback
    /// (see the module docs) and the fallback serves this call. The
    /// returned values are always finite.
    pub fn forecast(&mut self, horizon: usize) -> Vec<f64> {
        femux_obs::counter_add("core.manager.forecasts", 1);
        if self.fallback.is_none() {
            let fate = match self.faults.as_mut() {
                Some(f) => f.fate(),
                None => ForecastFate::None,
            };
            let forecaster = &mut self.forecaster;
            let window: &[f64] = self.window.make_contiguous();
            let result = catch_unwind(AssertUnwindSafe(move || {
                let mut out = forecaster.forecast(window, horizon);
                match fate {
                    ForecastFate::None => {}
                    ForecastFate::Nan => {
                        out.iter_mut().for_each(|v| *v = f64::NAN)
                    }
                    ForecastFate::Inf => {
                        out.iter_mut().for_each(|v| *v = f64::INFINITY)
                    }
                    ForecastFate::Panic => femux_fault::inject_panic(),
                }
                out
            }));
            match result {
                Ok(out) if out.iter().all(|v| v.is_finite()) => {
                    return out;
                }
                Ok(_) => {
                    femux_obs::counter_add("degrade.forecast_nonfinite", 1);
                }
                Err(_) => {
                    femux_obs::counter_add("degrade.forecast_panics", 1);
                }
            }
            self.enter_fallback();
        }
        let fallback = self
            .fallback
            .as_mut()
            .expect("degraded path always has a fallback installed");
        fallback.forecast(self.window.make_contiguous(), horizon)
    }

    /// Whether this manager draws from an injected forecaster-fault
    /// stream. The draw-order contract (one fate per healthy forecast)
    /// forbids closed-form step skipping while a stream is installed.
    pub fn has_fault_stream(&self) -> bool {
        self.faults.is_some()
    }

    /// True when the forecast window is saturated and all-zero: every
    /// further zero observation leaves the window byte-identical, so
    /// consecutive forecasts are pure repeats of each other.
    pub fn idle_window_settled(&self) -> bool {
        let h = self.model.cfg.history;
        h > 0
            && self.window.len() == h
            && self.window.iter().all(|&v| v == 0.0)
    }

    /// Steps until the next block boundary (always ≥ 1 between
    /// observations).
    pub fn steps_until_block(&self) -> usize {
        self.extractor.block_len() - self.extractor.block_progress()
    }

    /// Advances `k` idle steps without forecasting: exactly the state
    /// and telemetry that `k` `(observe(0.0), forecast(_))` pairs would
    /// produce when the window is settled
    /// ([`Self::idle_window_settled`]), no fault stream is installed,
    /// and no block boundary is crossed — the forecasts are pure
    /// repeats (a forecast is a pure function of history and horizon,
    /// and a forecaster keeps state only to skip work whose inputs it
    /// compared bit for bit, a `femux-forecast` contract) and the
    /// settled window is unchanged, so only the block's features, the
    /// step count and the forecast counter move.
    pub fn skip_idle_steps(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        debug_assert!(self.faults.is_none());
        debug_assert!(self.idle_window_settled());
        debug_assert!(
            k < self.steps_until_block(),
            "closed-form skip must not cross a block boundary"
        );
        for _ in 0..k {
            self.extractor.push(0.0);
        }
        self.steps += k;
        femux_obs::counter_add("core.manager.forecasts", k as u64);
    }

    /// Demotes the app to the moving-average fallback; the ladder
    /// charges the exponentially growing block penalty for repeat
    /// offenses.
    fn enter_fallback(&mut self) {
        self.ladder.record_fault();
        self.fallback = Some(ForecasterKind::MovingAverage.build());
        self.history_of_kinds.push(ForecasterKind::MovingAverage);
    }
}

/// A serializable snapshot of an [`AppManager`]'s state.
///
/// The Knative prototype persists forecasting-thread state in etcd so
/// FeMux pods can be rescheduled without losing application history
/// (§5.2); this is the state that gets persisted. It is bounded like
/// the manager: `recent` holds only the trailing samples a restore
/// needs — the forecast window and the current block's partial
/// samples, at most `max(history, block_len - 1)` of them.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerSnapshot {
    /// The trailing observed samples, oldest first.
    pub recent: Vec<f64>,
    /// Samples observed so far (`recent` ends at step `steps - 1`).
    pub steps: usize,
    /// Forecaster currently in use.
    pub current: ForecasterKind,
    /// Full switch history.
    pub history_of_kinds: Vec<ForecasterKind>,
    /// The app's mean execution time, seconds.
    pub exec_secs: f64,
}

impl AppManager {
    /// Captures the manager's state for persistence.
    pub fn snapshot(&self) -> ManagerSnapshot {
        // Both buffers end at the newest sample, so the longer one
        // holds the other as its suffix.
        let block = self.extractor.window();
        let recent = if block.len() > self.window.len() {
            block.to_vec()
        } else {
            self.window.iter().copied().collect()
        };
        ManagerSnapshot {
            recent,
            steps: self.steps,
            current: self.current_kind,
            history_of_kinds: self.history_of_kinds.clone(),
            exec_secs: self.exec_secs,
        }
    }

    /// Rebuilds a manager from a snapshot (e.g. on another FeMux pod):
    /// the forecast window is refilled and the current block's partial
    /// samples re-pushed through a fresh extractor, so the restored
    /// manager continues bit-identically to the one snapshotted. A
    /// `recent` longer than needed (a legacy full-series snapshot) is
    /// read from its tail.
    ///
    /// Degradation state (fallback, strikes, penalty) is deliberately
    /// transient and not persisted: a rescheduled manager restarts
    /// healthy on the snapshot's forecaster and re-demotes only if the
    /// fault recurs.
    pub fn from_snapshot(
        model: Arc<FemuxModel>,
        snap: ManagerSnapshot,
    ) -> Self {
        let (history, block_len) = (model.cfg.history, model.cfg.block_len);
        let mut mgr = AppManager::new(model, snap.exec_secs);
        mgr.steps = snap.steps;
        mgr.current_kind = snap.current;
        mgr.forecaster = snap.current.build();
        mgr.history_of_kinds = snap.history_of_kinds;
        let recent = &snap.recent;
        let window = history.min(recent.len());
        mgr.window.extend(&recent[recent.len() - window..]);
        let partial = (snap.steps % block_len).min(recent.len());
        mgr.extractor =
            mgr.extractor.starting_at_block(snap.steps / block_len);
        for &v in &recent[recent.len() - partial..] {
            mgr.extractor.push(v);
        }
        mgr
    }
}

/// FeMux as a simulator scaling policy: at each interval it ingests the
/// newest observation and provisions the forecasted concurrency.
///
/// The forecast is an *average* concurrency; as in the Knative
/// prototype, the autoscaler provisions it against a per-pod
/// concurrency target scaled by [`KNATIVE_TARGET_UTILIZATION`], leaving
/// headroom for within-interval peaks, and never scales below what is
/// currently in flight.
pub struct FemuxPolicy {
    manager: AppManager,
}

impl FemuxPolicy {
    /// Creates the policy for one application.
    pub fn new(model: Arc<FemuxModel>, exec_secs: f64) -> Self {
        FemuxPolicy {
            manager: AppManager::new(model, exec_secs),
        }
    }

    /// Creates the policy with an injected forecaster-fault stream (see
    /// [`AppManager::with_faults`]).
    pub fn with_faults(
        model: Arc<FemuxModel>,
        exec_secs: f64,
        faults: ForecastFaults,
    ) -> Self {
        FemuxPolicy {
            manager: AppManager::with_faults(model, exec_secs, faults),
        }
    }

    /// Access to the underlying manager (switch statistics).
    pub fn manager(&self) -> &AppManager {
        &self.manager
    }
}

impl ScalingPolicy for FemuxPolicy {
    fn name(&self) -> String {
        "femux".into()
    }

    fn target_pods(&mut self, ctx: &PolicyCtx<'_>) -> usize {
        // Ingest every interval completed since the last call (exactly
        // one per tick in the simulator).
        for &v in &ctx.avg_concurrency[self.manager.steps..] {
            self.manager.observe(v);
        }
        let pred = self.manager.forecast(1)[0];
        let target =
            (pred / KNATIVE_TARGET_UTILIZATION).max(ctx.inflight as f64);
        ctx.pods_for_concurrency(target)
    }

    fn tick_idle(
        &mut self,
        idle: &IdleTicks<'_>,
        i: u64,
        current_pods: usize,
        max_ticks: u64,
    ) -> IdleRun {
        // Take tick `i` with full per-tick semantics (ingest, forecast,
        // possibly demote). If that leaves the manager in the settled
        // all-zero fixed point, the following ticks are pure repeats up
        // to the next block boundary and advance without forecasting. The
        // target never reads `current_pods`, so the run is safe under
        // scale-out rate limiting.
        let target = self.target_pods(&idle.ctx(i, current_pods));
        if self.manager.has_fault_stream()
            || !self.manager.idle_window_settled()
        {
            return IdleRun { target, ticks: 1 };
        }
        let extra = (max_ticks - 1).min(
            self.manager.steps_until_block().saturating_sub(1) as u64,
        );
        self.manager.skip_idle_steps(extra as usize);
        IdleRun {
            target,
            ticks: 1 + extra,
        }
    }

    fn fault_stats(&self) -> FaultStats {
        self.manager.fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FemuxConfig;
    use crate::model::{train, ClassifierKind, TrainApp};
    use femux_stats::rng::Rng;

    fn model() -> Arc<FemuxModel> {
        let cfg = FemuxConfig::for_tests();
        let mut rng = Rng::seed_from_u64(1);
        let apps: Vec<TrainApp> = (0..6)
            .map(|i| {
                let series: Vec<f64> = if i % 2 == 0 {
                    (0..600)
                        .map(|t| {
                            5.0 + 4.0
                                * (2.0 * std::f64::consts::PI * t as f64
                                    / 24.0)
                                    .sin()
                        })
                        .collect()
                } else {
                    (0..600).map(|_| (2.0 + rng.normal()).max(0.0)).collect()
                };
                TrainApp {
                    concurrency: series,
                    exec_secs: 0.5,
                    mem_gb: 0.5,
                    pod_concurrency: 1,
                }
            })
            .collect();
        Arc::new(train(&apps, &cfg, ClassifierKind::KMeans).expect("model"))
    }

    #[test]
    fn starts_on_default_and_reclassifies_at_block_boundary() {
        let model = model();
        let mut mgr = AppManager::new(model.clone(), 0.5);
        assert_eq!(mgr.current(), model.default_forecaster);
        // Feed a strongly periodic signal for one full block: the block
        // must be classified exactly once, and the resulting choice must
        // match what the model selects for that block extracted on its
        // own.
        let series: Vec<f64> = (0..model.cfg.block_len)
            .map(|t| {
                5.0 + 4.0
                    * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
            })
            .collect();
        for &v in &series {
            mgr.observe(v);
        }
        assert_eq!(mgr.history_of_kinds.len(), 2);
        let block = femux_features::Block {
            app_index: 0,
            seq: 0,
            series,
            exec_secs: 0.5,
        };
        let row = femux_features::extract(&block, &model.cfg.features);
        let expected = model.select_from_features(&row.features, row.idle);
        assert_eq!(mgr.current(), expected);
    }

    #[test]
    fn forecast_tracks_periodic_signal_after_switch() {
        let model = model();
        let mut mgr = AppManager::new(model.clone(), 0.5);
        let f = |t: usize| {
            5.0 + 4.0
                * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
        };
        let total = model.cfg.block_len + 60;
        for t in 0..total {
            mgr.observe(f(t));
        }
        let pred = mgr.forecast(1)[0];
        let truth = f(total);
        assert!(
            (pred - truth).abs() < 1.0,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn switch_statistics() {
        let model = model();
        let mgr = AppManager::new(model, 0.5);
        assert_eq!(mgr.switches(), 0);
        assert_eq!(mgr.distinct_forecasters(), 1);
    }

    #[test]
    fn buffers_stay_bounded_over_many_blocks() {
        let model = model();
        let (history, block_len) = (model.cfg.history, model.cfg.block_len);
        let mut mgr = AppManager::new(model, 0.5);
        let window_cap = mgr.window.capacity();
        let mut blocks = 0;
        for t in 0..block_len * 12 + 7 {
            let v = (3.0 + (t as f64 * 0.37).sin() * 2.0).max(0.0);
            if let Some(block) = mgr.observe(v) {
                assert_eq!(block.seq, blocks);
                blocks += 1;
            }
            let _ = mgr.forecast(1);
            assert_eq!(mgr.window.len(), history.min(t + 1));
            assert_eq!(mgr.window.capacity(), window_cap, "step {t}");
            assert_eq!(mgr.extractor.window().len(), (t + 1) % block_len);
            let snap = mgr.snapshot();
            assert!(
                snap.recent.len() <= history.max(block_len - 1),
                "step {t}: snapshot holds {} samples",
                snap.recent.len()
            );
            assert_eq!(snap.steps, t + 1);
        }
        assert_eq!(blocks, 12);
        assert_eq!(mgr.history_of_kinds.len(), 13);
    }

    #[test]
    fn nonfinite_observations_are_sanitized() {
        let model = model();
        let mut mgr = AppManager::new(model, 0.5);
        mgr.observe(f64::NAN);
        mgr.observe(f64::INFINITY);
        mgr.observe(f64::NEG_INFINITY);
        mgr.observe(-3.0);
        mgr.observe(2.5);
        assert_eq!(
            mgr.snapshot().recent,
            vec![0.0, 0.0, 0.0, 0.0, 2.5],
            "bad samples become zero, good samples pass through"
        );
    }

    #[test]
    fn forecast_faults_demote_and_backoff_then_repromote() {
        let model = model();
        let block = model.cfg.block_len;
        // Rate 1.0: every forecast on the real forecaster is corrupted
        // (NaN, Inf, or panic, flavor drawn from the stream).
        let faults = femux_fault::FaultConfig::uniform(11, 1.0)
            .forecast_faults(femux_trace::AppId(3));
        let mut mgr = AppManager::with_faults(model, 0.5, faults);
        let feed = |mgr: &mut AppManager, n: usize| {
            for t in 0..n {
                mgr.observe((2.0 + (t as f64 * 0.3).sin()).max(0.0));
            }
        };
        feed(&mut mgr, block);
        assert!(!mgr.is_degraded());

        // First fault: demoted, zero penalty blocks (2^0 - 1).
        let out = mgr.forecast(3);
        assert!(out.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(mgr.is_degraded());
        assert_eq!(mgr.current(), ForecasterKind::MovingAverage);
        assert_eq!(mgr.fault_stats().forecast_faults, 1);
        // Further forecasts ride the fallback without drawing faults.
        let _ = mgr.forecast(3);
        assert_eq!(mgr.fault_stats().forecast_faults, 1);

        // Next block boundary: penalty served, re-promoted.
        feed(&mut mgr, block);
        assert!(!mgr.is_degraded());

        // Second fault without an intervening clean block: one full
        // penalty block (2^1 - 1) before re-promotion.
        let _ = mgr.forecast(3);
        assert!(mgr.is_degraded());
        assert_eq!(mgr.fault_stats().forecast_faults, 2);
        feed(&mut mgr, block);
        assert!(mgr.is_degraded(), "penalty block still being served");
        feed(&mut mgr, block);
        assert!(!mgr.is_degraded(), "re-promoted after the penalty");
        assert!(mgr
            .history_of_kinds
            .contains(&ForecasterKind::MovingAverage));
    }

    #[test]
    fn forecasts_stay_finite_under_sustained_faults() {
        let model = model();
        let block = model.cfg.block_len;
        let faults = femux_fault::FaultConfig::uniform(23, 1.0)
            .forecast_faults(femux_trace::AppId(8));
        let mut mgr = AppManager::with_faults(model, 0.5, faults);
        // Interleave observations and forecasts across several blocks;
        // whatever flavor fires (including panics), the caller only
        // ever sees finite, non-negative predictions.
        for t in 0..block * 4 {
            mgr.observe((3.0 + (t as f64 * 0.1).cos()).max(0.0));
            let out = mgr.forecast(2);
            assert_eq!(out.len(), 2);
            assert!(
                out.iter().all(|v| v.is_finite() && *v >= 0.0),
                "bad forecast escaped the guard: {out:?}"
            );
        }
        assert!(mgr.fault_stats().forecast_faults > 0);
    }

    #[test]
    fn policy_provisions_forecasted_capacity() {
        let model = model();
        let mut policy = FemuxPolicy::new(model, 0.5);
        let config = femux_trace::AppConfig {
            concurrency: 1,
            ..Default::default()
        };
        let history: Vec<f64> = vec![3.0; 10];
        let ctx = PolicyCtx {
            now_ms: 600_000,
            interval_ms: 60_000,
            avg_concurrency: &history,
            peak_concurrency: &history,
            arrivals: &history,
            config: &config,
            current_pods: 0,
            inflight: 0,
        };
        let target = policy.target_pods(&ctx);
        // Constant concurrency 3 with the 0.7 utilization headroom
        // provisions ceil(3 / 0.7) = 5 pods at most.
        assert!(
            (3..=5).contains(&target),
            "target {target} for constant load 3"
        );
        assert_eq!(policy.manager().snapshot().steps, history.len());
    }
}
