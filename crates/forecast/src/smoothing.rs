//! Exponential smoothing forecasters.
//!
//! For *dense* blocks without discernible structure (§4.3.2), FeMux falls
//! back to trend followers: Simple Exponential Smoothing (SES) tracks a
//! moving level, and Holt's double exponential smoothing adds a trend
//! term. Both select their smoothing parameters dynamically by minimizing
//! one-step-ahead squared error on the window (§4.3.3 "dynamic parameter
//! selection").
//!
//! # Lanes
//!
//! Each grid point's run is a serial recurrence over the window, so run
//! one after another the search is bound by the latency of that chain.
//! The grid points are independent, though: both forecasters keep one
//! struct-of-arrays lane per point (9 for SES, 54 (α, β) pairs for Holt)
//! and advance every lane at each sample, a loop the compiler
//! vectorizes. Each lane performs the same floating-point operations on
//! the same operands in the same order as a lone run of its point, and
//! the winner is chosen with each forecaster's original rule, so every
//! forecast is bit-identical to the point-by-point search (kept as the
//! test reference).
//!
//! The trained router picks Holt for most apps, so Holt's lanes are
//! most of a serving tick's work: about two thirds of perfbench's
//! traced serve pass. They also have an AVX2 build, picked at run time
//! as `femux_stats`'s BDS pair loop is: one `#[inline(always)]` body,
//! compiled once portably and once under
//! `#[target_feature(enable = "avx2")]`. An AVX2 build of the SES lanes
//! measured no faster, so SES stays portable.
//!
//! # Leading zeros
//!
//! Most serving windows of a sparse app open with idle minutes, so both
//! kernels start their lanes at the first non-zero sample of a window
//! that opens with z ≥ 2 samples equal to `0.0` (of either sign), from
//! level +0, trend +0 and SSE +0. That is the state the point-by-point
//! run reaches at sample z:
//!
//! - Holt starts from h₀ = ±0 and trend h₁ − h₀ with h₁ = ±0. In all
//!   four sign cases the first step predicts +0, adds a squared error
//!   of +0, and leaves level α·h₁ + (1−α)·(+0) = +0 and trend
//!   β·(+0 − h₀) + (1−β)·(h₁ − h₀) = +0, since α, β ∈ (0, 1).
//! - Each further ±0 sample keeps it there: pred = +0, err = ±0,
//!   α·(±0) + (1−α)·(+0) = +0 and β·(+0 − +0) + (1−β)·(+0) = +0.
//! - SES is the same argument without the trend: the first step leaves
//!   level ±0 + α·(h₁ − h₀) = +0, and each further zero keeps it.
//!
//! So every lane's level, trend and SSE keep their bits, and a window
//! of zeros runs no step at all and forecasts +0 as before. A window
//! with one leading zero starts as before, since h₁ − h₀ still seeds
//! Holt's trend, and NaN never equals 0, so no non-finite sample is
//! skipped.
//!
//! # Resuming
//!
//! Serving refits every app on its trailing window every minute, so
//! most of a Holt call's run is the run of the call before it: a
//! sparse window that slides by one minute and still opens with two or
//! more zeros starts from the same +0 state at the same first non-zero
//! sample, and runs the same samples plus one. A `HoltForecaster`
//! therefore keeps a memo of its last call:
//!
//! - the start key, the bits of the (level, trend) pair [`lane_start`]
//!   returned;
//! - the samples its lanes ran over (`history[start..]`);
//! - every lane's level, trend and SSE after those samples.
//!
//! A call whose start key equals the memo's and whose run begins with
//! the memo's samples, compared with `to_bits`, resumes the lanes from
//! the memo and runs only the new tail; any other call resets the memo
//! to its start state and runs its whole run through the same lane
//! body. The lanes' result is a function of the start key and the run
//! alone, and a resumed lane performs exactly the operations a fresh
//! run would, in the same order, so a hit is exact by construction and
//! every forecast is the one a fresh forecaster returns. Hits come from
//! sliding sparse windows, windows still growing at start-up and
//! labelling's strided refits of such windows; a full window that
//! opens with a non-zero sample changes its key at every step and pays
//! its full run. The memo is taken out of the forecaster for the run
//! and put back after it, so a call that panics leaves none behind.
//! It costs about 2.3 KB per forecaster on the paper's 120-minute
//! window: 54 lanes × 3 values and up to 119 samples, 8 bytes each.
//! SES keeps no memo: its lanes are about 1 % of training's busy time,
//! and the trained router selects it for no serving app in perfbench.

use crate::Forecaster;

/// Candidate smoothing parameters for the dynamic grid search.
const GRID: [f64; 9] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.85, 0.95];

/// Holt searches every α in [`GRID`] with the first six as β.
const HOLT_BETAS: usize = 6;

/// Holt lanes: lane `a * HOLT_BETAS + b` runs α = `GRID[a]`, β = `GRID[b]`.
const HOLT_LANES: usize = GRID.len() * HOLT_BETAS;

/// Where the lanes start on `history` (at least two samples), and the
/// level and trend every lane starts from there.
///
/// A window that opens with two or more zeros starts at its first
/// non-zero sample (or its end) from level +0 and trend +0, the state
/// the skipped zeros leave (see "Leading zeros"); any other window
/// starts at sample 1 from level `history[0]` and trend
/// `history[1] - history[0]`.
fn lane_start(history: &[f64]) -> (usize, f64, f64) {
    let zeros = history.iter().take_while(|&&x| x == 0.0).count();
    if zeros >= 2 {
        (zeros, 0.0, 0.0)
    } else {
        (1, history[0], history[1] - history[0])
    }
}

/// Runs SES for every α in [`GRID`] at once; returns each lane's final
/// level and SSE of one-step errors.
fn ses_lanes(history: &[f64]) -> ([f64; GRID.len()], [f64; GRID.len()]) {
    let (start, level0, _) = lane_start(history);
    let mut level = [level0; GRID.len()];
    let mut sse = [0.0; GRID.len()];
    for &x in &history[start..] {
        for l in 0..GRID.len() {
            let err = x - level[l];
            sse[l] += err * err;
            level[l] += GRID[l] * err;
        }
    }
    (level, sse)
}

/// Simple Exponential Smoothing with grid-searched `alpha`.
#[derive(Debug, Clone, Default)]
pub struct SesForecaster;

impl Forecaster for SesForecaster {
    fn name(&self) -> &'static str {
        "exp-smoothing"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        if history.len() == 1 {
            return vec![history[0].max(0.0); horizon];
        }
        let (level, sse) = ses_lanes(history);
        // The first minimum SSE wins; a lane whose SSE went NaN (its
        // level overflowed both ways) never does. No winner forecasts 0.
        let mut best: Option<usize> = None;
        for l in 0..GRID.len() {
            if !sse[l].is_nan() && best.is_none_or(|b| sse[l] < sse[b]) {
                best = Some(l);
            }
        }
        let level = best.map_or(0.0, |b| level[b]);
        vec![level.max(0.0); horizon]
    }
}

/// Every Holt lane's level, trend and SSE of one-step errors.
#[derive(Debug, Clone)]
struct HoltLanes {
    level: [f64; HOLT_LANES],
    trend: [f64; HOLT_LANES],
    sse: [f64; HOLT_LANES],
}

impl HoltLanes {
    /// Every lane at level `level0`, trend `trend0` and SSE +0.
    fn start(level0: f64, trend0: f64) -> Self {
        HoltLanes {
            level: [level0; HOLT_LANES],
            trend: [trend0; HOLT_LANES],
            sse: [0.0; HOLT_LANES],
        }
    }
}

/// Advances every (α, β) lane over `samples` at once.
///
/// On an x86-64 CPU with AVX2 this runs the body compiled for AVX2,
/// where the compiler advances the 54 lanes as 13 256-bit vectors and
/// two scalar lanes instead of 27 128-bit vectors; elsewhere it runs the
/// portable build.
/// Both are [`holt_lanes_body`], and each lane's arithmetic is the same:
/// rustc never contracts or reassociates `f64` operations.
#[cfg_attr(
    target_arch = "x86_64",
    expect(unsafe_code, reason = "runtime CPU dispatch to the AVX2 build")
)]
fn holt_lanes(lanes: &mut HoltLanes, samples: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `holt_lanes_avx2` needs AVX2, which the CPU was just
        // detected to support.
        return unsafe { holt_lanes_avx2(lanes, samples) };
    }
    holt_lanes_body(lanes, samples);
}

/// [`holt_lanes_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn holt_lanes_avx2(lanes: &mut HoltLanes, samples: &[f64]) {
    holt_lanes_body(lanes, samples);
}

/// The one implementation of [`holt_lanes`], inlined into each build.
#[inline(always)]
fn holt_lanes_body(lanes: &mut HoltLanes, samples: &[f64]) {
    let alpha: [f64; HOLT_LANES] =
        std::array::from_fn(|l| GRID[l / HOLT_BETAS]);
    let beta: [f64; HOLT_LANES] =
        std::array::from_fn(|l| GRID[l % HOLT_BETAS]);
    let keep_level = alpha.map(|a| 1.0 - a);
    let keep_trend = beta.map(|b| 1.0 - b);
    let HoltLanes { level, trend, sse } = lanes;
    for &x in samples {
        for l in 0..HOLT_LANES {
            let pred = level[l] + trend[l];
            let err = x - pred;
            sse[l] += err * err;
            let new_level = alpha[l] * x + keep_level[l] * pred;
            trend[l] =
                beta[l] * (new_level - level[l]) + keep_trend[l] * trend[l];
            level[l] = new_level;
        }
    }
}

/// A Holt forecaster's last run (see "Resuming").
#[derive(Debug, Clone)]
struct HoltMemo {
    /// The bits of the (level, trend) pair the lanes started from.
    key: [u64; 2],
    /// The samples the lanes ran over.
    samples: Vec<f64>,
    /// The lanes after `samples`.
    lanes: HoltLanes,
}

impl HoltMemo {
    /// Whether a run from `key` over `run` continues this memo's run.
    fn resumes(&self, key: [u64; 2], run: &[f64]) -> bool {
        self.key == key
            && run.len() >= self.samples.len()
            && run
                .iter()
                .zip(&self.samples)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

/// Holt's linear (double exponential) smoothing with grid-searched
/// `alpha` and `beta`.
#[derive(Debug, Clone, Default)]
pub struct HoltForecaster {
    /// The last call's run, which the next call resumes when its own
    /// run continues it.
    memo: Option<Box<HoltMemo>>,
}

impl Forecaster for HoltForecaster {
    fn name(&self) -> &'static str {
        "holt"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        if history.len() < 3 {
            return vec![history[history.len() - 1].max(0.0); horizon];
        }
        let (start, level0, trend0) = lane_start(history);
        let run = &history[start..];
        let key = [level0.to_bits(), trend0.to_bits()];
        // Out of `self` until the run is done: a panic inside it leaves
        // no half-advanced memo behind.
        let mut memo = self.memo.take().unwrap_or_else(|| {
            Box::new(HoltMemo {
                key,
                samples: Vec::with_capacity(history.len()),
                lanes: HoltLanes::start(level0, trend0),
            })
        });
        if !memo.resumes(key, run) {
            memo.key = key;
            memo.samples.clear();
            memo.lanes = HoltLanes::start(level0, trend0);
        }
        let tail = &run[memo.samples.len()..];
        holt_lanes(&mut memo.lanes, tail);
        memo.samples.extend_from_slice(tail);
        // The first SSE strictly below the best so far wins, starting
        // from +inf: if every SSE overflowed, level and trend stay 0.
        let lanes = &memo.lanes;
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for l in 0..HOLT_LANES {
            if lanes.sse[l] < best.0 {
                best = (lanes.sse[l], lanes.level[l], lanes.trend[l]);
            }
        }
        self.memo = Some(memo);
        let (_, level, trend) = best;
        (1..=horizon)
            .map(|h| (level + trend * h as f64).max(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_windows;
    use femux_stats::rng::Rng;

    /// One SES grid point run alone: the point-by-point search the lanes
    /// replaced, kept verbatim as their bit-identity reference.
    fn ses_run(history: &[f64], alpha: f64) -> (f64, f64) {
        let mut level = history[0];
        let mut sse = 0.0;
        for &x in &history[1..] {
            let err = x - level;
            sse += err * err;
            level += alpha * err;
        }
        (level, sse)
    }

    /// One Holt grid point run alone; see [`ses_run`].
    fn holt_run(history: &[f64], alpha: f64, beta: f64) -> (f64, f64, f64) {
        let mut level = history[0];
        let mut trend = history[1] - history[0];
        let mut sse = 0.0;
        for &x in &history[1..] {
            let pred = level + trend;
            let err = x - pred;
            sse += err * err;
            let new_level = alpha * x + (1.0 - alpha) * (level + trend);
            trend = beta * (new_level - level) + (1.0 - beta) * trend;
            level = new_level;
        }
        (level, trend, sse)
    }

    /// SES as the point-by-point search forecast it, or `None` where its
    /// `min_by` panicked on a NaN SSE.
    fn reference_ses(history: &[f64], horizon: usize) -> Option<Vec<f64>> {
        if history.is_empty() || horizon == 0 {
            return Some(vec![0.0; horizon]);
        }
        if history.len() == 1 {
            return Some(vec![history[0].max(0.0); horizon]);
        }
        let runs: Vec<(f64, f64)> =
            GRID.iter().map(|&a| ses_run(history, a)).collect();
        if runs.iter().any(|run| run.1.is_nan()) {
            return None;
        }
        let (level, _) = runs
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("not NaN"))
            .expect("grid is non-empty");
        let mut out = vec![level.max(0.0); horizon];
        crate::sanitize_forecast(&mut out);
        Some(out)
    }

    /// Holt as the point-by-point search forecast it.
    fn reference_holt(history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        if history.len() < 3 {
            return vec![history[history.len() - 1].max(0.0); horizon];
        }
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for &alpha in &GRID {
            for &beta in &GRID[..6] {
                let (level, trend, sse) = holt_run(history, alpha, beta);
                if sse < best.0 {
                    best = (sse, level, trend);
                }
            }
        }
        let (_, level, trend) = best;
        let mut out: Vec<f64> = (1..=horizon)
            .map(|h| (level + trend * h as f64).max(0.0))
            .collect();
        crate::sanitize_forecast(&mut out);
        out
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lanes_match_the_point_by_point_search_bit_for_bit() {
        for (name, history) in test_windows::sweep() {
            if history.len() >= 2 {
                let (level, sse) = ses_lanes(&history);
                for (l, &alpha) in GRID.iter().enumerate() {
                    let want = ses_run(&history, alpha);
                    assert_eq!(
                        bits(&[level[l], sse[l]]),
                        bits(&[want.0, want.1]),
                        "{name}: SES lane {l}"
                    );
                }
                // Both builds, from the start state a fresh forecaster
                // (or a memo miss) runs from.
                let (start, level0, trend0) = lane_start(&history);
                let mut portable = HoltLanes::start(level0, trend0);
                holt_lanes_body(&mut portable, &history[start..]);
                let mut dispatched = HoltLanes::start(level0, trend0);
                holt_lanes(&mut dispatched, &history[start..]);
                for (build, lanes) in
                    [("portable", portable), ("dispatched", dispatched)]
                {
                    let HoltLanes { level, trend, sse } = lanes;
                    for l in 0..HOLT_LANES {
                        let (a, b) =
                            (GRID[l / HOLT_BETAS], GRID[l % HOLT_BETAS]);
                        let want = holt_run(&history, a, b);
                        assert_eq!(
                            bits(&[level[l], trend[l], sse[l]]),
                            bits(&[want.0, want.1, want.2]),
                            "{name}: {build} Holt lane {l}"
                        );
                    }
                }
            }
            for horizon in [1, 10] {
                let mut holt = HoltForecaster::default();
                assert_eq!(
                    bits(&holt.forecast(&history, horizon)),
                    bits(&reference_holt(&history, horizon)),
                    "{name}: Holt at horizon {horizon}"
                );
                let ses = SesForecaster.forecast(&history, horizon);
                if let Some(want) = reference_ses(&history, horizon) {
                    assert_eq!(
                        bits(&ses),
                        bits(&want),
                        "{name}: SES at horizon {horizon}"
                    );
                }
            }
        }
    }

    #[test]
    fn ses_skips_nan_lanes_instead_of_panicking() {
        // The level reaches -inf, then NaN, in every lane.
        let history: Vec<f64> = (0..150)
            .map(|t| if t % 2 == 0 { f64::MAX } else { -f64::MAX })
            .collect();
        assert!(reference_ses(&history, 3).is_none());
        assert_eq!(SesForecaster.forecast(&history, 3), vec![0.0; 3]);
    }

    #[test]
    fn ses_tracks_level_shift() {
        // Level jumps from 1 to 5 halfway; SES should forecast near 5.
        let mut history = vec![1.0; 60];
        history.extend(vec![5.0; 60]);
        let mut f = SesForecaster;
        let pred = f.forecast(&history, 3);
        for p in pred {
            assert!((p - 5.0).abs() < 0.2, "prediction {p}");
        }
    }

    #[test]
    fn ses_constant_is_exact() {
        let mut f = SesForecaster;
        assert_eq!(f.forecast(&[2.0; 50], 2), vec![2.0, 2.0]);
    }

    #[test]
    fn holt_extrapolates_trend() {
        // y = 0.5 t: Holt must continue the ramp, SES cannot.
        let history: Vec<f64> = (0..100).map(|t| 0.5 * t as f64).collect();
        let mut holt = HoltForecaster::default();
        let mut ses = SesForecaster;
        let hp = holt.forecast(&history, 10);
        let sp = ses.forecast(&history, 10);
        let truth_10 = 0.5 * 109.0;
        assert!((hp[9] - truth_10).abs() < 1.0, "holt {}", hp[9]);
        assert!(sp[9] < hp[9], "ses {} should lag holt {}", sp[9], hp[9]);
    }

    #[test]
    fn holt_handles_noise() {
        let mut rng = Rng::seed_from_u64(1);
        let history: Vec<f64> = (0..120)
            .map(|t| 10.0 + 0.1 * t as f64 + rng.normal())
            .collect();
        let mut holt = HoltForecaster::default();
        let pred = holt.forecast(&history, 5);
        let truth = 10.0 + 0.1 * 124.0;
        assert!((pred[4] - truth).abs() < 2.0, "pred {}", pred[4]);
    }

    #[test]
    fn never_negative_even_with_downtrend() {
        let history: Vec<f64> =
            (0..60).map(|t| (30.0 - t as f64).max(0.0)).collect();
        let mut holt = HoltForecaster::default();
        for p in holt.forecast(&history, 60) {
            assert!(p >= 0.0);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let mut ses = SesForecaster;
        let mut holt = HoltForecaster::default();
        assert_eq!(ses.forecast(&[], 2), vec![0.0, 0.0]);
        assert_eq!(holt.forecast(&[], 2), vec![0.0, 0.0]);
        assert_eq!(ses.forecast(&[7.0], 2), vec![7.0, 7.0]);
        assert_eq!(holt.forecast(&[7.0, 8.0], 1), vec![8.0]);
    }
}
