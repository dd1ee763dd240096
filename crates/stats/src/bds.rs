//! Broock-Dechert-Scheinkman (BDS) independence test.
//!
//! FeMux uses the BDS statistic as its *linearity* block feature (§4.3.2).
//! Applied to the residuals of a fitted linear (AR) model, a large |BDS|
//! value indicates remaining nonlinear structure, steering block
//! classification toward SETAR; a small value means a linear model already
//! captures the dynamics. The paper notes BDS requires at least ~400
//! observations, which motivated the 504-minute block size.
//!
//! The statistic for embedding dimension `m` and radius `eps` is
//!
//! `W_m = sqrt(N_m) * (C_m - C_1^m) / sigma_m`
//!
//! where `C_m` is the correlation integral (fraction of pairs of
//! `m`-histories within `eps` in the sup norm) and `sigma_m` follows the
//! asymptotic variance formula of Broock et al. (1996).
//!
//! # One pass over the pairs
//!
//! `C_1`, `C_m` and the `K` estimator of the variance all count the same
//! predicate, `|x_i - x_j| < eps`, so [`bds_test`] evaluates it once per
//! pair `i < j`, row by row. Along each diagonal `j - i` it keeps the
//! length of the current run of close pairs: a pair closes a run of
//! length `r`, so it counts towards `C_1` when `r >= 1` and ends a close
//! pair of `m`-histories when `r >= m`. Each close pair also adds one
//! neighbour to both of its points, which is all `K` needs. The counts
//! are integers and the ratios are formed exactly as the three separate
//! O(n²) loops formed them, so the statistic is bit-identical to theirs
//! (the loops survive as test references).
use crate::acf::levinson_durbin;
use crate::desc::std_dev;

/// Result of a BDS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BdsResult {
    /// The standardized test statistic (asymptotically N(0,1) under iid).
    pub statistic: f64,
    /// Embedding dimension used.
    pub dimension: usize,
    /// Radius used (in data units).
    pub epsilon: f64,
}

/// `C_1`, `C_m` and `K` of one series at one radius.
struct PairStats {
    c1: f64,
    cm: f64,
    k: f64,
}

/// Computes [`PairStats`] in one pass over the pairs `i < j` (see the
/// module docs). Needs `xs.len() >= m + 1` and `xs.len() >= 3`.
///
/// On an x86-64 CPU with AVX2 this runs the body compiled for AVX2,
/// where the compiler vectorizes the pair loop with 256-bit vectors;
/// elsewhere it runs the portable build. Both are [`pair_stats_body`],
/// and the results are the same: the predicate is a comparison, the
/// counts are integers, and rustc never contracts or reassociates `f64`
/// operations.
#[cfg_attr(
    target_arch = "x86_64",
    expect(unsafe_code, reason = "runtime CPU dispatch to the AVX2 build")
)]
fn pair_stats(xs: &[f64], m: usize, eps: f64) -> PairStats {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `pair_stats_avx2` needs AVX2, which the CPU was just
        // detected to support.
        return unsafe { pair_stats_avx2(xs, m, eps) };
    }
    pair_stats_body(xs, m, eps)
}

/// [`pair_stats_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pair_stats_avx2(xs: &[f64], m: usize, eps: f64) -> PairStats {
    pair_stats_body(xs, m, eps)
}

/// The one implementation of [`pair_stats`], inlined into each build.
#[inline(always)]
fn pair_stats_body(xs: &[f64], m: usize, eps: f64) -> PairStats {
    let n = xs.len();
    // run[d - 1]: close pairs in a row ending at (i, i + d) on diagonal d.
    let mut run = vec![0usize; n];
    let mut neighbours = vec![0usize; n];
    let mut close = 0usize;
    let mut close_m = 0usize;
    for (i, &xi) in xs.iter().enumerate() {
        let (before, after) = neighbours.split_at_mut(i + 1);
        let mut row_close = 0;
        let mut row_close_m = 0;
        for ((r, c), &xj) in run.iter_mut().zip(after).zip(&xs[i + 1..]) {
            let near = usize::from((xi - xj).abs() < eps);
            *r = (*r + 1) * near;
            *c += near;
            row_close += near;
            row_close_m += usize::from(*r >= m);
        }
        before[i] += row_close;
        close += row_close;
        close_m += row_close_m;
    }
    let n_m = n + 1 - m;
    let mut triples = 0.0;
    for &c in &neighbours {
        triples += (c * c.saturating_sub(1)) as f64;
    }
    PairStats {
        c1: 2.0 * close as f64 / (n as f64 * (n - 1) as f64),
        cm: 2.0 * close_m as f64 / (n_m as f64 * (n_m - 1) as f64),
        k: triples / (n as f64 * (n - 1) as f64 * (n - 2) as f64),
    }
}

/// Runs the BDS test on `xs` with embedding dimension `m` and radius
/// `eps_factor * std_dev(xs)`.
///
/// Returns `None` for series that are too short (fewer than ~4·m + 20
/// points), constant, or whose variance estimate degenerates.
pub fn bds_test(xs: &[f64], m: usize, eps_factor: f64) -> Option<BdsResult> {
    let n = xs.len();
    if m < 2 || n < 4 * m + 20 {
        return None;
    }
    let sd = std_dev(xs);
    if sd <= 1e-12 {
        return None;
    }
    let eps = eps_factor * sd;
    let PairStats { c1, cm, k } = pair_stats(xs, m, eps);
    if c1 <= 0.0 || c1 >= 1.0 || k <= 0.0 {
        return None;
    }
    // Asymptotic variance (Broock et al. 1996).
    let mf = m as f64;
    let mut sum_term = 0.0;
    for j in 1..m {
        sum_term += k.powi((m - j) as i32) * c1.powi(2 * j as i32);
    }
    let var = 4.0
        * (k.powi(m as i32) + 2.0 * sum_term
            + (mf - 1.0) * (mf - 1.0) * c1.powi(2 * m as i32)
            - mf * mf * k * c1.powi(2 * m as i32 - 2));
    if var <= 0.0 {
        return None;
    }
    let n_m = (n + 1 - m) as f64;
    let statistic = n_m.sqrt() * (cm - c1.powi(m as i32)) / var.sqrt();
    Some(BdsResult {
        statistic,
        dimension: m,
        epsilon: eps,
    })
}

/// Runs the BDS test on the residuals of an AR(`order`) fit.
///
/// This is the standard recipe for a *nonlinearity* test: the AR fit
/// removes linear structure, so remaining dependence detected by BDS is
/// evidence of nonlinearity. Returns `None` if the AR fit or the BDS test
/// is infeasible.
pub fn bds_on_ar_residuals(
    xs: &[f64],
    order: usize,
    m: usize,
    eps_factor: f64,
) -> Option<BdsResult> {
    femux_obs::counter_add("stats.bds.tests", 1);
    bds_test(&ar_residuals(xs, order)?, m, eps_factor)
}

/// One-step residuals of an AR(`order`) fit to the mean-centred series;
/// `None` when the fit is infeasible.
fn ar_residuals(xs: &[f64], order: usize) -> Option<Vec<f64>> {
    let (phi, _) = levinson_durbin(xs, order)?;
    let mean = crate::desc::mean(xs);
    let centered: Vec<f64> = xs.iter().map(|x| x - mean).collect();
    Some(
        (order..centered.len())
            .map(|t| {
                let pred: f64 = (0..order)
                    .map(|i| phi[i] * centered[t - 1 - i])
                    .sum();
                centered[t] - pred
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The two-sided 5 % critical value of the statistic's asymptotic
    /// N(0,1) law: a larger |statistic| rejects the iid null.
    const CRITICAL_5: f64 = 1.96;

    #[test]
    fn iid_noise_not_dependent() {
        let mut rng = Rng::seed_from_u64(1);
        let xs: Vec<f64> = (0..500).map(|_| rng.normal()).collect();
        let res = bds_test(&xs, 2, 1.0).unwrap();
        assert!(
            res.statistic.abs() < 3.0,
            "statistic {} too large for iid noise",
            res.statistic
        );
    }

    #[test]
    fn deterministic_chaos_is_dependent() {
        // The logistic map at r=4 is the canonical BDS positive control.
        let mut x = 0.3;
        let xs: Vec<f64> = (0..500)
            .map(|_| {
                x = 4.0 * x * (1.0 - x);
                x
            })
            .collect();
        let res = bds_test(&xs, 2, 1.0).unwrap();
        assert!(
            res.statistic.abs() > CRITICAL_5,
            "statistic {}",
            res.statistic
        );
        assert!(res.statistic.abs() > 5.0);
    }

    #[test]
    fn ar_series_dependent_raw_but_not_in_residuals() {
        let mut rng = Rng::seed_from_u64(2);
        let mut xs = vec![0.0];
        for _ in 0..600 {
            let prev = *xs.last().expect("non-empty");
            xs.push(0.8 * prev + rng.normal());
        }
        let raw = bds_test(&xs, 2, 1.0).unwrap();
        assert!(
            raw.statistic.abs() > CRITICAL_5,
            "raw statistic {}",
            raw.statistic
        );
        let resid = bds_on_ar_residuals(&xs, 5, 2, 1.0).unwrap();
        assert!(
            resid.statistic.abs() < raw.statistic.abs(),
            "residual statistic {} not smaller than raw {}",
            resid.statistic,
            raw.statistic
        );
    }

    #[test]
    fn threshold_dynamics_stay_dependent_in_residuals() {
        // A SETAR-style process: different AR regimes by sign. Linear AR
        // residuals keep nonlinear structure.
        let mut rng = Rng::seed_from_u64(3);
        let mut xs = vec![0.0];
        for _ in 0..800 {
            let prev = *xs.last().expect("non-empty");
            let coef = if prev > 0.0 { 0.9 } else { -0.6 };
            xs.push(coef * prev + 0.3 * rng.normal());
        }
        let resid = bds_on_ar_residuals(&xs, 5, 2, 1.0).unwrap();
        assert!(
            resid.statistic.abs() > CRITICAL_5,
            "residual statistic {}",
            resid.statistic
        );
    }

    #[test]
    fn short_or_constant_series_return_none() {
        assert!(bds_test(&[1.0; 10], 2, 1.0).is_none());
        let constant = vec![5.0; 200];
        assert!(bds_test(&constant, 2, 1.0).is_none());
    }

    #[test]
    fn pair_stats_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        let xs: Vec<f64> = (0..200).map(|_| rng.normal()).collect();
        for m in [2usize, 3] {
            let s = pair_stats(&xs, m, 1.0);
            for (name, v) in [("C_1", s.c1), ("C_m", s.cm), ("K", s.k)] {
                assert!((0.0..=1.0).contains(&v), "{name} = {v} at m {m}");
            }
            // Longer histories are close less often; K >= C^2 by
            // Cauchy-Schwarz (approximately, for estimators).
            assert!(s.cm <= s.c1);
            assert!(s.k >= s.c1 * s.c1 - 0.05, "K {} vs C^2", s.k);
        }
        // Larger eps means more pairs are close.
        assert!(pair_stats(&xs, 2, 2.0).cm > pair_stats(&xs, 2, 0.5).cm);
    }

    /// The three O(n²) loops the one-pass [`pair_stats`] replaced, kept
    /// verbatim as its bit-identity reference.
    fn correlation_integral(xs: &[f64], m: usize, eps: f64) -> f64 {
        let n_m = xs.len() + 1 - m;
        if n_m < 2 {
            return 0.0;
        }
        let mut close = 0u64;
        for i in 0..n_m {
            'pairs: for j in i + 1..n_m {
                for k in 0..m {
                    if (xs[i + k] - xs[j + k]).abs() >= eps {
                        continue 'pairs;
                    }
                }
                close += 1;
            }
        }
        2.0 * close as f64 / (n_m as f64 * (n_m - 1) as f64)
    }

    /// See [`correlation_integral`].
    fn k_estimator(xs: &[f64], eps: f64) -> f64 {
        let n = xs.len();
        if n < 3 {
            return 0.0;
        }
        let mut total = 0.0;
        for s in 0..n {
            let mut c = 0u64;
            for t in 0..n {
                if t != s && (xs[t] - xs[s]).abs() < eps {
                    c += 1;
                }
            }
            total += (c * c.saturating_sub(1)) as f64;
        }
        total / (n as f64 * (n - 1) as f64 * (n - 2) as f64)
    }

    /// IBM-like minutes (this crate sits below the trace generators):
    /// idle stretches broken by on/off bursts of lognormal height.
    fn ibm_like(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut on = false;
        let mut level = 0.0;
        (0..n)
            .map(|_| {
                if rng.chance(if on { 0.2 } else { 0.05 }) {
                    on = !on;
                    level = rng.lognormal(1.0, 0.8);
                }
                if on {
                    (level * (1.0 + 0.3 * rng.normal())).max(0.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Azure-like minutes: a diurnal cycle plus noise and a slow trend.
    fn azure_like(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let phase = rng.range_f64(0.0, 1440.0);
        (0..n)
            .map(|t| {
                let day = (2.0 * std::f64::consts::PI * (t as f64 + phase)
                    / 1440.0)
                    .sin();
                (5.0 + 4.0 * day + 0.002 * t as f64 + rng.poisson(2.0) as f64)
                    .max(0.0)
            })
            .collect()
    }

    #[test]
    fn one_pass_matches_the_pair_loops_bit_for_bit() {
        let mut windows: Vec<(String, Vec<f64>)> = Vec::new();
        for seed in 0..4 {
            windows.push((format!("ibm-{seed}"), ibm_like(504, seed)));
            windows.push((format!("azure-{seed}"), azure_like(504, seed)));
        }
        windows.push(("sparse".into(), {
            let mut xs = vec![0.0; 504];
            for t in (0..504).step_by(37) {
                xs[t] = 1.0 + (t % 5) as f64;
            }
            xs
        }));
        windows.push(("all-zero".into(), vec![0.0; 504]));
        windows.push((
            "repeated-values".into(),
            (0..504).map(|t| (t % 4 / 3) as f64).collect(),
        ));
        windows.push((
            "alternating-extremes".into(),
            (0..120)
                .map(|t| if t % 2 == 0 { 1e-300 } else { 1e300 })
                .collect(),
        ));
        windows.push((
            "mixed-sign-extremes".into(),
            (0..120)
                .map(|t| if t % 2 == 0 { f64::MAX } else { -f64::MAX })
                .collect(),
        ));
        windows.push(("with-nan".into(), {
            let mut xs = azure_like(120, 9);
            xs[40] = f64::NAN;
            xs
        }));
        for (name, raw) in &windows {
            let residuals = ar_residuals(raw, 5);
            for xs in std::iter::once(raw).chain(residuals.as_ref()) {
                // Radii as bds_test forms them: a window with a
                // non-finite value has a NaN standard deviation.
                let sd = std_dev(xs);
                for eps in [0.0, 0.5, 1.0, 2.0].map(|f| f * sd) {
                    for m in [2usize, 3] {
                        let want = [
                            correlation_integral(xs, 1, eps),
                            correlation_integral(xs, m, eps),
                            k_estimator(xs, eps),
                        ];
                        // The portable build, and the one the dispatch
                        // picks: the AVX2 build where the CPU has it.
                        for (build, s) in [
                            ("portable", pair_stats_body(xs, m, eps)),
                            ("dispatched", pair_stats(xs, m, eps)),
                        ] {
                            if eps.is_nan() {
                                // The loops disagree with each other on a
                                // NaN radius (`>=` vs `<`); bds_test
                                // rejects it either way, through C_1 or K.
                                assert!(s.c1 <= 0.0 && want[2] <= 0.0);
                                continue;
                            }
                            for (got, want) in
                                [s.c1, s.cm, s.k].iter().zip(want)
                            {
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{name} {build} m {m} eps {eps}: \
                                     {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
