//! Block formation and latent feature extraction (§4.3.2 of the paper).
//!
//! FeMux divides each application's per-minute average-concurrency series
//! into fixed **blocks** of 504 minutes (the BDS linearity test needs at
//! least ~400 points; 504 also divides the 14-day Azure trace into an
//! integer 40 blocks). Once a block completes, FeMux extracts latent
//! features — stationarity (ADF), linearity (BDS), periodicity (harmonic
//! prominence), and density — and feeds them to the classifier that picks
//! the block's forecaster. Feature extraction takes well under the
//! paper's 5 ms budget per block.
//!
//! One extractor computes every row: [`IncrementalExtractor`] streams
//! a serving app's samples, and [`extract`] pushes a completed training
//! block through a fresh one, so the rows the router is trained on and
//! the rows it routes are the same computation.

use femux_stats::bds::bds_on_ar_residuals;
use femux_stats::fft::power_spectrum;

pub mod incremental;

pub use incremental::{BlockFeatures, IncrementalExtractor};

/// The paper's block size in minutes.
pub const BLOCK_MINUTES: usize = 504;

/// A latent feature of a traffic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureKind {
    /// Augmented Dickey-Fuller statistic (more negative = more
    /// stationary).
    Stationarity,
    /// |BDS| statistic on AR residuals (larger = more nonlinear).
    Linearity,
    /// Fraction of signal variance captured by the three strongest
    /// harmonics (closer to 1 = more periodic).
    Periodicity,
    /// Total traffic mass in the block (log1p of summed concurrency).
    Density,
    /// Log execution time of the application (only used by FeMux-Exec,
    /// §5.1.3).
    ExecTime,
}

impl FeatureKind {
    /// The paper's default feature set.
    pub const DEFAULT: [FeatureKind; 4] = [
        FeatureKind::Stationarity,
        FeatureKind::Linearity,
        FeatureKind::Periodicity,
        FeatureKind::Density,
    ];

    /// All features including the exec-time extension.
    pub const ALL: [FeatureKind; 5] = [
        FeatureKind::Stationarity,
        FeatureKind::Linearity,
        FeatureKind::Periodicity,
        FeatureKind::Density,
        FeatureKind::ExecTime,
    ];

    /// A short stable name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::Stationarity => "stationarity",
            FeatureKind::Linearity => "linearity",
            FeatureKind::Periodicity => "periodicity",
            FeatureKind::Density => "density",
            FeatureKind::ExecTime => "exec-time",
        }
    }
}

/// A completed traffic block: one application's concurrency series over
/// one block window, plus the metadata feature extraction needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Index of the application in its fleet.
    pub app_index: usize,
    /// Block sequence number within the application (0-based).
    pub seq: usize,
    /// Per-minute average concurrency (length = block size).
    pub series: Vec<f64>,
    /// Mean execution time of the application in seconds (for the
    /// exec-time feature).
    pub exec_secs: f64,
}

/// Splits a series into non-overlapping blocks of `block_len`, dropping
/// the trailing partial block (FeMux only acts on completed blocks).
///
/// # Panics
///
/// Panics if `block_len == 0`.
pub fn split_blocks(
    app_index: usize,
    series: &[f64],
    block_len: usize,
    exec_secs: f64,
) -> Vec<Block> {
    assert!(block_len > 0, "block length must be positive");
    series
        .chunks_exact(block_len)
        .enumerate()
        .map(|(seq, chunk)| Block {
            app_index,
            seq,
            series: chunk.to_vec(),
            exec_secs,
        })
        .collect()
}

/// Computes the linearity feature: |BDS| on AR(5) residuals, clamped.
/// Returns 0 (no nonlinearity evidence) for degenerate series.
pub fn linearity(series: &[f64]) -> f64 {
    match bds_on_ar_residuals(series, 5, 2, 1.0) {
        Some(res) => res.statistic.abs().min(50.0),
        None => 0.0,
    }
}

/// Computes the periodicity feature: the fraction of variance in the
/// three strongest harmonics. 0 for flat series and for windows whose
/// spectrum is degenerate (a non-finite sample poisons every bin, so
/// such a window carries no periodicity evidence).
pub fn periodicity(series: &[f64]) -> f64 {
    let spectrum = power_spectrum(series);
    if spectrum.is_empty() {
        return 0.0;
    }
    let total: f64 = spectrum.iter().sum();
    if !total.is_finite() || total <= 1e-12 {
        return 0.0;
    }
    top_three_sum(&spectrum) / total
}

/// The sum of the three largest powers under `total_cmp` (fewer when
/// there are fewer), largest first: what summing the first three of the
/// powers sorted in descending order gives, in one pass.
fn top_three_sum(powers: &[f64]) -> f64 {
    // Descending; a power equal to a kept one goes after it, as in a
    // stable sort (equal under `total_cmp` means equal bits).
    let mut top: Vec<f64> = Vec::with_capacity(4);
    for &p in powers {
        let at = top.partition_point(|t| t.total_cmp(&p).is_ge());
        if at < 3 {
            top.insert(at, p);
            top.truncate(3);
        }
    }
    top.iter().sum()
}

/// Extracts the requested features from a block, in the order of
/// `kinds`, by pushing its samples through a fresh
/// [`IncrementalExtractor`] whose block count starts at `block.seq`.
///
/// # Panics
///
/// Panics if `block.series` is empty.
pub fn extract(block: &Block, kinds: &[FeatureKind]) -> BlockFeatures {
    let mut extractor =
        IncrementalExtractor::new(block.series.len(), block.exec_secs, kinds)
            .starting_at_block(block.seq);
    block
        .series
        .iter()
        .find_map(|&v| extractor.push(v))
        .expect("the block's last sample completes the block")
}

/// Extracts features for many blocks (rows of the classifier's design
/// matrix).
///
/// Blocks are processed in parallel (`FEMUX_THREADS` workers): the
/// ADF/BDS/FFT work per block is independent, and results are collected
/// in block order, so the matrix is identical for every thread count.
pub fn extract_all(
    blocks: &[Block],
    kinds: &[FeatureKind],
) -> Vec<Vec<f64>> {
    femux_obs::counter_add("features.extract_all.calls", 1);
    femux_par::par_map(blocks, |_, b| extract(b, kinds).features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use femux_stats::rng::Rng;

    fn block_of(series: Vec<f64>) -> Block {
        Block {
            app_index: 0,
            seq: 0,
            series,
            exec_secs: 0.5,
        }
    }

    /// One feature of a one-block series.
    fn feature(series: Vec<f64>, kind: FeatureKind) -> f64 {
        extract(&block_of(series), &[kind]).features[0]
    }

    fn periodic_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                2.0 + (2.0 * std::f64::consts::PI * t as f64 / 60.0).sin()
            })
            .collect()
    }

    fn noise_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.normal().abs()).collect()
    }

    fn random_walk(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut acc = 50.0;
        (0..n)
            .map(|_| {
                acc += rng.normal();
                acc.max(0.0)
            })
            .collect()
    }

    #[test]
    fn split_blocks_shapes() {
        let series: Vec<f64> = (0..1_100).map(|i| i as f64).collect();
        let blocks = split_blocks(3, &series, BLOCK_MINUTES, 1.0);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].series.len(), BLOCK_MINUTES);
        assert_eq!(blocks[1].seq, 1);
        assert_eq!(blocks[1].series[0], BLOCK_MINUTES as f64);
        assert_eq!(blocks[0].app_index, 3);
    }

    #[test]
    fn periodicity_separates_signals() {
        let periodic = periodicity(&periodic_series(504));
        let noisy = periodicity(&noise_series(504, 1));
        assert!(periodic > 0.8, "periodic {periodic}");
        assert!(noisy < 0.35, "noise {noisy}");
    }

    #[test]
    fn stationarity_separates_signals() {
        let stationary =
            feature(noise_series(504, 2), FeatureKind::Stationarity);
        let wandering =
            feature(random_walk(504, 3), FeatureKind::Stationarity);
        // -3.43 is the 1 % ADF critical value: white noise must reject
        // the unit root decisively even with Schwert's generous lag
        // count.
        assert!(
            stationary < -3.43,
            "white noise should be strongly stationary: {stationary}"
        );
        assert!(wandering > -3.0, "random walk should not be: {wandering}");
    }

    #[test]
    fn linearity_flags_threshold_dynamics() {
        let mut rng = Rng::seed_from_u64(4);
        let mut xs = vec![1.0];
        for _ in 0..503 {
            let prev = *xs.last().expect("non-empty");
            let coef = if prev > 1.0 { 0.3 } else { 1.2 };
            xs.push((coef * prev + 0.1 * rng.normal()).max(0.0));
        }
        let nonlinear = linearity(&xs);
        let linear = linearity(&noise_series(504, 5));
        assert!(
            nonlinear > linear,
            "nonlinear {nonlinear} vs linear {linear}"
        );
    }

    /// The sort the one-pass selection replaced, kept as its
    /// bit-identity reference.
    fn reference_top_three_sum(powers: &[f64]) -> f64 {
        let mut top = powers.to_vec();
        top.sort_by(|a, b| b.total_cmp(a));
        top.iter().take(3).sum::<f64>()
    }

    #[test]
    fn top_three_matches_the_sort_bit_for_bit() {
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.5],
            vec![0.25, 2.0],
            vec![0.0; 252],
            vec![-0.0, 0.0, -0.0, 0.0],
            // Ties at and around the cut.
            vec![1.0, 3.0, 3.0, 2.0, 3.0, 2.0],
            vec![1e-300, 1e300, 1.0, 1e300, 1e-300],
            vec![0.1, 0.2, 0.3, 0.3, 0.2, 0.1],
        ];
        for seed in 0..8 {
            let series = match seed % 3 {
                0 => noise_series(504, seed),
                1 => random_walk(504, seed),
                _ => periodic_series(120),
            };
            cases.push(power_spectrum(&series));
        }
        let mut rng = Rng::seed_from_u64(9);
        cases.push((0..252).map(|_| rng.below(4) as f64).collect());
        for powers in &cases {
            assert_eq!(
                top_three_sum(powers).to_bits(),
                reference_top_three_sum(powers).to_bits(),
                "{powers:?}"
            );
        }
    }

    #[test]
    fn density_orders_by_mass() {
        let quiet = feature(vec![0.01; 504], FeatureKind::Density);
        let busy = feature(vec![50.0; 504], FeatureKind::Density);
        assert!(busy > quiet);
        assert_eq!(feature(vec![0.0; 504], FeatureKind::Density), 0.0);
    }

    #[test]
    fn extract_orders_follow_kinds() {
        // A subset without stationarity runs no ADF, and each of its
        // features equals the full row's, bit for bit.
        let block = block_of(periodic_series(504));
        let all = extract(&block, &FeatureKind::ALL).features;
        let kinds = [FeatureKind::Density, FeatureKind::Periodicity];
        let feats = extract(&block, &kinds).features;
        assert_eq!(feats.len(), 2);
        assert_eq!(feats[0].to_bits(), all[3].to_bits());
        assert_eq!(feats[1].to_bits(), all[2].to_bits());
        assert_eq!(feats[1], periodicity(&block.series));
    }

    #[test]
    fn exec_feature_is_log_scale() {
        let mut block = block_of(vec![1.0; 504]);
        block.exec_secs = 1.0;
        let f1 = extract(&block, &[FeatureKind::ExecTime]).features[0];
        block.exec_secs = std::f64::consts::E;
        let f2 = extract(&block, &[FeatureKind::ExecTime]).features[0];
        assert!((f1 - 0.0).abs() < 1e-12);
        assert!((f2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_block_features_are_finite() {
        let block = block_of(vec![3.0; 504]);
        for f in extract(&block, &FeatureKind::ALL).features {
            assert!(f.is_finite());
        }
    }

    #[test]
    fn idle_detection() {
        let idle = |series| extract(&block_of(series), &[]).idle;
        assert!(idle(vec![0.0; 504]));
        assert!(!idle(vec![0.5; 504]));
    }

    #[test]
    fn extract_all_gives_matrix() {
        let blocks = vec![
            block_of(periodic_series(504)),
            block_of(noise_series(504, 6)),
        ];
        let rows = extract_all(&blocks, &FeatureKind::DEFAULT);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn periodicity_nonfinite_window_is_flat_not_a_panic() {
        // Regression (serve parity gate, adversarial battery): a
        // 504-minute window carrying a single NaN sample — a lost
        // concurrency report that reaches extraction unsanitized
        // — used to panic in the power-spectrum sort ("finite power");
        // an ∞ sample produced a NaN feature that poisoned the scaler
        // downstream. Both degenerate windows now report zero
        // periodicity.
        let mut series = periodic_series(504);
        series[100] = f64::NAN;
        assert_eq!(periodicity(&series), 0.0);
        series[100] = f64::INFINITY;
        assert_eq!(periodicity(&series), 0.0);
        // The test statistics stay finite on such windows too (density
        // deliberately reports the poisoned mass itself; the scaler
        // clamps it downstream).
        let row = extract(&block_of(series), &FeatureKind::DEFAULT);
        assert!(row.features[0].is_finite(), "stationarity");
        assert!(row.features[1].is_finite(), "linearity");
    }

    #[test]
    fn feature_names_unique() {
        let mut names: Vec<&str> =
            FeatureKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FeatureKind::ALL.len());
    }
}
