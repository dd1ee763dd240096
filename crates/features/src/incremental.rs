//! Incremental per-sample feature maintenance for the online per-app
//! manager.
//!
//! The offline pipeline re-extracts every feature from a completed
//! block's full series. A serving pod cannot afford that shape of work:
//! with a thousand apps per shard, re-running the O(block × lags²) ADF
//! design-matrix build at every block boundary concentrates milliseconds
//! of latency into single ticks, and keeping each app's unbounded series
//! (as [`crate::Block`]-based replay does) grows memory without limit.
//!
//! [`IncrementalExtractor`] maintains the paper's features over a
//! fixed-capacity block buffer instead:
//!
//! - **density** — the running in-order sum, folded exactly like the
//!   batch `iter().sum::<f64>()`;
//! - **stationarity** — a streaming [`AdfAccumulator`] folds each
//!   regression row into the Gram matrix / `X^T y` the moment the row's
//!   samples exist, leaving only an O(rows × cols) residual pass plus
//!   the (cols³) solve at the boundary;
//! - **linearity** and **periodicity** — inherently whole-window
//!   statistics (BDS needs the final mean and pairwise correlation
//!   integral; the FFT needs the complete signal), evaluated once per
//!   boundary over the block buffer, whose contents equal the batch
//!   block byte-for-byte.
//!
//! **Parity gate:** at every block boundary the emitted feature row is
//! bit-for-bit equal to [`crate::extract`] on the equivalent
//! [`crate::Block`] — the same f64 operations on the same operands in
//! the same order. `tests/serve_determinism.rs` sweeps this equality
//! over seeded synthetic fleets; any divergence is a bug in one of the
//! two paths.

use femux_stats::adf::AdfAccumulator;

use crate::{linearity, periodicity, FeatureKind};

/// The feature row emitted when a pushed sample completes a block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockFeatures {
    /// Block sequence number within the app (0-based).
    pub seq: usize,
    /// Features in the extractor's configured kind order.
    pub features: Vec<f64>,
    /// Whether the block is idle ([`crate::is_idle`] on the same
    /// window): callers route idle blocks to the default forecaster
    /// without classification.
    pub idle: bool,
}

/// Streaming replacement for [`crate::extract`] over tumbling blocks.
#[derive(Debug, Clone)]
pub struct IncrementalExtractor {
    kinds: Vec<FeatureKind>,
    block_len: usize,
    exec_secs: f64,
    /// Current block's samples; capacity is fixed at `block_len` and the
    /// buffer is cleared (not reallocated) at each boundary.
    buf: Vec<f64>,
    /// Running in-order sum of `buf` (density / idle detection).
    sum: f64,
    /// Streaming ADF state; `None` when the block is too short for the
    /// automatic test (the batch path returns the same verdict).
    adf: Option<AdfAccumulator>,
    seq: usize,
}

impl IncrementalExtractor {
    /// Creates an extractor for one application.
    ///
    /// # Panics
    ///
    /// Panics if `block_len == 0`.
    pub fn new(
        block_len: usize,
        exec_secs: f64,
        kinds: &[FeatureKind],
    ) -> Self {
        assert!(block_len > 0, "block length must be positive");
        IncrementalExtractor {
            kinds: kinds.to_vec(),
            block_len,
            exec_secs,
            buf: Vec::with_capacity(block_len),
            sum: 0.0,
            adf: AdfAccumulator::auto(block_len),
            seq: 0,
        }
    }

    /// Starts the block count at `blocks` instead of 0: an extractor
    /// rebuilt mid-stream from persisted state continues the original
    /// sequence numbers.
    pub fn starting_at_block(mut self, blocks: usize) -> Self {
        self.seq = blocks;
        self
    }

    /// The configured block length.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Samples accumulated toward the current (incomplete) block.
    pub fn block_progress(&self) -> usize {
        self.buf.len()
    }

    /// Number of blocks completed so far.
    pub fn blocks_completed(&self) -> usize {
        self.seq
    }

    /// Read-only view of the current block buffer (oldest first).
    pub fn window(&self) -> &[f64] {
        &self.buf
    }

    /// Ingests one per-minute sample. Returns the block's feature row
    /// when this sample completes a block, `None` otherwise.
    pub fn push(&mut self, value: f64) -> Option<BlockFeatures> {
        self.buf.push(value);
        // Density's batch fold is iter().sum::<f64>(): left-to-right
        // from 0.0 — the same adds in the same order.
        self.sum += value;
        if let Some(adf) = self.adf.as_mut() {
            adf.push(value);
        }
        if self.buf.len() < self.block_len {
            return None;
        }
        let out = self.finalize_block();
        self.buf.clear();
        self.sum = 0.0;
        if let Some(adf) = self.adf.as_mut() {
            adf.reset();
        }
        self.seq += 1;
        Some(out)
    }

    fn finalize_block(&self) -> BlockFeatures {
        femux_obs::counter_add("features.incremental.blocks", 1);
        let features = self
            .kinds
            .iter()
            .map(|k| match k {
                FeatureKind::Stationarity => self.stationarity(),
                FeatureKind::Linearity => linearity(&self.buf),
                FeatureKind::Periodicity => periodicity(&self.buf),
                FeatureKind::Density => (1.0 + self.sum).ln(),
                FeatureKind::ExecTime => (self.exec_secs.max(1e-4)).ln(),
            })
            .collect();
        BlockFeatures {
            seq: self.seq,
            features,
            // is_idle(): mean(series) < 1e-9, with mean = the identical
            // in-order sum divided by the length.
            idle: self.sum / (self.buf.len() as f64) < 1e-9,
        }
    }

    fn stationarity(&self) -> f64 {
        // Mirrors adf_test_auto's telemetry and the batch clamp in
        // crate::stationarity.
        femux_obs::counter_add("stats.adf.tests", 1);
        match self.adf.as_ref().and_then(|a| a.finalize(&self.buf)) {
            Some(res) => res.statistic.clamp(-30.0, 10.0),
            None => -30.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract, is_idle, Block};
    use femux_stats::rng::Rng;

    fn assert_block_parity(
        series: &[f64],
        block_len: usize,
        kinds: &[FeatureKind],
        label: &str,
    ) {
        let mut inc = IncrementalExtractor::new(block_len, 0.5, kinds);
        let mut boundaries = 0;
        for (t, &v) in series.iter().enumerate() {
            if let Some(out) = inc.push(v) {
                let lo = (t + 1) - block_len;
                let block = Block {
                    app_index: 0,
                    seq: out.seq,
                    series: series[lo..t + 1].to_vec(),
                    exec_secs: 0.5,
                };
                let batch = extract(&block, kinds);
                assert_eq!(batch.len(), out.features.len());
                for (k, (b, i)) in
                    batch.iter().zip(&out.features).enumerate()
                {
                    assert_eq!(
                        b.to_bits(),
                        i.to_bits(),
                        "{label}: feature {:?} diverged at block {} \
                         (batch {b} vs incremental {i})",
                        kinds[k],
                        out.seq
                    );
                }
                assert_eq!(out.idle, is_idle(&block), "{label}: idle bit");
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, series.len() / block_len, "{label}");
    }

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.normal().abs()).collect()
    }

    #[test]
    fn parity_over_signal_shapes_and_block_lengths() {
        let periodic: Vec<f64> = (0..1_512)
            .map(|t| {
                2.0 + (2.0 * std::f64::consts::PI * t as f64 / 60.0).sin()
            })
            .collect();
        let mut rng = Rng::seed_from_u64(3);
        let mut acc = 50.0;
        let walk: Vec<f64> = (0..1_512)
            .map(|_| {
                acc += rng.normal();
                acc.max(0.0)
            })
            .collect();
        let shapes: Vec<(&str, Vec<f64>)> = vec![
            ("periodic", periodic),
            ("noise", noise(1_512, 1)),
            ("random-walk", walk),
            ("constant", vec![3.0; 1_512]),
            ("all-zero", vec![0.0; 1_512]),
            (
                "spiky",
                (0..1_512)
                    .map(|t| if t % 37 == 0 { 1e5 } else { 0.01 })
                    .collect(),
            ),
            (
                "tiny-huge",
                (0..1_512)
                    .map(|t| if t % 2 == 0 { 1e-12 } else { 1e12 })
                    .collect(),
            ),
        ];
        for (label, series) in &shapes {
            for block_len in [120usize, 504] {
                assert_block_parity(
                    series,
                    block_len,
                    &FeatureKind::ALL,
                    &format!("{label}/{block_len}"),
                );
            }
        }
    }

    #[test]
    fn parity_on_short_blocks_without_adf() {
        // Blocks shorter than the ADF minimum: both paths must agree on
        // the degenerate -30 verdict.
        assert_block_parity(
            &noise(60, 9),
            12,
            &FeatureKind::DEFAULT,
            "short",
        );
    }

    #[test]
    fn progress_and_reset_bookkeeping() {
        let mut inc =
            IncrementalExtractor::new(10, 1.0, &FeatureKind::DEFAULT);
        for t in 0..25 {
            let out = inc.push(t as f64);
            assert_eq!(out.is_some(), (t + 1) % 10 == 0);
        }
        assert_eq!(inc.blocks_completed(), 2);
        assert_eq!(inc.block_progress(), 5);
        assert_eq!(inc.window(), &[20.0, 21.0, 22.0, 23.0, 24.0]);
        let resumed =
            IncrementalExtractor::new(10, 1.0, &FeatureKind::DEFAULT)
                .starting_at_block(2);
        assert_eq!(resumed.blocks_completed(), 2);
    }

    #[test]
    fn buffer_capacity_is_fixed() {
        let mut inc =
            IncrementalExtractor::new(120, 0.5, &FeatureKind::DEFAULT);
        let cap = inc.buf.capacity();
        for t in 0..1_200 {
            inc.push((t % 7) as f64);
        }
        assert_eq!(
            inc.buf.capacity(),
            cap,
            "block buffer must never grow past its fixed capacity"
        );
    }
}
