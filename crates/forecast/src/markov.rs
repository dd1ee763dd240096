//! Markov Chain forecaster.
//!
//! For repetitive invocation patterns, FeMux includes a discrete Markov
//! Chain over quantized concurrency levels (§4.3.3; four states, as in
//! the paper). The window is quantile-binned into states, a transition
//! matrix is estimated with Laplace smoothing, and forecasts propagate
//! the state distribution forward, reporting the expected value of the
//! state centroids.

use crate::Forecaster;

/// A k-state Markov Chain forecaster over quantized levels.
#[derive(Debug, Clone)]
pub struct MarkovForecaster {
    states: usize,
}

impl MarkovForecaster {
    /// Creates a Markov forecaster with `states` quantization levels.
    ///
    /// # Panics
    ///
    /// Panics if `states < 2`.
    pub fn new(states: usize) -> Self {
        assert!(states >= 2, "need at least two states");
        MarkovForecaster { states }
    }

    /// The paper's configuration: four states.
    pub fn paper() -> Self {
        MarkovForecaster::new(4)
    }

    /// Quantizes the series into state indices and state centroids using
    /// equal-probability (quantile) bins.
    fn quantize(&self, history: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let mut sorted = history.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Bin edges at interior quantiles.
        let edges: Vec<f64> = (1..self.states)
            .map(|q| {
                femux_stats::desc::quantile_sorted(
                    &sorted,
                    q as f64 / self.states as f64,
                )
            })
            .collect();
        let assign = |x: f64| edges.iter().filter(|e| x > **e).count();
        let labels: Vec<usize> =
            history.iter().map(|&x| assign(x)).collect();
        // Centroid = mean of members; empty states fall back to the
        // window mean.
        let mut sums = vec![0.0; self.states];
        let mut counts = vec![0usize; self.states];
        for (&x, &s) in history.iter().zip(&labels) {
            sums[s] += x;
            counts[s] += 1;
        }
        let global = femux_stats::desc::mean(history);
        let centroids: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(&s, &c)| if c > 0 { s / c as f64 } else { global })
            .collect();
        (labels, centroids)
    }
}

impl Forecaster for MarkovForecaster {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn predict(&mut self, history: &[f64], horizon: usize) -> Vec<f64> {
        if history.is_empty() || horizon == 0 {
            return vec![0.0; horizon];
        }
        if history.len() < 2 * self.states {
            return vec![history[history.len() - 1].max(0.0); horizon];
        }
        let k = self.states;
        let (labels, centroids) = self.quantize(history);
        // Transition counts with Laplace smoothing.
        let mut trans = vec![vec![1.0; k]; k];
        for w in labels.windows(2) {
            trans[w[0]][w[1]] += 1.0;
        }
        for row in &mut trans {
            let total: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= total;
            }
        }
        // Start from a point mass on the last observed state.
        let mut dist = vec![0.0; k];
        dist[labels[labels.len() - 1]] = 1.0;
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut next = vec![0.0; k];
            for (s, &p) in dist.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                for (t, &q) in trans[s].iter().enumerate() {
                    next[t] += p * q;
                }
            }
            dist = next;
            let expected: f64 = dist
                .iter()
                .zip(&centroids)
                .map(|(p, c)| p * c)
                .sum();
            out.push(expected.max(0.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_alternating_pattern() {
        // 0, 10, 0, 10, ...: after a 0 the chain should predict high.
        let history: Vec<f64> = (0..120)
            .map(|i| if i % 2 == 0 { 0.0 } else { 10.0 })
            .collect();
        // history ends on index 119 (odd -> 10); next is 0.
        let mut f = MarkovForecaster::paper();
        let pred = f.forecast(&history, 2);
        assert!(pred[0] < 3.0, "after high, expect low: {}", pred[0]);
        assert!(pred[1] > 7.0, "then high again: {}", pred[1]);
    }

    #[test]
    fn constant_series() {
        let mut f = MarkovForecaster::paper();
        let pred = f.forecast(&[5.0; 100], 3);
        for p in pred {
            assert!((p - 5.0).abs() < 1e-9, "prediction {p}");
        }
    }

    #[test]
    fn long_run_converges_to_stationary_mean() {
        // An ergodic chain's far forecast approaches the window mean.
        let history: Vec<f64> = (0..200)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => 2.0,
                2 => 8.0,
                _ => 10.0,
            })
            .collect();
        let mut f = MarkovForecaster::paper();
        let pred = f.forecast(&history, 100);
        let mean = femux_stats::desc::mean(&history);
        assert!(
            (pred[99] - mean).abs() < 1.5,
            "far prediction {} vs mean {mean}",
            pred[99]
        );
    }

    #[test]
    fn short_history_persists_last() {
        let mut f = MarkovForecaster::paper();
        assert_eq!(f.forecast(&[1.0, 2.0], 2), vec![2.0, 2.0]);
        assert_eq!(f.forecast(&[], 1), vec![0.0]);
    }

    #[test]
    fn quantize_balances_states() {
        let f = MarkovForecaster::paper();
        let history: Vec<f64> = (0..400).map(|i| (i % 100) as f64).collect();
        let (labels, centroids) = f.quantize(&history);
        let mut counts = [0usize; 4];
        for &l in &labels {
            counts[l] += 1;
        }
        for c in counts {
            assert!(
                (c as f64 - 100.0).abs() < 30.0,
                "unbalanced states {counts:?}"
            );
        }
        assert!(centroids.windows(2).all(|w| w[0] <= w[1]));
    }
}
